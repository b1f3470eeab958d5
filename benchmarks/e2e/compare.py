"""Compare two full records of ``run.py`` (A = base, B = candidate).

``python benchmarks/e2e/compare.py A.json B.json``

For every workload × end-to-end metric: both medians, both quartile pairs
(``statistics.quantiles(values, n=4)`` over the runs of each record), the
ratio B/A, the metric's bound and a verdict —

* ``worse``       B's median is worse than A's by more than the bound;
* ``unresolved``  not worse, but a record's own spread (q3 − q1 as a share
  of its median) is wider than the bound, so "no change" is not shown;
* ``ok``          otherwise.

Exits non-zero on any ``worse``.  Same commit on both sides is the A/A
acceptance check; two commits is the A/B check of a later claim.  Records
with one run per workload compare medians only (spread needs ``--runs``).
"""

from __future__ import annotations

import json
import statistics
import sys


def summary(runs: list[dict], metric: str) -> tuple[float, float, float, float]:
    """``(median, q1, q3, spread)`` of one metric over a record's runs."""
    values = [run["metrics"][metric]["value"] for run in runs]
    if len(values) < 2:
        return values[0], values[0], values[0], 0.0
    q1, median, q3 = statistics.quantiles(values, n=4)
    return median, q1, q3, (q3 - q1) / median


def compare(a: dict, b: dict) -> list[dict]:
    rows = []
    for workload in a["workloads"]:
        if workload not in b["workloads"]:
            continue
        for declared in a["end_to_end"]:
            metric, unit = declared["name"], declared["unit"]
            better, bound = declared["better"], declared["bound"]
            med_a, q1_a, q3_a, spread_a = summary(a["workloads"][workload]["runs"], metric)
            med_b, q1_b, q3_b, spread_b = summary(b["workloads"][workload]["runs"], metric)
            ratio = med_b / med_a
            worsening = ratio - 1.0 if better == "lower" else 1.0 - ratio
            if worsening > bound:
                verdict = "worse"
            elif max(spread_a, spread_b) > bound:
                verdict = "unresolved"
            else:
                verdict = "ok"
            rows.append({
                "workload": workload, "metric": metric, "unit": unit,
                "a": (med_a, q1_a, q3_a, spread_a),
                "b": (med_b, q1_b, q3_b, spread_b),
                "ratio": ratio, "bound": bound, "verdict": verdict,
            })
    return rows


def main(argv: list[str]) -> int:
    if len(argv) != 2:
        print(__doc__)
        return 2
    a, b = (json.load(open(path)) for path in argv)
    rows = compare(a, b)
    print(f"{'workload':15s} {'metric':12s} {'A median [q1, q3] spread':38s} "
          f"{'B median [q1, q3] spread':38s} {'B/A':>7s} {'bound':>6s}  verdict")
    for row in rows:
        cells = [
            f"{m:.4g} [{q1:.4g}, {q3:.4g}] {spread:.1%}"
            for m, q1, q3, spread in (row["a"], row["b"])
        ]
        print(f"{row['workload']:15s} {row['metric']:12s} {cells[0]:38s} {cells[1]:38s} "
              f"{row['ratio']:7.3f} {row['bound']:6.0%}  {row['verdict']}"
              f"  (base {row['a'][0]:.4g} {row['unit']})")
    for side, record in (("A", a), ("B", b)):
        for name, entry in record["workloads"].items():
            failed = sum(run["failed"] for run in entry["runs"]) + entry["traced"]["failed"]
            if failed:
                print(f"{side}: {name} has {failed} failed op(s)")
    worse = [row for row in rows if row["verdict"] == "worse"]
    unresolved = [row for row in rows if row["verdict"] == "unresolved"]
    print(f"{len(rows)} comparisons: {len(worse)} worse, {len(unresolved)} unresolved")
    return 1 if worse else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
