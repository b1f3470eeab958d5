"""Parallel discovery benchmark: serial vs threads vs processes at 4 workers.

Runs ``AutoFeat.discover`` over one synthetic snowflake lake under each
``parallel_backend`` and reports wall time, the engine counters and the
executor's ``parallel.*`` gauges.  Two gates are enforced and recorded:

* **parity** — ranked paths (descriptions, scores, selected features) and
  failure reports are bit-identical across all three backends; a violation
  exits non-zero.
* **speedup** — the best parallel backend must beat serial by at least
  1.8x at 4 workers (full mode; smoke only gates parity).

Hop work is dominated by ``hop_latency_seconds``, the engine's simulated
remote-fetch latency: each hop sleeps (releasing the GIL) as a lake whose
tables live across a network would, which makes the speedup measurement
meaningful and machine-independent even on single-core CI runners.  See
DESIGN.md §11 for why CPU-bound speedups additionally need the
``processes`` backend.

Usage::

    PYTHONPATH=src python benchmarks/bench_parallel_discovery.py [--smoke]

Writes a JSON summary to ``BENCH_parallel_discovery.json`` at the repo
root and exits non-zero if a gate fails, so CI can gate on it.
With ``--smoke`` the summary goes to a temp dir instead: the tracked file is
only ever written by a full run.
"""

from __future__ import annotations

import argparse
import sys
import time
from pathlib import Path

from _util import assert_no_failures, summary_path, write_summary

from repro.core import AutoFeat, AutoFeatConfig
from repro.datasets import make_classification, split_into_lake
from repro.datasets.splitter import SplitPlan

REPO_ROOT = Path(__file__).resolve().parent.parent
SUMMARY_PATH = REPO_ROOT / "BENCH_parallel_discovery.json"

WORKERS = 4
SPEEDUP_GATE = 1.8
BACKENDS = ("serial", "threads", "processes")


def build_lake(seed: int = 7):
    """A wide snowflake: every BFS wave fans out enough to keep 4 busy."""
    flat = make_classification(
        n_rows=480,
        n_informative=6,
        n_redundant=3,
        n_noise=5,
        class_sep=1.6,
        seed=seed,
    )
    plan = SplitPlan(
        name="parallel-bench",
        n_satellites=8,
        n_base_features=2,
        max_depth=2,
        match_rate_range=(0.8, 1.0),
        seed=seed,
    )
    bundle = split_into_lake(flat, plan)
    return bundle, bundle.benchmark_drg()


def fingerprint(discovery):
    return {
        "ranked": [
            (r.path.describe(), r.score, r.selected_features)
            for r in discovery.ranked_paths
        ],
        "failures": [
            (f.stage, f.error_kind, f.message, f.path, f.edge)
            for f in discovery.failure_report.records
        ],
    }


def bench_backend(drg, bundle, backend, *, hop_latency, sample_size):
    config = AutoFeatConfig(
        sample_size=sample_size,
        seed=0,
        parallel_backend=backend,
        max_workers=WORKERS,
        hop_latency_seconds=hop_latency,
    )
    autofeat = AutoFeat(drg, config)
    started = time.perf_counter()
    discovery = autofeat.discover(bundle.base_name, bundle.label_column)
    seconds = time.perf_counter() - started
    assert_no_failures(discovery)
    gauges = discovery.run_manifest.metrics.get("gauges", {})
    row = {
        "backend": backend,
        "workers": 1 if backend == "serial" else WORKERS,
        "discovery_seconds": round(seconds, 4),
        "n_paths_ranked": len(discovery.ranked_paths),
        "n_failure_records": len(discovery.failure_report.records),
        **discovery.engine_stats.as_dict(),
        "gauges": {k: v for k, v in gauges.items() if k.startswith("parallel.")},
    }
    return row, fingerprint(discovery), discovery.run_manifest


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--smoke",
        action="store_true",
        help="lighter latency + parity gate only; what scripts/check.sh runs",
    )
    args = parser.parse_args(argv)
    hop_latency = 0.005 if args.smoke else 0.03
    sample_size = 200 if args.smoke else 300

    bundle, drg = build_lake()
    rows, prints, manifests = {}, {}, []
    for backend in BACKENDS:
        row, print_, manifest = bench_backend(
            drg, bundle, backend, hop_latency=hop_latency, sample_size=sample_size
        )
        rows[backend], prints[backend] = row, print_
        manifests.append(manifest)

    serial_seconds = rows["serial"]["discovery_seconds"]
    for backend in ("threads", "processes"):
        rows[backend]["speedup_vs_serial"] = round(
            serial_seconds / max(rows[backend]["discovery_seconds"], 1e-9), 3
        )
    best_speedup = max(
        rows[b]["speedup_vs_serial"] for b in ("threads", "processes")
    )
    parity = all(prints[b] == prints["serial"] for b in ("threads", "processes"))
    zero_failures = all(r["n_failure_records"] == 0 for r in rows.values())

    summary = {
        "benchmark": "parallel_discovery",
        "mode": "smoke" if args.smoke else "full",
        "workers": WORKERS,
        "hop_latency_seconds": hop_latency,
        "lake": {
            "name": bundle.name,
            "n_tables": len(bundle.tables),
            "sample_size": sample_size,
        },
        "backends": [rows[b] for b in BACKENDS],
        "all_rankings_identical": parity,
        "zero_failure_records": zero_failures,
        "best_parallel_speedup": best_speedup,
        "speedup_gate": SPEEDUP_GATE,
        "speedup_gate_enforced": not args.smoke,
    }
    written = summary_path(SUMMARY_PATH, args.smoke)
    write_summary(written, summary, manifests)

    for backend in BACKENDS:
        r = rows[backend]
        speedup = r.get("speedup_vs_serial")
        print(
            f"{backend:<10} workers={r['workers']} "
            f"time={r['discovery_seconds']:.3f}s "
            f"hops={r['hops_executed']} "
            + (f"speedup={speedup:.2f}x " if speedup else "(baseline) ")
            + f"parity={'ok' if prints[backend] == prints['serial'] else 'BROKEN'}"
        )
    print(f"summary -> {written}")

    if not parity:
        print("ERROR: parallel and serial discovery disagree", file=sys.stderr)
        return 1
    if not zero_failures:
        print("ERROR: benchmark runs recorded failures", file=sys.stderr)
        return 1
    if not args.smoke and best_speedup < SPEEDUP_GATE:
        print(
            f"ERROR: best parallel speedup {best_speedup:.2f}x is below the "
            f"{SPEEDUP_GATE}x gate at {WORKERS} workers",
            file=sys.stderr,
        )
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
