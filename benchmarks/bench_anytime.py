"""Anytime discovery benchmark: the regret-vs-budget curve.

Runs ``AutoFeat.discover`` over the covertype lake under a sweep of hop
budgets (fractions of the full traversal) with the UCB frontier, and
reports wall time, executed hops and :func:`repro.core.ranking_regret`
against the unbudgeted reference run.  Hop work is dominated by the
:class:`HopLatency` hop hook below (a simulated remote-fetch latency), so
wall time tracks executed hops and the speedup figures are
machine-independent.

Three gates are enforced and recorded:

* **degeneration parity** — an unbudgeted run with
  ``frontier_strategy="ucb"`` is bit-identical to the reference run: the
  UCB knob must not perturb complete traversals (DESIGN.md §14);
* **infinite-budget parity** — with ``max_hops`` equal to the full
  traversal's hop count, the budgeted run discovers exactly the
  reference path set and its regret is exactly 0;
* **anytime speedup** (full mode only) — some budget point runs at least
  2x faster than the full traversal while keeping regret at or below 5%:
  the headline claim that half the work loses almost none of the value.

Usage::

    PYTHONPATH=src python benchmarks/bench_anytime.py [--smoke]

Writes a JSON summary to ``BENCH_anytime.json`` at the repo root and
exits non-zero if a gate fails, so CI can gate on it.
With ``--smoke`` the summary goes to a temp dir instead: the tracked file is
only ever written by a full run.
"""

from __future__ import annotations

import argparse
import sys
import time
from dataclasses import dataclass
from pathlib import Path

from _util import assert_no_failures, summary_path, write_summary

from repro.core import AutoFeat, AutoFeatConfig, ranking_regret
from repro.datasets import build_dataset, datalake_drg

REPO_ROOT = Path(__file__).resolve().parent.parent
SUMMARY_PATH = REPO_ROOT / "BENCH_anytime.json"

SPEEDUP_GATE = 2.0
REGRET_GATE = 0.05
#: Hop budgets as fractions of the full traversal, smallest first.
BUDGET_FRACTIONS = (0.125, 0.25, 0.4, 0.5, 0.75, 1.0)


@dataclass(frozen=True)
class HopLatency:
    """Hop hook that sleeps ``seconds`` per hop (lands in the ``hop`` span)."""

    seconds: float

    def __call__(self, edge) -> None:
        time.sleep(self.seconds)


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


def run_discover(drg, bundle, *, sample_size, hop_latency, **overrides):
    config = AutoFeatConfig(sample_size=sample_size, seed=0, **overrides)
    autofeat = AutoFeat(drg, config, hop_hook=HopLatency(hop_latency))
    started = time.perf_counter()
    discovery = autofeat.discover(bundle.base_name, bundle.label_column)
    return discovery, time.perf_counter() - started


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--smoke",
        action="store_true",
        help="lighter latency/sample; parity gates only (scripts/check.sh)",
    )
    args = parser.parse_args(argv)
    hop_latency = 0.005 if args.smoke else 0.03
    sample_size = 300 if args.smoke else 1000

    bundle = build_dataset("covertype")
    drg = datalake_drg(bundle)

    full, full_seconds = run_discover(
        drg, bundle, sample_size=sample_size, hop_latency=hop_latency
    )
    assert_no_failures(full)
    total_hops = full.navigation.hops_executed
    manifests = [full.run_manifest]

    # Gate 1: the strategy knob is inert without a budget.
    degenerate, _ = run_discover(
        drg,
        bundle,
        sample_size=sample_size,
        hop_latency=hop_latency,
        frontier_strategy="ucb",
    )
    degeneration_parity = fingerprint(degenerate) == fingerprint(full)

    curve = []
    budgets = sorted(
        {max(1, round(total_hops * f)) for f in BUDGET_FRACTIONS}
    )
    for max_hops in budgets:
        partial, seconds = run_discover(
            drg,
            bundle,
            sample_size=sample_size,
            hop_latency=hop_latency,
            max_hops=max_hops,
            frontier_strategy="ucb",
        )
        manifests.append(partial.run_manifest)
        regret = ranking_regret(full, partial)
        curve.append(
            {
                "max_hops": max_hops,
                "budget_fraction": round(max_hops / max(total_hops, 1), 4),
                "hops_executed": partial.navigation.hops_executed,
                "budget_exhausted": partial.budget_exhausted,
                "frontier_unexplored": partial.navigation.frontier_unexplored,
                "n_paths_ranked": len(partial.ranked_paths),
                "discovery_seconds": round(seconds, 4),
                "speedup_vs_full": round(full_seconds / max(seconds, 1e-9), 3),
                "regret": round(regret, 6),
            }
        )

    # Gate 2: the full hop budget reproduces the reference path set.
    at_full = curve[-1]
    full_budget_run, _ = run_discover(
        drg,
        bundle,
        sample_size=sample_size,
        hop_latency=hop_latency,
        max_hops=total_hops,
        frontier_strategy="ucb",
    )
    full_paths = {r.path.describe() for r in full.ranked_paths}
    budget_paths = {r.path.describe() for r in full_budget_run.ranked_paths}
    infinite_budget_parity = budget_paths == full_paths and at_full["regret"] == 0.0

    # Gate 3: anytime value — fast AND nearly as good, at some point.
    qualifying = [
        row
        for row in curve
        if row["speedup_vs_full"] >= SPEEDUP_GATE and row["regret"] <= REGRET_GATE
    ]
    summary = {
        "benchmark": "anytime",
        "mode": "smoke" if args.smoke else "full",
        "dataset": "covertype",
        "sample_size": sample_size,
        "hop_latency_seconds": hop_latency,
        "full_traversal": {
            "hops_executed": total_hops,
            "discovery_seconds": round(full_seconds, 4),
            "n_paths_ranked": len(full.ranked_paths),
        },
        "regret_curve": curve,
        "degeneration_parity": degeneration_parity,
        "infinite_budget_parity": infinite_budget_parity,
        "speedup_gate": SPEEDUP_GATE,
        "regret_gate": REGRET_GATE,
        "speedup_gate_enforced": not args.smoke,
        "best_qualifying_point": (
            max(qualifying, key=lambda r: r["speedup_vs_full"])
            if qualifying
            else None
        ),
    }
    written = summary_path(SUMMARY_PATH, args.smoke)
    write_summary(written, summary, manifests)

    print(
        f"full       hops={total_hops} time={full_seconds:.3f}s "
        f"paths={len(full.ranked_paths)} (baseline)"
    )
    for row in curve:
        print(
            f"hops<={row['max_hops']:<4} time={row['discovery_seconds']:.3f}s "
            f"speedup={row['speedup_vs_full']:.2f}x "
            f"regret={row['regret']:.4f} "
            f"paths={row['n_paths_ranked']}"
        )
    print(f"summary -> {written}")

    if not degeneration_parity:
        print(
            "ERROR: unbudgeted ucb run diverged from the reference traversal",
            file=sys.stderr,
        )
        return 1
    if not infinite_budget_parity:
        print(
            "ERROR: full hop budget did not reproduce the reference path set",
            file=sys.stderr,
        )
        return 1
    if not args.smoke and not qualifying:
        print(
            f"ERROR: no budget point reached {SPEEDUP_GATE}x speedup at "
            f"<= {REGRET_GATE:.0%} regret",
            file=sys.stderr,
        )
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
