"""Always-on service benchmark: warm requests vs cold single-shot runs.

Measures what the :class:`repro.service.DiscoveryService` exists for —
amortising lake profiling, O(n²) schema matching, DRG construction and
hop-index building across requests.  Three segments:

* **cold** — one from-scratch ``from_discovery`` + ``AutoFeat(...).augment``,
  the per-request cost of not running a service;
* **warm** — the same request served repeatedly by a standing service
  (result cache + shared hop cache);
* **mutation** — one ``update_table`` applied incrementally vs a cold
  full rebuild of the post-mutation lake, then one re-run past the result
  cache, answered through the outcome memo (the hit ratios of its
  ``selection`` and ``train`` namespaces are printed after the warm/cold
  gate and the re-run joins the parity gate).

Two gates are enforced and recorded:

* **parity** — the warm response is bit-identical to the cold run (ranked
  paths, scores, selected features, best-model accuracy, failure
  reports), and the incrementally maintained DRG matches the cold
  rebuild edge-for-edge; a violation exits non-zero.
* **speedup** — the median warm request must beat the cold single-shot
  by at least 5x.

Usage::

    PYTHONPATH=src python benchmarks/bench_service.py [--smoke]

Writes a JSON summary (with embedded, validated run manifests) to
``BENCH_service.json`` at the repo root and exits non-zero if a gate
fails, so CI can gate on it.
With ``--smoke`` the summary goes to a temp dir instead: the tracked file is
only ever written by a full run.
"""

from __future__ import annotations

import argparse
import statistics
import sys
import time
from pathlib import Path

from _util import assert_no_failures, summary_path, write_summary

from repro import AutoFeat, AutoFeatConfig, DiscoveryService
from repro.datasets import make_classification, split_into_lake
from repro.datasets.splitter import SplitPlan
from repro.discovery import ComaMatcher
from repro.graph import DatasetRelationGraph

REPO_ROOT = Path(__file__).resolve().parent.parent
SUMMARY_PATH = REPO_ROOT / "BENCH_service.json"

SPEEDUP_GATE = 5.0
N_WARM_REQUESTS = 5


def build_lake(smoke: bool, seed: int = 7):
    flat = make_classification(
        n_rows=240 if smoke else 480,
        n_informative=5,
        n_redundant=2,
        n_noise=3,
        class_sep=1.6,
        seed=seed,
    )
    plan = SplitPlan(
        name="service-bench",
        n_satellites=4 if smoke else 6,
        n_base_features=2,
        max_depth=2,
        match_rate_range=(0.8, 1.0),
        seed=seed,
    )
    return split_into_lake(flat, plan)


def fingerprint(result):
    """Everything order- or value-sensitive in an AugmentationResult."""
    discovery = result.discovery
    return {
        "ranked": [
            (r.path.describe(), r.score, r.selected_features)
            for r in discovery.ranked_paths
        ],
        "trained": [
            (t.ranked.path.describe(), t.accuracy, t.n_features_used)
            for t in result.trained
        ],
        "best_accuracy": result.best.accuracy if result.best else None,
        "failures": [
            (f.stage, f.error_kind, f.message, f.path, f.edge)
            for f in (
                list(discovery.failure_report.records)
                + list(result.failure_report.records)
            )
        ],
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--smoke",
        action="store_true",
        help="smaller lake; same gates — what scripts/check.sh runs",
    )
    args = parser.parse_args(argv)

    bundle = build_lake(args.smoke)
    tables = list(bundle.tables)
    config = AutoFeatConfig(
        sample_size=200, seed=0, top_k=2, max_path_length=2
    )

    # -- cold single-shot: rebuild the world, run once ----------------------
    started = time.perf_counter()
    cold_drg = DatasetRelationGraph.from_discovery(tables, ComaMatcher())
    cold = AutoFeat(cold_drg, config).augment(
        bundle.base_name, bundle.label_column
    )
    cold_seconds = time.perf_counter() - started
    assert_no_failures(cold)

    # -- warm service: one priming request, then repeats --------------------
    service = DiscoveryService(tables, matcher=ComaMatcher(), config=config)
    started = time.perf_counter()
    priming = service.augment(bundle.base_name, bundle.label_column)
    priming_seconds = time.perf_counter() - started
    assert_no_failures(priming.result)

    warm_seconds = []
    warm_responses = []
    for _ in range(N_WARM_REQUESTS):
        started = time.perf_counter()
        response = service.augment(bundle.base_name, bundle.label_column)
        warm_seconds.append(time.perf_counter() - started)
        warm_responses.append(response)
    warm_median = statistics.median(warm_seconds)
    all_warm_hits = all(r.cache_hit for r in warm_responses)

    parity = fingerprint(priming.result) == fingerprint(cold) and all(
        fingerprint(r.result) == fingerprint(cold) for r in warm_responses
    )

    # -- mutation: incremental maintenance vs cold rebuild ------------------
    satellite = next(t for t in tables if t.name != bundle.base_name)
    started = time.perf_counter()
    report = service.update_table(satellite)
    mutation_seconds = time.perf_counter() - started
    started = time.perf_counter()
    rebuilt = DatasetRelationGraph.from_discovery(
        service.index.tables, ComaMatcher()
    )
    rebuild_seconds = time.perf_counter() - started
    drg_parity = (
        service.drg.edge_fingerprint() == rebuilt.edge_fingerprint()
    )

    # -- re-run past the result cache: the outcome memo answers -------------
    # (the mutation re-registered identical rows, so the cold run still
    # describes the lake and every selection step and fit recurs byte for
    # byte)
    rerun = service.augment(bundle.base_name, bundle.label_column, use_cache=False)
    parity = parity and fingerprint(rerun.result) == fingerprint(cold)

    speedup = cold_seconds / max(warm_median, 1e-9)
    stats = service.stats()
    memo_hit_ratios = {
        namespace: counters["hits"] / max(1, counters["hits"] + counters["misses"])
        for namespace, counters in stats["memo"].items()
    }
    service.close()

    summary = {
        "benchmark": "service",
        "mode": "smoke" if args.smoke else "full",
        "lake": {
            "name": bundle.name,
            "n_tables": len(tables),
            "sample_size": config.sample_size,
        },
        "cold_single_shot_seconds": round(cold_seconds, 4),
        "warm_priming_seconds": round(priming_seconds, 4),
        "warm_request_seconds": [round(s, 6) for s in warm_seconds],
        "warm_median_seconds": round(warm_median, 6),
        "warm_speedup_vs_cold": round(speedup, 2),
        "speedup_gate": SPEEDUP_GATE,
        "all_warm_requests_cache_hits": all_warm_hits,
        "warm_cold_parity": parity,
        "memo_hit_ratios": {k: round(v, 4) for k, v in memo_hit_ratios.items()},
        "mutation": {
            "kind": report.kind,
            "table": report.table,
            "n_pairs_rematched": report.n_pairs_rematched,
            "n_pairs_reused": report.n_pairs_reused,
            "incremental_seconds": round(mutation_seconds, 4),
            "cold_rebuild_seconds": round(rebuild_seconds, 4),
            "drg_parity": drg_parity,
        },
        "service_stats": stats,
    }
    manifests = [
        cold.run_manifest,
        priming.result.run_manifest,
        priming.manifest,
        warm_responses[0].manifest,
    ]
    written = summary_path(SUMMARY_PATH, args.smoke)
    write_summary(written, summary, manifests)

    print(
        f"cold single-shot   {cold_seconds:8.3f}s  (discovery + match + augment)"
    )
    print(f"warm priming       {priming_seconds:8.3f}s  (service, cold caches)")
    print(
        f"warm request       {warm_median:8.6f}s  median of {N_WARM_REQUESTS} "
        f"(speedup {speedup:.0f}x, gate {SPEEDUP_GATE:.0f}x)"
    )
    for namespace, counters in stats["memo"].items():
        print(
            f"{namespace + ' memo':<18} {counters['hits']} hits / "
            f"{counters['misses']} misses = {memo_hit_ratios[namespace]:.0%} "
            f"over priming + one uncached re-run"
        )
    print(
        f"mutation           {mutation_seconds:8.3f}s  incremental vs "
        f"{rebuild_seconds:.3f}s cold rebuild "
        f"({report.n_pairs_rematched} pairs rematched, "
        f"{report.n_pairs_reused} reused)"
    )
    print(f"summary -> {written}")

    if not parity:
        print("ERROR: warm service results differ from cold run", file=sys.stderr)
        return 1
    if not drg_parity:
        print(
            "ERROR: incremental DRG differs from cold rebuild", file=sys.stderr
        )
        return 1
    if not all_warm_hits:
        print("ERROR: warm repeats were not served from cache", file=sys.stderr)
        return 1
    if speedup < SPEEDUP_GATE:
        print(
            f"ERROR: warm speedup {speedup:.2f}x is below the "
            f"{SPEEDUP_GATE}x gate",
            file=sys.stderr,
        )
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
