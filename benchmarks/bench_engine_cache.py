"""Engine micro-benchmark: discovery with the hop cache on vs off.

For each lake, runs ``AutoFeat.discover`` twice — ``enable_hop_cache=True``
and ``False`` — and reports wall time plus the engine's build/probe/cache
counters.  Two properties are verified and recorded:

* **parity** — the ranked paths (descriptions, scores, selected features)
  are bit-identical with the cache on and off;
* **reuse** — with the cache on, index builds are strictly fewer than the
  frontier hops executed (cache hit rate > 0) on non-tree lakes.

The data-lake setting (COMA-rediscovered edges, Section VII-C2) is used
because its dense multigraph is where cross-path reuse actually occurs; a
pure snowflake reaches every table along exactly one path.

Usage::

    PYTHONPATH=src python benchmarks/bench_engine_cache.py [--smoke]

Writes a JSON summary to ``BENCH_engine_cache.json`` at the repo root and
exits non-zero if parity is violated, so CI can gate on it.
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
from repro.datasets import build_dataset, datalake_drg

REPO_ROOT = Path(__file__).resolve().parent.parent
SUMMARY_PATH = REPO_ROOT / "BENCH_engine_cache.json"

#: (dataset, sample_size) per mode; covertype's 12 satellites under the
#: noisy rediscovered multigraph produce heavy cross-path table reuse.
SMOKE_LAKES = [("covertype", 300)]
FULL_LAKES = [("credit", 500), ("covertype", 1000), ("jannis", 1000)]


def ranking_fingerprint(discovery):
    return [
        (r.path.describe(), r.score, r.selected_features)
        for r in discovery.ranked_paths
    ]


def bench_lake(name: str, sample_size: int) -> tuple[dict, list]:
    bundle = build_dataset(name)
    drg = datalake_drg(bundle)
    runs = {}
    fingerprints = {}
    manifests = []
    for cached in (True, False):
        config = AutoFeatConfig(
            sample_size=sample_size, enable_hop_cache=cached, seed=0
        )
        autofeat = AutoFeat(drg, config)
        started = time.perf_counter()
        discovery = autofeat.discover(bundle.base_name, bundle.label_column)
        seconds = time.perf_counter() - started
        assert_no_failures(discovery)
        manifests.append(discovery.run_manifest)
        key = "cache_on" if cached else "cache_off"
        runs[key] = {
            "discovery_seconds": round(seconds, 4),
            "n_paths_ranked": len(discovery.ranked_paths),
            **discovery.engine_stats.as_dict(),
            "stages": {
                stage: round(s, 4)
                for stage, s in discovery.run_manifest.stage_seconds().items()
            },
        }
        fingerprints[key] = ranking_fingerprint(discovery)
    on, off = runs["cache_on"], runs["cache_off"]
    return {
        "dataset": name,
        "sample_size": sample_size,
        "cache_on": on,
        "cache_off": off,
        "identical_rankings": fingerprints["cache_on"] == fingerprints["cache_off"],
        "builds_saved": off["index_builds"] - on["index_builds"],
        "speedup": round(
            off["discovery_seconds"] / max(on["discovery_seconds"], 1e-9), 3
        ),
    }, manifests


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--smoke",
        action="store_true",
        help="single small lake; the fast configuration scripts/check.sh runs",
    )
    args = parser.parse_args(argv)

    lakes = SMOKE_LAKES if args.smoke else FULL_LAKES
    results = []
    manifests = []
    for name, sample in lakes:
        result, run_manifests = bench_lake(name, sample)
        results.append(result)
        manifests.extend(run_manifests)
    summary = {
        "benchmark": "engine_hop_cache",
        "mode": "smoke" if args.smoke else "full",
        "lakes": results,
        "all_rankings_identical": all(r["identical_rankings"] for r in results),
        "total_builds_saved": sum(r["builds_saved"] for r in results),
    }
    written = summary_path(SUMMARY_PATH, args.smoke)
    write_summary(written, summary, manifests)

    for r in results:
        on, off = r["cache_on"], r["cache_off"]
        print(
            f"{r['dataset']:<12} hops={on['hops_executed']:<4} "
            f"builds {off['index_builds']} -> {on['index_builds']} "
            f"(hit rate {on['cache_hit_rate']:.0%}) "
            f"time {off['discovery_seconds']:.3f}s -> {on['discovery_seconds']:.3f}s "
            f"({r['speedup']:.2f}x) "
            f"parity={'ok' if r['identical_rankings'] else 'BROKEN'}"
        )
    print(f"summary -> {written}")

    if not summary["all_rankings_identical"]:
        print("ERROR: cached and uncached discovery disagree", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
