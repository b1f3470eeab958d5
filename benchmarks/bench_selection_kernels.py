"""Selection micro-benchmark: discovery with the scoring kernels on vs off.

For each lake, runs ``AutoFeat.discover`` with
``enable_selection_kernels=True`` and ``False`` and reports the
feature-selection wall time plus the selector's counters.  Two properties
are verified and recorded:

* **parity** — the ranked paths (descriptions, scores, selected features
  and the per-path relevance/redundancy score tuples) are bit-identical
  with the kernels on and off — the kernels are an exact A/B switch, not
  an approximation;
* **reuse** — with the kernels on, the persistent code cache serves the
  selected set's discretised codes to the redundancy stage instead of
  re-binning them on every hop (``codes_reused`` > 0).

The data-lake setting is used for the same reason as the engine-cache
bench: its dense rediscovered multigraph yields many surviving hops, so
the selected set — and with it the scalar path's per-hop re-binning cost —
keeps growing over the traversal.

Usage::

    PYTHONPATH=src python benchmarks/bench_selection_kernels.py [--smoke]

Writes a JSON summary to ``BENCH_selection_kernels.json`` at the repo root
and exits non-zero if parity is violated, so CI can gate on it.
With ``--smoke`` the summary goes to a temp dir instead: the tracked file is
only ever written by a full run.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

from _util import assert_no_failures, summary_path, write_summary

from repro.core import AutoFeat, AutoFeatConfig
from repro.datasets import build_dataset, datalake_drg

REPO_ROOT = Path(__file__).resolve().parent.parent
SUMMARY_PATH = REPO_ROOT / "BENCH_selection_kernels.json"

#: (dataset, sample_size) per mode; covertype's wide satellites make the
#: relevance/redundancy stages the dominant cost (paper Figure 3).
SMOKE_LAKES = [("covertype", 300)]
FULL_LAKES = [("credit", 500), ("covertype", 1000)]

#: Timing runs per configuration in full mode (best-of); parity is checked
#: on every run.
FULL_REPEATS = 3


def ranking_fingerprint(discovery):
    return [
        (
            r.path.describe(),
            r.score,
            r.selected_features,
            r.relevance_scores,
            r.redundancy_scores,
        )
        for r in discovery.ranked_paths
    ]


def bench_lake(name: str, sample_size: int, repeats: int) -> tuple[dict, list]:
    bundle = build_dataset(name)
    drg = datalake_drg(bundle)
    runs = {}
    fingerprints = {}
    manifests = []
    for kernels in (True, False):
        config = AutoFeatConfig(
            sample_size=sample_size, enable_selection_kernels=kernels, seed=0
        )
        autofeat = AutoFeat(drg, config)
        best_seconds = None
        discovery = None
        for __ in range(repeats):
            discovery = autofeat.discover(bundle.base_name, bundle.label_column)
            assert_no_failures(discovery)
            seconds = discovery.feature_selection_seconds
            if best_seconds is None or seconds < best_seconds:
                best_seconds = seconds
            key = "kernels_on" if kernels else "kernels_off"
            fingerprint = ranking_fingerprint(discovery)
            if key in fingerprints and fingerprints[key] != fingerprint:
                print(
                    f"ERROR: {name} non-deterministic across repeats", file=sys.stderr
                )
                fingerprints[key] = None
            else:
                fingerprints.setdefault(key, fingerprint)
        manifests.append(discovery.run_manifest)
        runs[key] = {
            "feature_selection_seconds": round(best_seconds, 4),
            "n_paths_ranked": len(discovery.ranked_paths),
            **discovery.selection_stats.as_dict(),
            "stages": {
                stage: round(s, 4)
                for stage, s in discovery.run_manifest.stage_seconds().items()
            },
        }
    on, off = runs["kernels_on"], runs["kernels_off"]
    return {
        "dataset": name,
        "sample_size": sample_size,
        "kernels_on": on,
        "kernels_off": off,
        "identical_rankings": (
            fingerprints["kernels_on"] is not None
            and fingerprints["kernels_on"] == fingerprints["kernels_off"]
        ),
        "codes_reused": on["codes_reused"],
        "speedup": round(
            off["feature_selection_seconds"]
            / max(on["feature_selection_seconds"], 1e-9),
            3,
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
    repeats = 1 if args.smoke else FULL_REPEATS
    results = []
    manifests = []
    for name, sample in lakes:
        result, run_manifests = bench_lake(name, sample, repeats)
        results.append(result)
        manifests.extend(run_manifests)
    summary = {
        "benchmark": "selection_kernels",
        "mode": "smoke" if args.smoke else "full",
        "lakes": results,
        "all_rankings_identical": all(r["identical_rankings"] for r in results),
    }
    written = summary_path(SUMMARY_PATH, args.smoke)
    write_summary(written, summary, manifests)

    for r in results:
        on, off = r["kernels_on"], r["kernels_off"]
        print(
            f"{r['dataset']:<12} features={on['features_ranked']:<5} "
            f"codes cached {on['codes_cached']} / reused {on['codes_reused']} "
            f"fallbacks {on['scalar_fallbacks']} "
            f"fs time {off['feature_selection_seconds']:.3f}s -> "
            f"{on['feature_selection_seconds']:.3f}s ({r['speedup']:.2f}x) "
            f"parity={'ok' if r['identical_rankings'] else 'BROKEN'}"
        )
    print(f"summary -> {written}")

    if not summary["all_rankings_identical"]:
        print(
            "ERROR: kernels-on and kernels-off discovery disagree", file=sys.stderr
        )
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
