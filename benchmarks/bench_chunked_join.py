"""Dictionary-encoded join kernels + chunked out-of-core execution benchmark.

Three gated measurements back the PR-7 tentpole:

* **kernel** — ``JoinIndex.build`` + ``probe`` over every usable edge of a
  covertype-scale lake, scalar path vs dictionary-encoded path.  Gate:
  bit-identical build tables and probe gathers, and encoded build+probe at
  least ``MIN_SPEEDUP``× faster.
* **discovery parity** — full ``AutoFeat.discover`` with
  ``enable_dict_keys`` on vs off: ranked paths must be bit-identical.
* **bounded memory** — a synthetic lake whose hop outputs exceed
  ``memory_budget_bytes`` runs chunked end to end; the gate demands
  nonzero spill counters (partitions actually went to disk) and a
  successful, parity-clean completion.

Usage::

    PYTHONPATH=src python benchmarks/bench_chunked_join.py [--smoke]

Writes ``BENCH_chunked_join.json`` (manifests embedded) at the repo root
and exits non-zero if any gate fails, so CI can gate on it.
With ``--smoke`` the summary goes to a temp dir instead: the tracked file is
only ever written by a full run.
"""

from __future__ import annotations

import argparse
import sys
import time
from pathlib import Path

import numpy as np

from _util import assert_no_failures, summary_path, write_summary

from repro.core import AutoFeat, AutoFeatConfig
from repro.dataframe import DType, JoinIndex
from repro.datasets import build_dataset, datalake_drg, make_classification, split_into_lake
from repro.datasets.splitter import SplitPlan
from repro.engine import qualified

REPO_ROOT = Path(__file__).resolve().parent.parent
SUMMARY_PATH = REPO_ROOT / "BENCH_chunked_join.json"

#: Required build+probe speedup of the encoded kernels over scalar.
MIN_SPEEDUP = 2.0


def table_fingerprint(table):
    out = []
    for name in table.column_names:
        column = table.column(name)
        if column.dtype is DType.STRING:
            payload = tuple(
                None if m else v for v, m in zip(column.values, column.mask)
            )
        else:
            payload = tuple(
                None if m else v
                for v, m in zip(column.values.tolist(), column.mask)
            )
        out.append((name, column.dtype.name, payload))
    return tuple(out)


def ranking_fingerprint(discovery):
    return [
        (r.path.describe(), r.score, r.selected_features)
        for r in discovery.ranked_paths
    ]


def _lake_edges(bundle, drg):
    """Every (probe column, right table, key column) pair of the lake."""
    base = drg.table(bundle.base_name)
    edges = []
    for tname in drg.table_names:
        if tname == bundle.base_name:
            continue
        for edge in drg.best_join_options(bundle.base_name, tname):
            key_column = qualified(edge.target, edge.target_column)
            right = drg.table(edge.target).prefixed(edge.target)
            if key_column in right and edge.source_column in base:
                edges.append((base.column(edge.source_column), right, key_column))
    return edges


def bench_kernels(dataset: str, reps: int) -> dict:
    """Build+probe over every usable lake edge, scalar vs encoded."""
    bundle = build_dataset(dataset)
    drg = datalake_drg(bundle)
    edges = _lake_edges(bundle, drg)

    def run(use_dict_keys: bool) -> tuple[float, list]:
        best = float("inf")
        gathers = []
        for _ in range(reps):
            gathers = []
            started = time.perf_counter()
            for probe, right, key_column in edges:
                index = JoinIndex.build(
                    right, key_column, seed=0, use_dict_keys=use_dict_keys
                )
                gathers.append((index, index.probe(probe)))
            best = min(best, time.perf_counter() - started)
        return best, gathers

    scalar_seconds, scalar_runs = run(False)
    encoded_seconds, encoded_runs = run(True)
    parity = all(
        np.array_equal(gs, ge)
        and table_fingerprint(s.build_table) == table_fingerprint(e.build_table)
        for (s, gs), (e, ge) in zip(scalar_runs, encoded_runs)
    )
    speedup = scalar_seconds / max(encoded_seconds, 1e-9)
    return {
        "dataset": dataset,
        "edges": len(edges),
        "reps": reps,
        "scalar_seconds": round(scalar_seconds, 5),
        "encoded_seconds": round(encoded_seconds, 5),
        "speedup": round(speedup, 2),
        "bit_identical": parity,
    }


def bench_discovery_parity(dataset: str, sample_size: int) -> tuple[dict, list]:
    """Full discover with dict keys on vs off; rankings must agree."""
    bundle = build_dataset(dataset)
    drg = datalake_drg(bundle)
    runs = {}
    fingerprints = {}
    manifests = []
    for encoded in (False, True):
        config = AutoFeatConfig(
            sample_size=sample_size, enable_dict_keys=encoded, seed=0
        )
        autofeat = AutoFeat(drg, config)
        started = time.perf_counter()
        discovery = autofeat.discover(bundle.base_name, bundle.label_column)
        seconds = time.perf_counter() - started
        assert_no_failures(discovery)
        manifests.append(discovery.run_manifest)
        key = "encoded" if encoded else "scalar"
        runs[key] = {
            "discovery_seconds": round(seconds, 4),
            "n_paths_ranked": len(discovery.ranked_paths),
            **discovery.engine_stats.as_dict(),
        }
        fingerprints[key] = ranking_fingerprint(discovery)
    return {
        "dataset": dataset,
        "sample_size": sample_size,
        "scalar": runs["scalar"],
        "encoded": runs["encoded"],
        "identical_rankings": fingerprints["scalar"] == fingerprints["encoded"],
        "discovery_speedup": round(
            runs["scalar"]["discovery_seconds"]
            / max(runs["encoded"]["discovery_seconds"], 1e-9),
            3,
        ),
    }, manifests


def bench_bounded_memory(
    n_rows: int, chunk_rows: int, memory_budget_bytes: int
) -> tuple[dict, list]:
    """Discovery over a lake whose hop outputs exceed the memory budget.

    ``sample_size=n_rows`` keeps every hop at full height, so the chunked
    executor engages and must spill; the scalar in-core reference run
    certifies bit-identical rankings.
    """
    flat = make_classification(
        n_rows=n_rows, n_informative=5, n_redundant=2, n_noise=2, seed=11
    )
    plan = SplitPlan(
        name=f"spill{n_rows}",
        n_satellites=3,
        n_base_features=2,
        max_depth=1,
        match_rate_range=(0.9, 1.0),
        seed=11,
    )
    bundle = split_into_lake(flat, plan)
    drg = bundle.benchmark_drg()
    base_config = AutoFeatConfig(sample_size=n_rows, seed=0)

    reference = AutoFeat(drg, base_config).discover(
        bundle.base_name, bundle.label_column
    )
    chunked_config = base_config.with_overrides(
        chunk_rows=chunk_rows, memory_budget_bytes=memory_budget_bytes
    )
    started = time.perf_counter()
    chunked = AutoFeat(drg, chunked_config).discover(
        bundle.base_name, bundle.label_column
    )
    seconds = time.perf_counter() - started
    assert_no_failures(reference, chunked)
    stats = chunked.engine_stats
    return {
        "n_rows": n_rows,
        "chunk_rows": chunk_rows,
        "memory_budget_bytes": memory_budget_bytes,
        "chunked_seconds": round(seconds, 4),
        "chunks_executed": stats.chunks_executed,
        "partitions_spilled": stats.partitions_spilled,
        "spill_bytes_written": stats.spill_bytes_written,
        "spill_bytes_read": stats.spill_bytes_read,
        "peak_resident_bytes": stats.peak_resident_bytes,
        "within_budget": stats.peak_resident_bytes
        <= memory_budget_bytes + chunk_rows * 512,
        "identical_rankings": ranking_fingerprint(reference)
        == ranking_fingerprint(chunked),
    }, [reference.run_manifest, chunked.run_manifest]


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--smoke",
        action="store_true",
        help="small sizes; the fast configuration scripts/check.sh runs",
    )
    args = parser.parse_args(argv)

    if args.smoke:
        kernel_datasets, reps = ["covertype"], 3
        parity_lakes = [("covertype", 300)]
        bounded_args = (20_000, 4_096, 512 * 1024)
    else:
        kernel_datasets, reps = ["credit", "covertype", "jannis"], 5
        parity_lakes = [("covertype", 1000), ("jannis", 1000)]
        bounded_args = (100_000, 8_192, 2 * 1024 * 1024)

    kernels = [bench_kernels(name, reps) for name in kernel_datasets]
    parity_results = []
    manifests = []
    for name, sample in parity_lakes:
        result, run_manifests = bench_discovery_parity(name, sample)
        parity_results.append(result)
        manifests.extend(run_manifests)
    bounded, bounded_manifests = bench_bounded_memory(*bounded_args)
    manifests.extend(bounded_manifests)

    gates = {
        "kernel_bit_identical": all(k["bit_identical"] for k in kernels),
        "kernel_speedup_ok": all(k["speedup"] >= MIN_SPEEDUP for k in kernels),
        "discovery_rankings_identical": all(
            r["identical_rankings"] for r in parity_results
        ),
        "bounded_run_spilled": bounded["partitions_spilled"] > 0
        and bounded["spill_bytes_written"] > 0
        and bounded["chunks_executed"] > 0,
        "bounded_rankings_identical": bounded["identical_rankings"],
    }
    summary = {
        "benchmark": "chunked_join",
        "mode": "smoke" if args.smoke else "full",
        "min_speedup": MIN_SPEEDUP,
        "kernels": kernels,
        "discovery_parity": parity_results,
        "bounded_memory": bounded,
        "gates": gates,
    }
    written = summary_path(SUMMARY_PATH, args.smoke)
    write_summary(written, summary, manifests)

    for k in kernels:
        print(
            f"kernel {k['dataset']:<12} {k['edges']} edges "
            f"{k['scalar_seconds']:.4f}s -> {k['encoded_seconds']:.4f}s "
            f"({k['speedup']:.1f}x, need >={MIN_SPEEDUP}x) "
            f"parity={'ok' if k['bit_identical'] else 'BROKEN'}"
        )
    for r in parity_results:
        print(
            f"discover {r['dataset']:<10} encoded {r['discovery_speedup']:.2f}x "
            f"parity={'ok' if r['identical_rankings'] else 'BROKEN'}"
        )
    print(
        f"bounded  {bounded['n_rows']} rows, budget "
        f"{bounded['memory_budget_bytes']} B: "
        f"{bounded['chunks_executed']} chunks, "
        f"{bounded['partitions_spilled']} spilled "
        f"({bounded['spill_bytes_written']} B), peak resident "
        f"{bounded['peak_resident_bytes']} B, "
        f"parity={'ok' if bounded['identical_rankings'] else 'BROKEN'}"
    )
    print(f"summary -> {written}")

    failed = [name for name, ok in gates.items() if not ok]
    if failed:
        print(f"ERROR: gates failed: {', '.join(failed)}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
