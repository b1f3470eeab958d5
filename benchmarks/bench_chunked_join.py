"""Chunked out-of-core join execution benchmark: the bounded-memory run.

A synthetic lake whose hop outputs exceed ``memory_budget_bytes`` is
discovered chunked end to end; the gates demand nonzero spill counters
(partitions actually went to disk) and rankings bit-identical to the
in-core run of the same lake.

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

from _util import assert_no_failures, summary_path, write_summary

from repro.core import AutoFeat, AutoFeatConfig
from repro.datasets import make_classification, split_into_lake
from repro.datasets.splitter import SplitPlan

REPO_ROOT = Path(__file__).resolve().parent.parent
SUMMARY_PATH = REPO_ROOT / "BENCH_chunked_join.json"


def ranking_fingerprint(discovery):
    return [
        (r.path.describe(), r.score, r.selected_features)
        for r in discovery.ranked_paths
    ]


def bench_bounded_memory(
    n_rows: int, chunk_rows: int, memory_budget_bytes: int
) -> tuple[dict, list]:
    """Discovery over a lake whose hop outputs exceed the memory budget.

    ``sample_size=n_rows`` keeps every hop at full height, so the chunked
    executor engages and must spill; the in-core reference run certifies
    bit-identical rankings.
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
        bounded_args = (20_000, 4_096, 512 * 1024)
    else:
        bounded_args = (100_000, 8_192, 2 * 1024 * 1024)
    bounded, manifests = bench_bounded_memory(*bounded_args)

    gates = {
        "bounded_run_spilled": bounded["partitions_spilled"] > 0
        and bounded["spill_bytes_written"] > 0
        and bounded["chunks_executed"] > 0,
        "bounded_rankings_identical": bounded["identical_rankings"],
    }
    summary = {
        "benchmark": "chunked_join",
        "mode": "smoke" if args.smoke else "full",
        "bounded_memory": bounded,
        "gates": gates,
    }
    written = summary_path(SUMMARY_PATH, args.smoke)
    write_summary(written, summary, manifests)

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
