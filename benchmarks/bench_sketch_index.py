"""Sketch-index benchmark: exact-DRG parity + sub-quadratic scaling.

Two segments, both gated:

* **parity** — on paper-style evaluation lakes (the benchmark-named split
  and the renamed data-lake variant), the DRG built through the
  :class:`~repro.discovery.CandidateFilteredMatcher` must be
  **bit-identical** to the full quadratic scan's — same edges, same
  weights, same insertion order — for both exact matchers (COMA and
  value-overlap), and ``verify_exact`` must report candidate recall 1.0;
* **scale** — over synthetic wide lakes
  (:func:`repro.datasets.make_wide_lake`) of 100–2000 tables, the number
  of column pairs handed to the exact scorer must grow sub-quadratically
  (log-log slope vs table count <= 1.5) and undercut the full scan's
  pair count by at least 5x on the 500-table lake; the smallest lake is
  additionally checked for bit-parity against a real quadratic scan.

Usage::

    PYTHONPATH=src python benchmarks/bench_sketch_index.py [--smoke]

Writes a JSON summary (with embedded, validated per-scale run manifests
carrying the ``drg.index_build`` / ``drg.match`` spans) to
``BENCH_sketch_index.json`` at the repo root and exits non-zero if a
gate fails, so CI can gate on it.
With ``--smoke`` the summary goes to a temp dir instead: the tracked file is
only ever written by a full run.
"""

from __future__ import annotations

import argparse
import math
import sys
import time
from pathlib import Path

from _util import summary_path, write_summary

from repro import AutoFeatConfig
from repro.datasets import (
    make_classification,
    make_wide_lake,
    rename_for_lake,
    split_into_lake,
)
from repro.datasets.splitter import SplitPlan
from repro.discovery import (
    CandidateFilteredMatcher,
    ComaMatcher,
    ValueOverlapMatcher,
)
from repro.graph import DatasetRelationGraph
from repro.obs import Tracer, build_manifest

REPO_ROOT = Path(__file__).resolve().parent.parent
SUMMARY_PATH = REPO_ROOT / "BENCH_sketch_index.json"

PRUNE_GATE = 5.0
#: Upper bound on the log-log growth rate of pairs-scored vs tables; a
#: quadratic scan sits at 2.0, the planted join tree at ~1.0.
SLOPE_GATE = 1.5
#: The lake size the >=5x pruning gate is read at (largest size in smoke).
PRUNE_GATE_TABLES = 500

FULL_SIZES = (100, 250, 500, 1000, 2000)
SMOKE_SIZES = (60, 120, 240)


def ordered_edges(drg: DatasetRelationGraph):
    """Every edge with its weight, in adjacency insertion order."""
    return [
        (e.node_a, e.column_a, e.node_b, e.column_b, e.weight)
        for e in drg.graph.all_edges()
    ]


def paper_lakes(smoke: bool):
    """The two paper-setting lakes the parity gate replays."""
    flat = make_classification(
        n_rows=160 if smoke else 320,
        n_informative=5,
        n_redundant=2,
        n_noise=3,
        n_categorical=2,
        seed=11,
    )
    plan = SplitPlan(
        name="sketch-parity",
        n_satellites=5 if smoke else 7,
        n_base_features=2,
        seed=11,
    )
    bundle = split_into_lake(flat, plan)
    return [
        ("benchmark-named", list(bundle.tables)),
        ("datalake-renamed", rename_for_lake(bundle)),
    ]


def parity_segment(smoke: bool) -> list[dict]:
    """Exact-vs-filtered bit parity on the paper lakes, both matchers."""
    rows = []
    for lake_name, tables in paper_lakes(smoke):
        for matcher_name, make_matcher in (
            ("coma", ComaMatcher),
            ("value-overlap", ValueOverlapMatcher),
        ):
            reference = DatasetRelationGraph.from_discovery(
                tables, make_matcher(), threshold=0.55
            )
            wrapped = CandidateFilteredMatcher(make_matcher())
            filtered = DatasetRelationGraph.from_discovery(
                tables, wrapped, threshold=0.55
            )
            recall = wrapped.verify_exact(tables, threshold=0.55)
            rows.append(
                {
                    "lake": lake_name,
                    "matcher": matcher_name,
                    "n_tables": len(tables),
                    "n_edges": reference.n_relationships,
                    "bit_identical": (
                        ordered_edges(reference) == ordered_edges(filtered)
                        and reference.table_names == filtered.table_names
                    ),
                    "fingerprint_equal": (
                        reference.edge_fingerprint()
                        == filtered.edge_fingerprint()
                    ),
                    "recall": recall.recall,
                    "edges_expected": recall.edges_expected,
                    "missed": len(recall.missed),
                    "pairs_considered": wrapped.stats.pairs_considered,
                    "pairs_scored": wrapped.stats.pairs_scored,
                }
            )
    return rows


def scale_segment(sizes, check_exact_at: int):
    """Filtered DRG construction over growing wide lakes, with manifests."""
    config = AutoFeatConfig()
    rows = []
    manifests = []
    for n_tables in sizes:
        lake = make_wide_lake(n_tables, seed=n_tables)
        wrapped = CandidateFilteredMatcher(ComaMatcher())
        tracer = Tracer()
        started = time.perf_counter()
        with tracer.span("bench.sketch_index.scale", n_tables=n_tables):
            drg = DatasetRelationGraph.from_discovery(
                lake.tables, wrapped, threshold=0.55, tracer=tracer
            )
        wall = time.perf_counter() - started

        planted = {
            tuple(edge) for edge in lake.expected_key_edges
        }
        recovered = {
            (a, ca, b, cb) for a, ca, b, cb, _ in drg.edge_fingerprint()
        }
        stats = wrapped.stats
        row = {
            "n_tables": n_tables,
            "n_columns": lake.n_columns,
            "n_edges": drg.n_relationships,
            "planted_edges": len(planted),
            "planted_recovered": planted <= recovered,
            "pairs_considered": stats.pairs_considered,
            "pairs_scored": stats.pairs_scored,
            "candidates_pruned": stats.candidates_pruned,
            "prune_ratio": round(stats.prune_ratio, 6),
            "index_build_seconds": round(
                tracer.total_seconds("drg.index_build"), 4
            ),
            "match_seconds": round(tracer.total_seconds("drg.match"), 4),
            "wall_seconds": round(wall, 4),
        }
        if n_tables == check_exact_at:
            reference = DatasetRelationGraph.from_discovery(
                lake.tables, ComaMatcher(), threshold=0.55
            )
            row["exact_bit_identical"] = (
                ordered_edges(reference) == ordered_edges(drg)
                and reference.table_names == drg.table_names
            )
        manifests.append(
            build_manifest(
                "bench.sketch_index.scale",
                tracer=tracer,
                records=[stats],
                config=config,
                dataset=lake.tables,
                seed=n_tables,
                wall_seconds=wall,
            )
        )
        rows.append(row)
        print(
            f"  {n_tables:5d} tables  {lake.n_columns:6d} cols  "
            f"considered {stats.pairs_considered:>10d}  "
            f"scored {stats.pairs_scored:>7d}  "
            f"({stats.pairs_considered / max(stats.pairs_scored, 1):7.1f}x)  "
            f"{wall:7.2f}s"
        )
    return rows, manifests


def loglog_slope(points: list[tuple[int, int]]) -> float:
    """Least-squares slope of log(pairs_scored) against log(n_tables)."""
    xs = [math.log(n) for n, _ in points]
    ys = [math.log(max(scored, 1)) for _, scored in points]
    mean_x = sum(xs) / len(xs)
    mean_y = sum(ys) / len(ys)
    denom = sum((x - mean_x) ** 2 for x in xs)
    if denom == 0.0:
        return 0.0
    return sum(
        (x - mean_x) * (y - mean_y) for x, y in zip(xs, ys)
    ) / denom


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--smoke",
        action="store_true",
        help="smaller lakes; same gates — what scripts/check.sh runs",
    )
    args = parser.parse_args(argv)

    print("parity (paper lakes):")
    parity_rows = parity_segment(args.smoke)
    for row in parity_rows:
        print(
            f"  {row['lake']:>17s} x {row['matcher']:<13s} "
            f"edges {row['n_edges']:3d}  bit-identical "
            f"{row['bit_identical']}  recall {row['recall']:.3f}"
        )

    sizes = SMOKE_SIZES if args.smoke else FULL_SIZES
    gate_tables = sizes[-1] if args.smoke else PRUNE_GATE_TABLES
    print("scale (wide lakes):")
    scale_rows, manifests = scale_segment(sizes, check_exact_at=sizes[0])

    slope = loglog_slope(
        [(row["n_tables"], row["pairs_scored"]) for row in scale_rows]
    )
    gate_row = next(r for r in scale_rows if r["n_tables"] == gate_tables)
    prune_factor = gate_row["pairs_considered"] / max(
        gate_row["pairs_scored"], 1
    )

    parity_ok = all(
        row["bit_identical"]
        and row["fingerprint_equal"]
        and row["recall"] == 1.0
        for row in parity_rows
    )
    scale_exact_ok = all(
        row.get("exact_bit_identical", True) for row in scale_rows
    )
    planted_ok = all(row["planted_recovered"] for row in scale_rows)

    summary = {
        "benchmark": "sketch_index",
        "mode": "smoke" if args.smoke else "full",
        "parity": parity_rows,
        "scale": scale_rows,
        "pairs_scored_loglog_slope": round(slope, 4),
        "slope_gate": SLOPE_GATE,
        "prune_factor_at_gate": round(prune_factor, 2),
        "prune_gate": PRUNE_GATE,
        "prune_gate_tables": gate_tables,
        "gates": {
            "paper_lake_parity": parity_ok,
            "scale_exact_parity": scale_exact_ok,
            "planted_edges_recovered": planted_ok,
            "sub_quadratic_slope": slope <= SLOPE_GATE,
            "prune_factor": prune_factor >= PRUNE_GATE,
        },
    }
    written = summary_path(SUMMARY_PATH, args.smoke)
    write_summary(written, summary, manifests)

    print(
        f"pairs-scored slope {slope:.3f} (gate <= {SLOPE_GATE}), "
        f"pruning {prune_factor:.1f}x at {gate_tables} tables "
        f"(gate >= {PRUNE_GATE}x)"
    )
    print(f"summary -> {written}")

    failed = [name for name, ok in summary["gates"].items() if not ok]
    for name in failed:
        print(f"ERROR: gate {name} failed", file=sys.stderr)
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
