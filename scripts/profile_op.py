#!/usr/bin/env python3
"""Profile one op of an end-to-end benchmark workload.

    python scripts/profile_op.py --workload dense_discover [--seed 0] [--top 25]

Builds the workload exactly as ``benchmarks/e2e/run.py`` does (its
``workloads.py`` is imported, not copied), runs one warm-up op, prints the
min / median wall time of 5 untraced ops, then a cProfile of one more op
sorted by cumulative and by own time.  cProfile inflates call-heavy Python
and not native code, so use it to find candidates and the untraced times —
or the benchmark itself — to measure them.
"""

from __future__ import annotations

import argparse
import cProfile
import os
import pstats
import statistics
import sys
import time
from pathlib import Path

# Same pinning as benchmarks/e2e/run.py; must precede the numpy import.
for _name in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_name] = "1"

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "benchmarks" / "e2e")]

UNTRACED_OPS = 5


def main() -> int:
    from workloads import WORKLOADS

    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--top", type=int, default=25, help="profile rows per table")
    args = parser.parse_args()

    workload = WORKLOADS[args.workload]
    lake = workload.build(args.seed, False)
    state = workload.prepare(lake, args.seed)
    try:
        workload.op(lake, state)  # warm-up
        walls = []
        for _ in range(UNTRACED_OPS):
            start = time.perf_counter()
            workload.op(lake, state)
            walls.append(time.perf_counter() - start)
        print(
            f"{args.workload} seed {args.seed}: {UNTRACED_OPS} untraced ops, "
            f"min {min(walls):.3f} s, median {statistics.median(walls):.3f} s"
        )
        profiler = cProfile.Profile()
        profiler.runcall(workload.op, lake, state)
    finally:
        workload.teardown(state)
    stats = pstats.Stats(profiler).strip_dirs()
    for order in ("cumulative", "tottime"):
        stats.sort_stats(order).print_stats(args.top)
    return 0


if __name__ == "__main__":
    sys.exit(main())
