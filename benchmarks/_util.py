"""Shared helpers for the figure/table benchmarks.

Each benchmark regenerates one paper artefact, prints the rows and also
persists them under ``benchmarks/results/`` so the output survives
pytest's output capture (EXPERIMENTS.md is written from these files).
Every ``BENCH_*.json`` summary also embeds the run manifests of the runs
behind its figures, so a summary certifies *how* its numbers were
produced (config, seed, dataset fingerprint, per-stage timings).

The manifest/summary gates themselves live in
:mod:`repro.bench.manifests` (shared with the harness and the experiment
store); this module re-exports them for the ``bench_*`` scripts plus the
benchmark-only output helpers.
"""

from __future__ import annotations

import atexit
import tempfile
from pathlib import Path

from repro.bench.manifests import (  # noqa: F401  (re-exported for bench_* scripts)
    assert_no_failures,
    manifest_problems,
    require_valid_manifest,
    write_summary,
)

RESULTS_DIR = Path(__file__).parent / "results"


def summary_path(tracked: Path, smoke: bool) -> Path:
    """Where a ``bench_*`` script writes its ``BENCH_*.json`` summary.

    Full runs write the tracked file at the repo root.  Smoke runs are
    gates, not measurements: their summary still goes through
    :func:`write_summary` (so the manifest gates apply) but lands in a
    temp dir removed at exit, never over a committed full-mode record.
    """
    if not smoke:
        return tracked
    scratch = tempfile.TemporaryDirectory(prefix="repro-bench-smoke-")
    atexit.register(scratch.cleanup)
    return Path(scratch.name) / tracked.name


def emit(name: str, text: str) -> None:
    """Print a rendered table and persist it to benchmarks/results/."""
    print(f"\n{text}\n")
    RESULTS_DIR.mkdir(exist_ok=True)
    (RESULTS_DIR / f"{name}.txt").write_text(text + "\n")


def run_once(benchmark, fn):
    """Time ``fn`` exactly once through pytest-benchmark.

    These experiments take seconds to minutes; repeated rounds would add
    nothing but wall-clock, so every figure benchmark is pedantic(1, 1).
    """
    return benchmark.pedantic(fn, rounds=1, iterations=1)
