"""Shared helpers for the two micro-benches (``bench_service`` / ``bench_anytime``).

Every ``BENCH_*.json`` summary embeds the run manifests of the runs behind
its numbers, so a summary certifies *how* its numbers were produced
(config, seed, dataset fingerprint, per-stage timings).  The paper tables
and figures are not here: ``python -m repro.bench <id>`` is their one
entry point.

The manifest/summary gates themselves live in
:mod:`repro.bench.manifests` (shared with the harness and the experiment
store); this module re-exports them for the ``bench_*`` scripts plus the
summary-path helper.
"""

from __future__ import annotations

import atexit
import tempfile
from pathlib import Path

from repro.bench.manifests import (  # noqa: F401  (re-exported for bench_* scripts)
    assert_no_failures,
    write_summary,
)


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
