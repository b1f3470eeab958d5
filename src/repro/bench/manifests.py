"""Shared manifest/summary gates for the benchmarks.

Every published number in this repo — a ``BENCH_*.json`` figure or a
``compare_methods`` row — must come from a *complete* run certified by a
valid :class:`repro.obs.RunManifest` with non-negative per-stage timings.
The checks enforcing that contract live here once, consumed by
``repro.bench.harness`` and (re-exported) by ``benchmarks/_util.py``.
"""

from __future__ import annotations

import json
from pathlib import Path

from ..obs import validate_manifest

__all__ = [
    "require_valid_manifest",
    "failure_reports",
    "assert_no_failures",
    "write_summary",
]


def _as_manifest_dict(manifest) -> dict:
    """Accept a :class:`RunManifest` or an already-serialised dict."""
    if hasattr(manifest, "as_dict"):
        return manifest.as_dict()
    return dict(manifest)


def require_valid_manifest(manifest, context: str = "") -> None:
    """Raise :class:`AssertionError` unless ``manifest`` is publishable.

    A missing manifest, or one :func:`repro.obs.validate_manifest` rejects,
    means the observability layer was bypassed or mis-assembled, so the
    figure built on the run is refused.  The validator already requires a
    non-empty timing tree whose every span lasts ``>= 0`` ns, so a manifest
    that passes has a non-empty, non-negative stage breakdown.
    """
    if manifest is None:
        problem = "run carries no run_manifest; figures must record per-stage timings"
    else:
        errors = validate_manifest(_as_manifest_dict(manifest))
        if not errors:
            return
        problem = f"invalid run manifest: {'; '.join(errors)}"
    prefix = f"{context}: " if context else ""
    raise AssertionError(prefix + problem)


def failure_reports(result) -> list:
    """Every failure report a result carries (its own plus discovery's)."""
    reports = []
    report = getattr(result, "failure_report", None)
    if report is not None:
        reports.append(report)
    discovery = getattr(result, "discovery", None)
    if discovery is not None:
        inner = getattr(discovery, "failure_report", None)
        if inner is not None:
            reports.append(inner)
    return reports


def assert_no_failures(*results) -> None:
    """Fail loudly when a benchmark run degraded instead of completing.

    A run that hits join failures skips and records them and still
    returns — with paths silently missing from its numbers.
    Benchmark figures must come from complete runs, so every result's
    ``failure_report`` (and, for AutoFeat results, the discovery-phase
    report underneath) must be empty.  Results that carry a
    ``run_manifest`` must additionally carry valid, non-negative per-stage
    timings in it.
    """
    for result in results:
        if result is None:
            continue
        for report in failure_reports(result):
            if not report.ok:
                raise AssertionError(
                    f"benchmark run recorded failures: {report.describe()}"
                )
        if hasattr(result, "run_manifest"):
            require_valid_manifest(result.run_manifest, context="benchmark run")


def write_summary(path: Path, summary: dict, manifests=()) -> None:
    """Write one ``BENCH_*.json`` with the runs' manifests embedded.

    Every manifest is re-validated on the way out, so a summary file with
    missing or negative stage timings can never be produced.
    """
    manifests = [m for m in manifests if m is not None]
    for manifest in manifests:
        require_valid_manifest(manifest, context="benchmark run")
    summary = dict(summary)
    summary["run_manifests"] = [_as_manifest_dict(m) for m in manifests]
    Path(path).write_text(json.dumps(summary, indent=2) + "\n")
