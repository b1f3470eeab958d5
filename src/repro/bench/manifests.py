"""Shared manifest/summary gates for benchmarks and experiments.

Every published number in this repo — a ``BENCH_*.json`` figure, a
``compare_methods`` row, or a trial in the experiment store — must come
from a *complete* run certified by a valid :class:`repro.obs.RunManifest`
with non-negative per-stage timings.  The checks enforcing that contract
used to be copy-pasted between ``benchmarks/_util.py`` and
``repro.bench.harness``; they live here once, consumed by both and by
:mod:`repro.exp.store`.
"""

from __future__ import annotations

import json
from pathlib import Path

from ..obs import RunManifest, validate_manifest

__all__ = [
    "manifest_problems",
    "require_valid_manifest",
    "failure_reports",
    "assert_no_failures",
    "write_summary",
    "stage_seconds_of",
]


def _as_manifest_dict(manifest) -> dict:
    """Accept a :class:`RunManifest` or an already-serialised dict."""
    if hasattr(manifest, "as_dict"):
        return manifest.as_dict()
    return dict(manifest)


def stage_seconds_of(manifest) -> dict[str, float]:
    """:meth:`repro.obs.RunManifest.stage_seconds` of a manifest, also in
    the plain-dict form the experiment store round-trips from disk."""
    if not hasattr(manifest, "stage_seconds"):
        manifest = RunManifest.from_dict(manifest)
    return manifest.stage_seconds()


def manifest_problems(manifest) -> list[str]:
    """Everything wrong with a run manifest (empty list = publishable).

    A missing manifest, schema violations, an empty stage breakdown and
    negative stage timings are each a reason a figure or stored trial
    must be refused: they all mean the observability layer was bypassed
    or mis-assembled.
    """
    if manifest is None:
        return [
            "run carries no run_manifest; figures must record "
            "per-stage timings"
        ]
    data = _as_manifest_dict(manifest)
    errors = validate_manifest(data)
    if errors:
        return [f"invalid run manifest: {'; '.join(errors)}"]
    stages = stage_seconds_of(data)
    if not stages:
        return ["run manifest has no stage timings"]
    negative = {name: s for name, s in stages.items() if s < 0}
    if negative:
        return [f"run manifest has negative stage timings: {negative}"]
    return []


def require_valid_manifest(manifest, context: str = "") -> None:
    """Raise :class:`AssertionError` when :func:`manifest_problems` is non-empty."""
    problems = manifest_problems(manifest)
    if problems:
        prefix = f"{context}: " if context else ""
        raise AssertionError(prefix + "; ".join(problems))


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

    Under the default ``skip_and_record`` policy a run that hits join
    failures still returns — with paths silently missing from its numbers.
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
