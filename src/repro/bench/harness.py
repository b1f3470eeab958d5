"""Experiment runner shared by all figure/table benchmarks.

A :class:`BenchProfile` fixes the experiment scale (datasets, models, MAB
budget); ``quick`` is sized for CI-style runs, ``full`` for the complete
Table II matrix.  :func:`compare_methods` produces one Figure 4/6-style
result row per (dataset, method, model).
"""

from __future__ import annotations

from dataclasses import dataclass, field

from ..baselines import (
    BaselineResult,
    run_arda,
    run_autofeat,
    run_base,
    run_join_all,
    run_mab,
)
from ..core import AutoFeatConfig
from ..datasets import DATASETS, LakeBundle, benchmark_drg, build_dataset, datalake_drg
from ..errors import JoinError
from ..graph import DatasetRelationGraph
from .manifests import require_valid_manifest

__all__ = ["BenchProfile", "compare_methods", "build_setting", "ALL_METHODS"]

ALL_METHODS = ("BASE", "ARDA", "MAB", "JoinAll", "JoinAll+F", "AutoFeat")


@dataclass(frozen=True)
class BenchProfile:
    """Scale knobs for one benchmark invocation."""

    datasets: tuple[str, ...]
    models: tuple[str, ...] = ("lightgbm", "xgboost")
    methods: tuple[str, ...] = ALL_METHODS
    mab_budget: int = 10
    seed: int = 1
    config: AutoFeatConfig = field(default_factory=AutoFeatConfig)

    @staticmethod
    def quick() -> "BenchProfile":
        """Small profile: three datasets, two tree models."""
        return BenchProfile(datasets=("credit", "eyemove", "steel"))

    @staticmethod
    def full() -> "BenchProfile":
        """The whole Table II matrix with all four tree models."""
        return BenchProfile(
            datasets=tuple(DATASETS),
            models=("lightgbm", "xgboost", "random_forest", "extra_trees"),
        )


def build_setting(bundle: LakeBundle, setting: str) -> DatasetRelationGraph:
    """Build the DRG for ``"benchmark"`` or ``"datalake"``."""
    if setting == "benchmark":
        return benchmark_drg(bundle)
    if setting == "datalake":
        return datalake_drg(bundle)
    raise ValueError(f"unknown setting {setting!r}")


def run_method(
    method: str,
    drg: DatasetRelationGraph,
    bundle: LakeBundle,
    model: str,
    profile: BenchProfile,
) -> BaselineResult | None:
    """Run one method; None when infeasible (JoinAll explosion)."""
    base, label = bundle.base_name, bundle.label_column
    seed = profile.seed
    if method == "BASE":
        return run_base(bundle.base_table, label, model, seed=seed)
    if method == "ARDA":
        return run_arda(drg, base, label, model, seed=seed)
    if method == "MAB":
        return run_mab(drg, base, label, model, budget=profile.mab_budget, seed=seed)
    if method == "JoinAll":
        try:
            return run_join_all(drg, base, label, model, seed=seed)
        except JoinError:
            return None
    if method == "JoinAll+F":
        try:
            return run_join_all(drg, base, label, model, with_filter=True, seed=seed)
        except JoinError:
            return None
    if method == "AutoFeat":
        return run_autofeat(drg, base, label, model, config=profile.config, seed=seed)
    raise ValueError(f"unknown method {method!r}")


def compare_methods(
    profile: BenchProfile,
    setting: str,
    methods: tuple[str, ...] | None = None,
) -> list[dict]:
    """Figure 4/6-style comparison: one row per (dataset, method, model).

    In the data-lake setting the JoinAll baselines are skipped outright
    (their ordering count explodes — the paper's figures omit them too);
    other infeasible runs are recorded with ``accuracy=None``.

    Every feasible run must carry a valid run manifest with non-negative
    per-stage timings — rows are refused otherwise — and each row's
    ``stages`` column carries the manifest's stage breakdown.
    """
    methods = methods or profile.methods
    if setting == "datalake":
        methods = tuple(m for m in methods if not m.startswith("JoinAll"))
    rows: list[dict] = []
    for dataset in profile.datasets:
        bundle = build_dataset(dataset)
        drg = build_setting(bundle, setting)
        for model in profile.models:
            for method in methods:
                result = run_method(method, drg, bundle, model, profile)
                if result is None:
                    rows.append(
                        {
                            "dataset": dataset,
                            "setting": setting,
                            "method": method,
                            "model": model,
                            "accuracy": None,
                            "fs_seconds": None,
                            "total_seconds": None,
                            "joined_tables": None,
                            "features": None,
                            "status": "infeasible",
                        }
                    )
                    continue
                report = result.failure_report
                if report is not None and not report.ok:
                    # Figures must come from complete runs: a silently
                    # degraded result (skipped paths) would corrupt the
                    # comparison rather than fail it.
                    raise AssertionError(
                        f"{method} on {dataset!r} ({model}) recorded "
                        f"failures: {report.describe()}"
                    )
                manifest = result.run_manifest
                require_valid_manifest(
                    manifest, context=f"{method} on {dataset!r} ({model})"
                )
                row = result.row()
                row["dataset"] = dataset
                row["setting"] = setting
                row["status"] = "ok"
                row["stages"] = manifest.stage_summary()
                rows.append(row)
    return rows


def average_by_method(rows: list[dict], value: str = "accuracy") -> list[dict]:
    """Aggregate comparison rows into per-method means (feasible runs)."""
    buckets: dict[str, list[float]] = {}
    for row in rows:
        if row.get(value) is None:
            continue
        buckets.setdefault(row["method"], []).append(float(row[value]))
    return [
        {"method": method, f"mean_{value}": sum(vals) / len(vals), "runs": len(vals)}
        for method, vals in buckets.items()
    ]
