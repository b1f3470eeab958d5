"""Adapter exposing AutoFeat through the common baseline interface.

Lets the benchmark harness treat AutoFeat and the baselines uniformly:
every method is a function ``(drg, base, label, model, seed) ->
BaselineResult``.
"""

from __future__ import annotations

from ..core import AutoFeat, AutoFeatConfig
from ..graph import DatasetRelationGraph
from .common import BaselineResult

__all__ = ["run_autofeat"]


def run_autofeat(
    drg: DatasetRelationGraph,
    base_name: str,
    label_column: str,
    model_name: str = "lightgbm",
    config: AutoFeatConfig | None = None,
    seed: int = 0,
    hop_hook=None,
) -> BaselineResult:
    """Run the full AutoFeat pipeline and normalise its result record.

    The combined discovery+training failure accounting lands on the
    result's ``failure_report``.
    """
    config = (config or AutoFeatConfig()).with_overrides(seed=seed)
    result = AutoFeat(drg, config, hop_hook=hop_hook).augment(
        base_name, label_column, model_name
    )
    best = result.best
    return BaselineResult(
        method="AutoFeat",
        dataset=base_name,
        model_name=model_name,
        accuracy=result.accuracy,
        feature_selection_seconds=result.discovery.feature_selection_seconds,
        total_seconds=result.total_seconds,
        n_joined_tables=result.n_joined_tables,
        n_features_used=best.n_features_used if best else 0,
        engine_stats=result.combined_engine_stats,
        selection_stats=result.discovery.selection_stats,
        failure_report=result.combined_failure_report,
        run_manifest=result.run_manifest,
    )
