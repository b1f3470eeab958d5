"""BASE — the unaugmented base table (paper Section VII-B).

The floor every augmentation method is measured against: train the target
model on the base table's own features only.
"""

from __future__ import annotations

from ..dataframe import Table
from ..ml import evaluate_accuracy
from ..obs import Tracer, build_manifest
from .common import BaselineResult

__all__ = ["run_base"]


def run_base(
    base_table: Table,
    label_column: str,
    model_name: str = "lightgbm",
    seed: int = 0,
) -> BaselineResult:
    """Evaluate the base table as-is (no augmentation, no selection)."""
    tracer = Tracer()
    with tracer.span("base", dataset=base_table.name, model=model_name) as root:
        with tracer.span("evaluate", model=model_name):
            acc = evaluate_accuracy(base_table, label_column, model_name, seed=seed)
    elapsed = root.seconds
    manifest = build_manifest(
        "base",
        tracer=tracer,
        dataset=[base_table],
        seed=seed,
        wall_seconds=elapsed,
    )
    return BaselineResult(
        method="BASE",
        dataset=base_table.name,
        model_name=model_name,
        accuracy=acc,
        feature_selection_seconds=0.0,
        total_seconds=elapsed,
        n_joined_tables=0,
        n_features_used=base_table.n_cols - 1,
        run_manifest=manifest,
    )
