"""Shared result type and join helpers for the baseline systems."""

from __future__ import annotations

from dataclasses import dataclass

from ..dataframe import Table
from ..engine import ExecutionStats, FailureReport, FaultManager, JoinEngine
from ..errors import JoinError
from ..graph import DatasetRelationGraph
from ..obs import RunManifest
from ..selection.stats import SelectionStats

__all__ = ["BaselineResult", "join_neighbor"]


@dataclass(frozen=True)
class BaselineResult:
    """Comparable outcome record for every augmentation approach.

    The benchmark harness renders Figures 4-7 from exactly these fields:
    accuracy, feature-selection time vs total time, and the number of
    datasets the method joined to reach its answer.
    """

    method: str
    dataset: str
    model_name: str
    accuracy: float
    feature_selection_seconds: float
    total_seconds: float
    n_joined_tables: int
    n_features_used: int
    #: Join-execution counters of the run (every baseline executes through
    #: the shared :class:`repro.engine.JoinEngine`); None for BASE-style
    #: methods that never join.
    engine_stats: ExecutionStats | None = None
    #: Feature-scoring counters for methods that use the shared selection
    #: layer (AutoFeat, JoinAll+F); None for model-in-the-loop selectors
    #: (ARDA's RIFS, MAB) that never touch it.
    selection_stats: SelectionStats | None = None
    #: Per-run failure accounting under the method's failure policy; None
    #: for BASE-style methods that never join.
    failure_report: FailureReport | None = None
    #: Reproducibility record of the run (timing tree, metrics, config,
    #: dataset fingerprint); every baseline attaches one.
    run_manifest: RunManifest | None = None

    def row(self) -> dict:
        """Flat dict for report tables."""
        return {
            "method": self.method,
            "dataset": self.dataset,
            "model": self.model_name,
            "accuracy": round(self.accuracy, 4),
            "fs_seconds": round(self.feature_selection_seconds, 4),
            "total_seconds": round(self.total_seconds, 4),
            "joined_tables": self.n_joined_tables,
            "features": self.n_features_used,
        }


def join_neighbor(
    current: Table,
    drg: DatasetRelationGraph,
    source: str,
    target: str,
    base_name: str,
    seed: int = 0,
    engine: JoinEngine | None = None,
    faults: FaultManager | None = None,
) -> tuple[Table, list[str]] | None:
    """Join ``target`` onto the running table via the best join option.

    Returns ``(joined, contributed_columns)`` or None when no join option
    exists or the hop failed.  Pass the caller's :class:`JoinEngine` so
    repeated visits to the same target table reuse its build-side index; a
    throwaway engine is used otherwise.  Pass the caller's
    :class:`FaultManager` to run the hop under its failure policy (failed
    hops are then recorded, and ``fail_fast`` propagates instead of
    returning None); without one, infeasible joins are silently skipped.
    """
    options = drg.best_join_options(source, target)
    if not options:
        return None
    if engine is None:
        engine = JoinEngine(drg, seed=seed)

    def hop() -> tuple[Table, list[str]]:
        return engine.apply_hop(current, options[0], base_name)

    if faults is None:
        try:
            return hop()
        except JoinError:
            return None
    return faults.execute(hop, base=base_name, edge=options[0])
