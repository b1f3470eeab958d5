"""Shared result type and join helpers for the baseline systems.

A baseline's running join is a chain of row maps, as in
:meth:`repro.engine.JoinEngine.materialize_path`: ``links`` maps each
joined table to its hop's build table and the row map aligning that
table's rows with the base rows — ``(base, None)`` for the base itself.
A hop out of a joined table reads the key from that table by its exact
qualified name, so a table's own ``k_r`` column is never mistaken for its
key ``k`` written as ``k_r``.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..dataframe import Table
from ..engine import ExecutionStats, FailureReport, FaultManager, JoinEngine
from ..graph import DatasetRelationGraph, OrientedEdge
from ..obs import RunManifest
from ..selection.stats import SelectionStats

__all__ = ["BaselineResult", "join_hop", "join_neighbor"]


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
    #: Per-run failure accounting; None for BASE-style methods that never
    #: join.
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


def join_hop(
    engine: JoinEngine, current: Table, links: dict, edge: OrientedEdge, base_name: str
) -> tuple[Table, tuple]:
    """Left-join ``edge``'s target onto ``current`` along its source's link.

    Returns ``(joined, link)``, ``link`` the target's ``(build table, row
    map)``; the caller records it once it keeps the join.  Raises what
    :meth:`JoinEngine.probe_hop` raises.
    """
    source, row_map = links[edge.source]
    index, row_map = engine.probe_hop(source, edge, base_name, row_map=row_map)
    return index.attach(current, row_map), (index.build_table, row_map)


def join_neighbor(
    current: Table,
    links: dict,
    drg: DatasetRelationGraph,
    source: str,
    target: str,
    base_name: str,
    engine: JoinEngine,
    faults: FaultManager,
) -> Table | None:
    """Join ``target`` onto the running table via the best join option.

    Returns the joined table, and records ``target``'s link in ``links``,
    or returns None when no join option exists or the hop failed (a
    failed hop is recorded on ``faults``).  Repeated visits to the same
    target table reuse ``engine``'s build-side index.
    """
    options = drg.best_join_options(source, target)
    if not options:
        return None
    result = faults.execute(
        lambda: join_hop(engine, current, links, options[0], base_name),
        base=base_name,
        edge=options[0],
    )
    if result is None:
        return None
    joined, links[target] = result
    return joined
