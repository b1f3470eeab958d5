"""Materialising join paths into augmented tables.

Shared by the discovery phase (which joins the *sampled* base table) and
the training phase (which joins the *full* base table), and by the
baselines.  Columns contributed by a lake table are qualified as
``table.column`` so provenance survives multi-hop joins and name
collisions cannot occur.

Execution is delegated to :class:`repro.engine.JoinEngine`; the functions
here are the stable one-shot API.  Callers that execute many hops (the
discovery BFS, the baselines' join loops) should construct one engine and
pass it in — or call the engine directly — so build-side state is shared
across hops; a fresh cache-less engine is created per call otherwise.
"""

from __future__ import annotations

from ..dataframe import Table
from ..engine import JoinEngine, qualified, source_column_name
from ..graph import DatasetRelationGraph, JoinPath, OrientedEdge

__all__ = ["qualified", "source_column_name", "apply_hop", "materialize_path"]


def apply_hop(
    current: Table,
    drg: DatasetRelationGraph,
    edge: OrientedEdge,
    base_name: str,
    seed: int,
    path: JoinPath | None = None,
    engine: JoinEngine | None = None,
) -> tuple[Table, list[str]]:
    """Left-join one hop onto the running table.

    Returns ``(joined, contributed_columns)`` where the contributed columns
    are the names of everything the right table added in ``joined`` (join
    key included — its completeness is what quality pruning inspects):
    qualified, and ``"_r"``-suffixed where the running join already held
    the name.

    Raises :class:`repro.errors.JoinError` when the join is unfeasible: the
    source column is missing from the running join (can happen on spurious
    discovery edges) — Algorithm 1 prunes such paths.  Pass ``path`` to get
    the hop sequence included in the error message.
    """
    if engine is None:
        engine = JoinEngine(drg, seed=seed)
    return engine.apply_hop(current, edge, base_name, path=path)


def materialize_path(
    drg: DatasetRelationGraph,
    path: JoinPath,
    base_table: Table,
    seed: int = 0,
    engine: JoinEngine | None = None,
) -> tuple[Table, list[list[str]]]:
    """Join the full path onto ``base_table``, hop by hop.

    Returns the augmented table and, per hop, the list of qualified columns
    that hop contributed.
    """
    if engine is None:
        engine = JoinEngine(drg, seed=seed)
    return engine.materialize_path(path, base_table)
