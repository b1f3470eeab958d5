"""Qualified feature naming shared by the engine and the core algorithm.

Columns contributed by a lake table are qualified as ``table.column`` so
provenance survives multi-hop joins and name collisions cannot occur.
These helpers are the single source of truth for that convention.
"""

from __future__ import annotations

from typing import Iterable

from ..graph import OrientedEdge

__all__ = ["qualified", "source_column_name"]


def qualified(table_name: str, column_name: str) -> str:
    """The qualified feature name a hop contributes."""
    return f"{table_name}.{column_name}"


def source_column_name(
    edge: OrientedEdge, base_name: str, columns: Iterable[str] = ()
) -> str:
    """Resolve the join column of ``edge.source`` inside the running join.

    Base-table columns keep their bare names; columns that arrived through
    an earlier hop are qualified with their origin table, and ``"_r"``
    suffixed where the running join already held that name when the hop
    wrote it.  A table appears once per path and its columns are appended
    after every earlier one, so among the running join's ``columns`` the
    last one named ``q``, ``q_r``, ``q_r_r``, … (``q`` the qualified name)
    is the one the source table's hop wrote — unless the source table
    itself has a column named ``<column>_r``, which this name search cannot
    tell apart.  Only the table route (:meth:`JoinEngine.apply_hop`) still
    searches; a row-map chain reads the key by its exact name.
    """
    if edge.source == base_name:
        return edge.source_column
    name = qualified(edge.source, edge.source_column)
    for column in reversed(list(columns)):
        tail = column[len(name):]
        if column.startswith(name) and tail == "_r" * (len(tail) // 2):
            return column
    return name
