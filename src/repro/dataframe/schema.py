"""Schema descriptors and semantic role inference for columns.

The discovery matchers and the DRG builder reason about columns via
lightweight :class:`ColumnSchema` descriptors rather than full columns:
name, dtype, key-ness and null statistics.  :func:`infer_role` classifies a
column as a key / foreign-key candidate vs. a plain feature, which the lake
generators and the ARDA-style splitter use to decide where join columns go.
"""

from __future__ import annotations

from dataclasses import dataclass

from .column import Column, DType
from .table import Table

__all__ = ["ColumnSchema", "TableSchema", "infer_role", "schema_of"]

KEY_ROLE = "key"
CATEGORY_ROLE = "category"
FEATURE_ROLE = "feature"


@dataclass(frozen=True)
class ColumnSchema:
    """Static description of one column."""

    name: str
    dtype: DType
    n_rows: int
    n_distinct: int
    null_ratio: float
    role: str

    @property
    def is_key_like(self) -> bool:
        """Whether the column could serve as a join key."""
        return self.role in (KEY_ROLE, CATEGORY_ROLE)


@dataclass(frozen=True)
class TableSchema:
    """Static description of a table: an ordered tuple of column schemas."""

    name: str
    columns: tuple[ColumnSchema, ...]

    def column(self, name: str) -> ColumnSchema:
        for col in self.columns:
            if col.name == name:
                return col
        raise KeyError(name)

    @property
    def key_candidates(self) -> list[ColumnSchema]:
        """Columns usable as join endpoints."""
        return [c for c in self.columns if c.is_key_like]


def infer_role(column: Column) -> str:
    """Classify a column as ``key``, ``category`` or ``feature``.

    Heuristics mirror common profiling practice: near-unique columns are key
    candidates; low-cardinality columns are categories (which can act as
    weak join columns — the source of spurious lake edges); everything else
    is a plain feature.
    """
    return _role(column, len(column.unique()))


def _role(column: Column, n_distinct: int) -> str:
    """:func:`infer_role` given the column's distinct count (computed once)."""
    n_present = len(column) - column.null_count()
    distinct_fraction = n_distinct / n_present if n_present else 0.0
    if distinct_fraction >= 0.95 and n_distinct > 1:
        return KEY_ROLE
    if n_distinct <= max(20, int(0.05 * max(len(column), 1))) and n_distinct > 0:
        return CATEGORY_ROLE
    return FEATURE_ROLE


def schema_of(table: Table) -> TableSchema:
    """Profile every column of ``table`` into a :class:`TableSchema`."""
    columns = []
    for name in table.column_names:
        col = table.column(name)
        n_distinct = len(col.unique())
        columns.append(
            ColumnSchema(
                name=name,
                dtype=col.dtype,
                n_rows=len(col),
                n_distinct=n_distinct,
                null_ratio=col.null_ratio(),
                role=_role(col, n_distinct),
            )
        )
    return TableSchema(name=table.name, columns=tuple(columns))
