"""Data-quality profiling (paper Section IV-C's quality dimension).

AutoFeat prunes joins on *completeness*; this module generalises that into
the small data-quality vocabulary the cited literature (Schelter et al.,
"Automating large-scale data quality verification") checks first:
completeness, uniqueness, constancy, and type consistency — per column and
per table, plus declared-constraint verification for lakes.
"""

from __future__ import annotations

from dataclasses import dataclass

from .column import Column
from .table import Table

__all__ = [
    "distinct_count",
    "uniqueness",
    "ColumnQuality",
    "TableQuality",
    "column_quality",
    "quality_report",
    "verify_key_constraint",
]


def distinct_count(column: Column) -> int:
    """Number of distinct non-null values in a column."""
    return len(column.unique())


def uniqueness(column: Column) -> float:
    """Distinct non-null values over non-null count (key-ness score).

    1.0 means the column is a candidate primary key; values near 0 indicate
    a heavily repeated (categorical/foreign-key-like) column.
    """
    n = len(column) - column.null_count()
    if n == 0:
        return 0.0
    return distinct_count(column) / n


@dataclass(frozen=True)
class ColumnQuality:
    """Quality statistics for one column."""

    name: str
    completeness: float
    uniqueness: float
    constancy: float
    n_distinct: int

    @property
    def is_constant(self) -> bool:
        """A column whose present values are all identical."""
        return self.n_distinct <= 1

    @property
    def is_key_quality(self) -> bool:
        """Complete and unique enough to serve as a join key."""
        return self.completeness >= 0.99 and self.uniqueness >= 0.99


@dataclass(frozen=True)
class TableQuality:
    """Quality statistics for a whole table."""

    table_name: str
    n_rows: int
    columns: tuple[ColumnQuality, ...]

    @property
    def completeness(self) -> float:
        """Mean column completeness (1 - overall null ratio)."""
        if not self.columns:
            return 1.0
        return sum(c.completeness for c in self.columns) / len(self.columns)

    @property
    def constant_columns(self) -> tuple[str, ...]:
        """Columns that carry no information at all."""
        return tuple(c.name for c in self.columns if c.is_constant)

    @property
    def key_candidates(self) -> tuple[str, ...]:
        """Columns of key quality."""
        return tuple(c.name for c in self.columns if c.is_key_quality)

    def rows(self) -> list[dict]:
        """Report rows for :func:`repro.bench.reporting.format_table`."""
        return [
            {
                "column": c.name,
                "completeness": round(c.completeness, 4),
                "uniqueness": round(c.uniqueness, 4),
                "constancy": round(c.constancy, 4),
                "distinct": c.n_distinct,
            }
            for c in self.columns
        ]


def column_quality(column: Column, name: str) -> ColumnQuality:
    """Quality statistics for one column."""
    counts = column.value_counts()
    n_present = len(column) - column.null_count()
    constancy = (max(counts.values()) / n_present) if counts and n_present else 0.0
    return ColumnQuality(
        name=name,
        completeness=1.0 - column.null_ratio(),
        uniqueness=uniqueness(column),
        constancy=constancy,
        n_distinct=len(counts),
    )


def quality_report(table: Table) -> TableQuality:
    """Quality statistics for every column of ``table``."""
    return TableQuality(
        table_name=table.name,
        n_rows=table.n_rows,
        columns=tuple(
            column_quality(table.column(name), name) for name in table.column_names
        ),
    )


def verify_key_constraint(
    parent: Table,
    parent_column: str,
    child: Table,
    child_column: str,
) -> dict:
    """Check a declared KFK edge against the data.

    Returns a report dict: whether the child key is unique, what fraction
    of parent values resolve in the child (referential coverage), and the
    dangling count.  A lake builder can run this over every declared
    constraint before trusting it.
    """
    child_values = {
        v for v in child.column(child_column) if v is not None
    }
    child_unique = uniqueness(child.column(child_column)) >= 0.999999
    parent_cells = [v for v in parent.column(parent_column) if v is not None]
    resolved = sum(1 for v in parent_cells if v in child_values)
    coverage = resolved / len(parent_cells) if parent_cells else 0.0
    return {
        "parent": f"{parent.name}.{parent_column}",
        "child": f"{child.name}.{child_column}",
        "child_key_unique": child_unique,
        "coverage": round(coverage, 6),
        "dangling": len(parent_cells) - resolved,
    }
