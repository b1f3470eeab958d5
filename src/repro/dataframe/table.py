"""The :class:`Table` — an immutable, ordered collection of named columns.

Tables are the unit of storage throughout the library: datasets in the lake,
intermediate join results and the final augmented table are all ``Table``
instances.  Operations return new tables; nothing mutates in place, which
keeps the breadth-first path exploration in AutoFeat free of aliasing bugs.
"""

from __future__ import annotations

from typing import Any, Iterable, Mapping, Sequence

import numpy as np

from ..errors import SchemaError
from .column import Column

__all__ = ["Table"]


class Table:
    """An ordered mapping of column name to :class:`Column`, equal lengths.

    Parameters
    ----------
    columns:
        Mapping from column name to :class:`Column` (or raw sequences, which
        are wrapped).  Insertion order is the column order.
    name:
        Optional table name; used to qualify feature names when tables are
        joined (``"table.column"``).
    """

    # __weakref__ lets callers key per-table caches on weak references
    # (e.g. the ComaMatcher profile cache) instead of reusable id()s.
    __slots__ = ("_columns", "_name", "_n_rows", "__weakref__")

    def __init__(
        self,
        columns: Mapping[str, Column | Sequence[Any] | np.ndarray],
        name: str = "",
    ):
        wrapped: dict[str, Column] = {}
        n_rows: int | None = None
        for col_name, data in columns.items():
            if not isinstance(col_name, str) or not col_name:
                raise SchemaError(f"invalid column name: {col_name!r}")
            column = data if isinstance(data, Column) else Column(data)
            if n_rows is None:
                n_rows = len(column)
            elif len(column) != n_rows:
                raise SchemaError(
                    f"column {col_name!r} has {len(column)} rows, expected {n_rows}"
                )
            wrapped[col_name] = column
        self._columns = wrapped
        self._name = name
        self._n_rows = n_rows or 0

    # -- construction -------------------------------------------------------

    @staticmethod
    def from_rows(
        column_names: Sequence[str],
        rows: Iterable[Sequence[Any]],
        name: str = "",
    ) -> "Table":
        """Build a table from an iterable of row tuples."""
        materialised = [list(row) for row in rows]
        for row in materialised:
            if len(row) != len(column_names):
                raise SchemaError(
                    f"row width {len(row)} != number of columns {len(column_names)}"
                )
        columns = {
            col: [row[i] for row in materialised]
            for i, col in enumerate(column_names)
        }
        return Table(columns, name=name)

    # -- basic protocol -------------------------------------------------------

    @property
    def name(self) -> str:
        """The table's name (may be empty for anonymous intermediates)."""
        return self._name

    @property
    def n_rows(self) -> int:
        """Number of rows."""
        return self._n_rows

    @property
    def n_cols(self) -> int:
        """Number of columns."""
        return len(self._columns)

    @property
    def column_names(self) -> list[str]:
        """Column names in order."""
        return list(self._columns.keys())

    def __contains__(self, column_name: str) -> bool:
        return column_name in self._columns

    def __len__(self) -> int:
        return self._n_rows

    def __getitem__(self, column_name: str) -> Column:
        return self.column(column_name)

    def column(self, column_name: str) -> Column:
        """Look up a column by name, raising :class:`SchemaError` if absent."""
        try:
            return self._columns[column_name]
        except KeyError:
            raise SchemaError(
                f"table {self._name!r} has no column {column_name!r}; "
                f"available: {self.column_names}"
            ) from None

    def __repr__(self) -> str:
        cols = ", ".join(
            f"{name}:{col.dtype.value}" for name, col in self._columns.items()
        )
        return f"Table({self._name!r}, rows={self._n_rows}, cols=[{cols}])"

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Table):
            return NotImplemented
        if self.column_names != other.column_names:
            return False
        return all(self._columns[c] == other._columns[c] for c in self._columns)

    __hash__ = None  # type: ignore[assignment]

    # -- relational operators ---------------------------------------------------

    def select(self, column_names: Sequence[str]) -> "Table":
        """Projection: keep the named columns, in the given order."""
        return Table(
            {name: self.column(name) for name in column_names}, name=self._name
        )

    def rename(self, mapping: Mapping[str, str]) -> "Table":
        """Rename columns; names not in ``mapping`` are kept."""
        unknown = set(mapping) - set(self._columns)
        if unknown:
            raise SchemaError(f"cannot rename unknown columns: {sorted(unknown)}")
        renamed = {mapping.get(n, n): c for n, c in self._columns.items()}
        if len(renamed) != len(self._columns):
            raise SchemaError("rename would create duplicate column names")
        return Table(renamed, name=self._name)

    def prefixed(self, prefix: str, exclude: Sequence[str] = ()) -> "Table":
        """Qualify column names as ``prefix.column`` (except ``exclude``).

        Used when a lake table enters a join so that provenance stays
        readable in the augmented table.
        """
        skip = set(exclude)
        return self.rename(
            {n: f"{prefix}.{n}" for n in self._columns if n not in skip}
        )

    def filter(self, keep: np.ndarray) -> "Table":
        """Row selection by boolean mask."""
        return Table(
            {n: c.filter(keep) for n, c in self._columns.items()}, name=self._name
        )

    def take(self, indices: np.ndarray | Sequence[int]) -> "Table":
        """Row gather by integer positions."""
        return Table(
            {n: c.take(indices) for n, c in self._columns.items()}, name=self._name
        )

    # -- analytics --------------------------------------------------------------

    def null_ratio(self, column_names: Sequence[str] | None = None) -> float:
        """Overall fraction of null cells over the given (or all) columns.

        This is the completeness statistic used by AutoFeat's data-quality
        pruning rule (Section IV-C of the paper).
        """
        names = list(column_names) if column_names is not None else self.column_names
        if not names or self._n_rows == 0:
            return 0.0
        total = len(names) * self._n_rows
        nulls = sum(self.column(n).null_count() for n in names)
        return nulls / total

    def numeric_matrix(self, column_names: Sequence[str] | None = None) -> np.ndarray:
        """Dense float64 matrix (rows x columns) with NaN for nulls.

        STRING columns are label-encoded deterministically; this is the
        representation every selection metric and learner consumes.
        """
        names = list(column_names) if column_names is not None else self.column_names
        if not names:
            return np.empty((self._n_rows, 0), dtype=np.float64)
        return np.column_stack([self.column(n).to_float() for n in names])
