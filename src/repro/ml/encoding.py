"""Tabular encoding: Table -> finite numeric matrix, AutoGluon-style.

The AutoML wrapper "automatically handles data encoding" in the paper;
:class:`TabularEncoder` is that step.  String columns are label-encoded by
sorted unique value; residual NaNs (nulls) are imputed — median for wide
numeric columns, mode otherwise — using statistics learned at fit time so
train/test encoding is consistent.
"""

from __future__ import annotations

import numpy as np

from ..dataframe import Table
from ..errors import ModelError

__all__ = ["TabularEncoder", "encode_labels"]


def encode_labels(label_values: np.ndarray) -> tuple[np.ndarray, list]:
    """Map raw label values to contiguous class indices 0..C-1.

    Returns ``(encoded, classes)`` where ``classes[i]`` is the raw value
    for index ``i`` (sorted for determinism).
    """
    values = np.asarray(label_values).tolist()
    classes = [
        c.item() if isinstance(c, np.generic) else c for c in sorted(set(values))
    ]
    mapping = {c: i for i, c in enumerate(classes)}
    encoded = np.fromiter((mapping[v] for v in values), np.int64, len(values))
    return encoded, classes


class TabularEncoder:
    """Fit/transform a feature Table into a finite float64 matrix."""

    def __init__(self) -> None:
        self._feature_names: list[str] | None = None
        self._fill_values: np.ndarray | None = None
        self._string_mappings: dict[str, dict[str, float]] = {}

    def fit(self, table: Table, feature_names: list[str] | None = None) -> "TabularEncoder":
        """Learn encodings and imputation statistics from ``table``."""
        names = feature_names if feature_names is not None else table.column_names
        if not names:
            raise ModelError("cannot fit an encoder on zero features")
        self._feature_names = list(names)
        self._string_mappings = {}
        columns = []
        for name in names:
            column = table.column(name)
            if column.dtype.value == "string":
                mapping = {v: float(i) for i, v in enumerate(column.unique())}
                self._string_mappings[name] = mapping
            columns.append(self._encode_column(table, name))
        matrix = np.column_stack(columns) if columns else np.empty((table.n_rows, 0))
        fills = np.zeros(matrix.shape[1], dtype=np.float64)
        for j in range(matrix.shape[1]):
            col = matrix[:, j]
            finite = col[np.isfinite(col)]
            fills[j] = float(np.median(finite)) if finite.size else 0.0
        self._fill_values = fills
        return self

    def _encode_column(self, table: Table, name: str) -> np.ndarray:
        column = table.column(name)
        if name in self._string_mappings:
            mapping = self._string_mappings[name]
            out = np.full(len(column), np.nan, dtype=np.float64)
            for i, value in enumerate(column):
                if value is None:
                    continue
                out[i] = mapping.get(str(value), float(len(mapping)))
            return out
        return column.to_float()

    def transform(self, table: Table) -> np.ndarray:
        """Encode ``table`` with the fitted statistics; output is finite."""
        if self._feature_names is None or self._fill_values is None:
            raise ModelError("encoder is not fitted")
        columns = [self._encode_column(table, name) for name in self._feature_names]
        matrix = (
            np.column_stack(columns)
            if columns
            else np.empty((table.n_rows, 0), dtype=np.float64)
        )
        for j in range(matrix.shape[1]):
            col = matrix[:, j]
            col[~np.isfinite(col)] = self._fill_values[j]
        return matrix

    def fit_transform(
        self, table: Table, feature_names: list[str] | None = None
    ) -> np.ndarray:
        """Fit then transform in one pass."""
        return self.fit(table, feature_names).transform(table)
