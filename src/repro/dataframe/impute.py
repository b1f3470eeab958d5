"""Null imputation strategies.

The paper handles missing values "by imputation with the most common value
corresponding to the feature" (Section V-B) and discusses mean/median/mode
imputation as alternatives to deletion (Section IV-C).  Every strategy here
returns a new column; the original is untouched.
"""

from __future__ import annotations

import numpy as np

from ..errors import SchemaError
from .column import Column, DType

__all__ = [
    "impute_most_frequent",
    "impute_mean",
    "impute_median",
    "impute_constant",
]


def impute_most_frequent(column: Column) -> Column:
    """Replace nulls with the column's mode.

    An entirely-null column is returned unchanged (there is nothing to
    learn a fill value from); callers that cannot tolerate residual nulls
    should follow up with :func:`impute_constant`.
    """
    if not column.has_nulls():
        return column
    fill = column.mode()
    if fill is None:
        return column
    return column.fill_nulls(fill)


def impute_mean(column: Column) -> Column:
    """Replace nulls with the mean of the present values (numeric only)."""
    if not column.dtype.is_numeric:
        raise SchemaError(f"mean imputation needs a numeric column, got {column.dtype}")
    if not column.has_nulls():
        return column
    present = column.non_null_values().astype(np.float64)
    if len(present) == 0:
        return column
    fill = float(np.mean(present))
    if column.dtype in (DType.INT, DType.BOOL):
        fill = round(fill)
    return column.fill_nulls(fill)


def impute_median(column: Column) -> Column:
    """Replace nulls with the median of the present values (numeric only)."""
    if not column.dtype.is_numeric:
        raise SchemaError(
            f"median imputation needs a numeric column, got {column.dtype}"
        )
    if not column.has_nulls():
        return column
    present = column.non_null_values().astype(np.float64)
    if len(present) == 0:
        return column
    fill = float(np.median(present))
    if column.dtype in (DType.INT, DType.BOOL):
        fill = round(fill)
    return column.fill_nulls(fill)


def impute_constant(column: Column, value: object) -> Column:
    """Replace nulls with a caller-supplied default value."""
    return column.fill_nulls(value)
