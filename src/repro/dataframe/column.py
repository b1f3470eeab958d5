"""Typed, null-aware columns — the storage primitive of the table engine.

A :class:`Column` wraps a numpy array together with an explicit boolean null
mask.  Keeping the mask separate from the values (instead of relying on NaN)
lets integer, boolean and string columns carry missing values with identical
semantics, which the AutoFeat pruning rules (null-ratio thresholding) depend
on.

The engine supports four logical dtypes:

=========  =====================  ==========================================
dtype      physical storage       notes
=========  =====================  ==========================================
FLOAT      ``float64``            nulls also mirrored as NaN for fast math
INT        ``int64``              null slots hold 0 under the mask
BOOL       ``bool_``              null slots hold False under the mask
STRING     ``object``             null slots hold ``None`` under the mask
=========  =====================  ==========================================
"""

from __future__ import annotations

import enum
from typing import Any, Iterable, Sequence

import numpy as np

from ..errors import SchemaError

__all__ = ["DType", "Column"]


class DType(enum.Enum):
    """Logical column type."""

    FLOAT = "float"
    INT = "int"
    BOOL = "bool"
    STRING = "string"

    @property
    def is_numeric(self) -> bool:
        """Whether values of this dtype can be used directly in arithmetic."""
        return self in (DType.FLOAT, DType.INT, DType.BOOL)


_NUMPY_KIND_TO_DTYPE = {
    "f": DType.FLOAT,
    "i": DType.INT,
    "u": DType.INT,
    "b": DType.BOOL,
}


def _storage_dtype(dtype: DType) -> np.dtype:
    if dtype is DType.FLOAT:
        return np.dtype(np.float64)
    if dtype is DType.INT:
        return np.dtype(np.int64)
    if dtype is DType.BOOL:
        return np.dtype(np.bool_)
    return np.dtype(object)


def _null_fill_value(dtype: DType) -> Any:
    if dtype is DType.FLOAT:
        return np.nan
    if dtype is DType.INT:
        return 0
    if dtype is DType.BOOL:
        return False
    return None


def infer_dtype(values: Iterable[Any]) -> DType:
    """Infer the logical dtype of a python sequence.

    ``None`` and NaN entries are ignored during inference.  Mixed numeric
    sequences (ints and floats) infer as FLOAT.  Anything containing a
    non-numeric, non-bool value infers as STRING.  An all-null sequence
    infers as FLOAT, the most permissive numeric type.
    """
    saw_float = False
    saw_int = False
    saw_bool = False
    saw_other = False
    for item in values:
        if item is None:
            continue
        if isinstance(item, (bool, np.bool_)):
            saw_bool = True
        elif isinstance(item, (int, np.integer)):
            saw_int = True
        elif isinstance(item, (float, np.floating)):
            if not np.isnan(item):
                saw_float = True
            # NaN floats are treated as nulls, not as float evidence, so a
            # list of ints with NaN gaps still infers as INT-compatible.
        else:
            saw_other = True
    if saw_other:
        return DType.STRING
    if saw_float:
        return DType.FLOAT
    if saw_int:
        return DType.INT
    if saw_bool:
        return DType.BOOL
    return DType.FLOAT


class Column:
    """An immutable, typed, null-aware vector of values.

    Parameters
    ----------
    values:
        Backing data.  May be a numpy array, or any python sequence; the
        values are copied into the canonical physical representation for the
        column's dtype.
    dtype:
        The logical dtype.  When omitted it is inferred from ``values``.
    mask:
        Boolean null mask, ``True`` marking missing entries.  When omitted,
        ``None`` entries (and NaN for float input) are detected
        automatically.
    """

    __slots__ = ("_values", "_mask", "_dtype")

    def __init__(
        self,
        values: Sequence[Any] | np.ndarray,
        dtype: DType | None = None,
        mask: np.ndarray | None = None,
    ):
        values_list: Sequence[Any] | np.ndarray
        if isinstance(values, np.ndarray) and values.dtype.kind in _NUMPY_KIND_TO_DTYPE:
            inferred = _NUMPY_KIND_TO_DTYPE[values.dtype.kind]
            dtype = dtype or inferred
            values_list = values
        else:
            values_list = list(values)
            dtype = dtype or infer_dtype(values_list)

        self._dtype = dtype
        storage = _storage_dtype(dtype)

        if mask is None:
            mask = self._detect_nulls(values_list)
        else:
            mask = np.asarray(mask, dtype=bool).copy()
            if mask.shape != (len(values_list),):
                raise SchemaError(
                    f"mask length {mask.shape} does not match "
                    f"values length {len(values_list)}"
                )

        arr = self._coerce(values_list, storage, mask)
        self._values = arr
        self._mask = mask
        self._values.setflags(write=False)
        self._mask.setflags(write=False)

    @staticmethod
    def _detect_nulls(values: Sequence[Any] | np.ndarray) -> np.ndarray:
        if isinstance(values, np.ndarray) and values.dtype.kind == "f":
            return np.isnan(values)
        if isinstance(values, np.ndarray) and values.dtype.kind in ("i", "u", "b"):
            return np.zeros(len(values), dtype=bool)
        out = np.zeros(len(values), dtype=bool)
        for i, item in enumerate(values):
            if item is None:
                out[i] = True
            elif isinstance(item, (float, np.floating)) and np.isnan(item):
                out[i] = True
        return out

    def _coerce(
        self,
        values: Sequence[Any] | np.ndarray,
        storage: np.dtype,
        mask: np.ndarray,
    ) -> np.ndarray:
        fill = _null_fill_value(self._dtype)
        if isinstance(values, np.ndarray) and values.dtype.kind in ("f", "i", "u", "b"):
            arr = values.astype(storage, copy=True)
            if self._dtype is DType.FLOAT:
                arr[mask] = np.nan
            elif mask.any():
                arr[mask] = fill
            return arr
        if self._dtype is DType.STRING:
            arr = np.empty(len(values), dtype=object)
            for i, item in enumerate(values):
                arr[i] = None if mask[i] else (item if isinstance(item, str) else str(item))
            return arr
        arr = np.full(len(values), fill, dtype=storage)
        for i, item in enumerate(values):
            if not mask[i]:
                arr[i] = item
        return arr

    # -- basic protocol ---------------------------------------------------

    @property
    def dtype(self) -> DType:
        """The logical dtype of the column."""
        return self._dtype

    @property
    def values(self) -> np.ndarray:
        """The backing array (read-only).  Null slots hold fill values."""
        return self._values

    @property
    def mask(self) -> np.ndarray:
        """Boolean null mask (read-only); ``True`` marks missing entries."""
        return self._mask

    def __len__(self) -> int:
        return len(self._values)

    def __getitem__(self, index: int) -> Any:
        if self._mask[index]:
            return None
        value = self._values[index]
        if isinstance(value, np.generic):
            return value.item()
        return value

    def __iter__(self):
        return iter(self.to_list())

    def __repr__(self) -> str:
        preview = ", ".join(repr(v) for v in list(self)[:6])
        suffix = ", ..." if len(self) > 6 else ""
        return f"Column<{self._dtype.value}>[{preview}{suffix}] (n={len(self)})"

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Column):
            return NotImplemented
        if self._dtype is not other._dtype or len(self) != len(other):
            return False
        if not np.array_equal(self._mask, other._mask):
            return False
        valid = ~self._mask
        if self._dtype is DType.FLOAT:
            return bool(
                np.allclose(
                    self._values[valid], other._values[valid], equal_nan=True
                )
            )
        return bool(np.array_equal(self._values[valid], other._values[valid]))

    __hash__ = None  # type: ignore[assignment]  # mutable-style container semantics

    # -- null accounting ---------------------------------------------------

    def null_count(self) -> int:
        """Number of missing entries."""
        return int(self._mask.sum())

    def null_ratio(self) -> float:
        """Fraction of missing entries; 0.0 for an empty column."""
        if len(self) == 0:
            return 0.0
        return float(self._mask.mean())

    def has_nulls(self) -> bool:
        """Whether the column contains at least one missing entry."""
        return bool(self._mask.any())

    # -- transformations ----------------------------------------------------

    def take(self, indices: np.ndarray | Sequence[int]) -> "Column":
        """Gather rows by integer position, preserving nulls."""
        idx = np.asarray(indices, dtype=np.int64)
        return Column(self._values[idx], dtype=self._dtype, mask=self._mask[idx])

    def filter(self, keep: np.ndarray) -> "Column":
        """Keep rows where ``keep`` is True."""
        keep = np.asarray(keep, dtype=bool)
        if keep.shape != self._values.shape:
            raise SchemaError(
                f"filter mask length {keep.shape} != column length {self._values.shape}"
            )
        return Column(self._values[keep], dtype=self._dtype, mask=self._mask[keep])

    # -- analytics -----------------------------------------------------------

    def non_null_values(self) -> np.ndarray:
        """The sub-array of present values."""
        return self._values[~self._mask]

    def unique(self) -> list[Any]:
        """Sorted distinct non-null values, as Python scalars.

        The one distinct-values primitive: a single ``np.unique`` for the
        numeric dtypes.  An explicitly unmasked NaN counts once and sorts last.
        """
        present = self.non_null_values()
        if self._dtype is DType.STRING:
            return sorted({str(v) for v in present})
        return np.unique(present).tolist()

    def value_counts(self) -> dict[Any, int]:
        """Histogram of non-null values."""
        counts: dict[Any, int] = {}
        for value in self.non_null_values():
            key = value.item() if isinstance(value, np.generic) else value
            counts[key] = counts.get(key, 0) + 1
        return counts

    def to_float(self) -> np.ndarray:
        """Numeric view as float64 with NaN at null slots.

        STRING columns are label-encoded by sorted unique value (a stable,
        deterministic encoding), which is what the selection metrics and the
        tree learners consume.
        """
        if self._dtype is DType.STRING:
            mapping = {v: float(i) for i, v in enumerate(self.unique())}
            out = np.full(len(self), np.nan, dtype=np.float64)
            for i, (item, missing) in enumerate(zip(self._values, self._mask)):
                if not missing:
                    out[i] = mapping[str(item)]
            return out
        out = self._values.astype(np.float64)
        out[self._mask] = np.nan
        return out

    def to_list(self) -> list[Any]:
        """Python list representation with ``None`` at null slots."""
        out = self._values.tolist()  # the same scalars as per-element .item()
        if self._values.dtype == object:
            out = [v.item() if isinstance(v, np.generic) else v for v in out]
        for i in np.flatnonzero(self._mask).tolist():
            out[i] = None
        return out

    @staticmethod
    def nulls(n: int, dtype: DType = DType.FLOAT) -> "Column":
        """A column of ``n`` missing entries."""
        fill = _null_fill_value(dtype)
        if dtype is DType.STRING:
            values = np.full(n, None, dtype=object)
        else:
            values = np.full(n, fill, dtype=_storage_dtype(dtype))
        return Column(values, dtype=dtype, mask=np.ones(n, dtype=bool))
