"""Dictionary encoding of join-key columns.

The join kernels in :mod:`repro.dataframe.join` historically hashed raw
Python scalars row by row: every build and every probe paid per-value
boxing (``ndarray`` element → Python object → normalise → hash).  A
:class:`KeyDictionary` interns a key column's values **once** into dense
``int32`` codes so that both halves of a hash join become vectorised
integer kernels:

* **build** — group rows by code (one stable argsort), pick the
  seed-deterministic dedup representative per *distinct* key instead of
  per row, and lay the survivors out in a dense ``code → row`` table;
* **probe** — encode the probe column against the build side's dictionary
  (``searchsorted`` over the sorted key universe) and gather through the
  code table.

Null handling uses a sentinel: masked entries encode to :data:`CODE_NULL`
(-1) and therefore never match.  A NaN float key is a null for join
purposes — NaN equals no probe value — so it encodes to
:data:`CODE_NULL` as well, masked or not.

Key normalisation — the rule that makes ``1``, ``1.0`` and ``np.int64(1)``
join-equal while ``"1"`` stays distinct — is centralised here in
:func:`normalize_key`; key interning and the dict-based reference under
``tests/`` call the same function, so the definitions cannot drift.

Cross-table alignment: the two sides of a DRG edge may store their keys in
different dtypes (INT child key probing a FLOAT parent key and so on).
:meth:`KeyDictionary.encode_column` resolves this with a dtype lattice:
same-space probes run fully vectorised, numeric cross-space probes bridge
through exact float64/int64 casts (with a scalar fallback beyond the
2**53 exact-integer range), and string/numeric pairs — which can never
match under :func:`normalize_key` — short-circuit to all-unmatched.

Determinism contract: encoding is a pure function of the column's values
and mask.  The code assigned to a key is its rank in the sorted key
universe and the dedup representative is chosen by a per-key CRC-seeded
RNG; the hypothesis suite in ``tests/engine/test_encoded_parity.py`` holds
the kernels bit-identical to the dict-of-boxed-scalars reference in
``tests/dataframe/test_join_reference.py``.

The same idea serves selection: :func:`rank_codes` interns a numeric
vector's finite values into dense ``int32`` codes ordered like the values,
which is all a rank statistic (Spearman midranks) or a discretiser needs
to know about them.  The join index derives them once per build column
and a hop gathers them (:meth:`repro.dataframe.JoinIndex.gather`).
"""

from __future__ import annotations

from typing import Any

import numpy as np

from .column import Column, DType

__all__ = [
    "CODE_NULL",
    "KeyDictionary",
    "dense_codes",
    "normalize_key",
    "rank_codes",
]

#: Sentinel code for null (and, on probe encodings, unmatched) entries.
CODE_NULL = -1

#: Largest magnitude at which every integer is exactly representable as a
#: float64 — the bound for the vectorised int/float cross-space bridge.
_EXACT_FLOAT_INT = 2**53


def normalize_key(value: Any) -> Any:
    """Normalise a join-key value so that 1, 1.0 and np.int64(1) compare equal.

    numpy scalars (``np.int64``, ``np.float64``, ``np.bool_``, ``np.str_``)
    are unwrapped to the corresponding Python scalar first: they hash like
    their Python twins but ``repr`` differently, which would destabilise
    the dedup-representative digest across storage dtypes.  Integral floats
    collapse onto the integer (``1.0 → 1``); booleans are preserved as
    booleans (``True`` digests as ``'True'``, never ``'1'``); strings are
    never coerced, so ``"1"`` remains distinct from ``1``.
    """
    if value is None:
        return None
    if isinstance(value, np.generic):
        value = value.item()
    if isinstance(value, bool):
        return value
    if isinstance(value, float) and value.is_integer():
        return int(value)
    return value


def rank_codes(values: np.ndarray) -> np.ndarray:
    """Dense ``int32`` rank codes of a vector's finite values.

    Code ``c`` is the position of the value in the sorted distinct finite
    values (``-0.0`` and ``0.0`` are one value), so equal values share a
    code and codes order like values; NaN and ±inf get :data:`CODE_NULL`.
    One ``np.unique`` — the one ranking primitive behind Spearman midranks
    and :func:`~repro.selection.entropy.discretize`.
    """
    x = np.asarray(values, dtype=np.float64)
    codes = np.full(x.shape, CODE_NULL, dtype=np.int32)
    finite = np.isfinite(x)
    if finite.all():
        codes[...] = np.unique(x, return_inverse=True)[1].reshape(x.shape)
    elif finite.any():
        codes[finite] = np.unique(x[finite], return_inverse=True)[1]
    return codes


def dense_codes(codes: np.ndarray) -> np.ndarray:
    """``codes`` renumbered over the codes present: the ``k`` distinct
    non-negative codes become ``0 .. k-1`` in the same order, and
    :data:`CODE_NULL` stays (``int64``)."""
    out = np.full(codes.shape, CODE_NULL, dtype=np.int64)
    present = codes >= 0
    if present.any():
        kept = codes[present]
        used = np.zeros(int(kept.max()) + 1, dtype=bool)
        used[kept] = True
        out[present] = (np.cumsum(used) - 1)[kept]
    return out


def _match_space(dtype: DType) -> str:
    """The matching space a dtype's keys live in (bools join as ints)."""
    if dtype is DType.STRING:
        return "str"
    if dtype is DType.FLOAT:
        return "float"
    return "int"


def _space_values(column: Column) -> np.ndarray:
    """A column's backing values cast into its matching space."""
    if column.dtype is DType.BOOL:
        return column.values.astype(np.int64)
    return column.values


class KeyDictionary:
    """Interned key universe of one column: sorted values + dense codes.

    Codes are ranks in the sorted distinct-key universe (``int32``), so
    ``codes[i] < codes[j]`` iff key *i* sorts before key *j*; nulls (and
    NaN float keys) carry :data:`CODE_NULL`.  Instances are immutable and
    safe to share across threads.  Build via :meth:`from_column`.
    """

    __slots__ = ("codes", "_values", "_space", "_dtype")

    def __init__(
        self,
        codes: np.ndarray,
        values: np.ndarray,
        space: str,
        dtype: DType,
    ):
        #: Per-source-row int32 codes; CODE_NULL at masked and NaN entries.
        self.codes = codes
        self._values = values
        self._space = space
        self._dtype = dtype

    @classmethod
    def from_column(cls, column: Column) -> "KeyDictionary":
        """Intern ``column``'s non-null values into dense sorted codes.

        A NaN key can never equal a probe value, so an unmasked NaN in a
        FLOAT column is a null for join purposes and gets
        :data:`CODE_NULL` like a masked entry.
        """
        values = _space_values(column)
        valid = ~column.mask
        if column.dtype is DType.FLOAT:
            valid &= ~np.isnan(values)
        present = values[valid]
        uniques, inverse = np.unique(present, return_inverse=True)
        codes = np.full(len(values), CODE_NULL, dtype=np.int32)
        codes[valid] = inverse.astype(np.int32)
        return cls(codes, uniques, _match_space(column.dtype), column.dtype)

    # -- introspection -------------------------------------------------------

    @property
    def n_keys(self) -> int:
        """Number of distinct non-null keys."""
        return len(self._values)

    def key(self, code: int) -> Any:
        """The normalised Python key a code stands for.

        This is the value whose ``repr`` feeds the dedup-representative
        digest, so it must match what :func:`normalize_key` produces for
        the original column value: booleans stay booleans, integral floats
        collapse to ints, strings stay strings.
        """
        value = self._values[code]
        if self._dtype is DType.BOOL:
            return bool(value)
        return normalize_key(value.item() if isinstance(value, np.generic) else value)

    # -- alignment -----------------------------------------------------------

    def encode_column(self, column: Column) -> np.ndarray:
        """Encode another column's values into **this** dictionary's codes.

        The cross-table alignment step: the probe side of an edge joins on
        the build side's integer codes.  Nulls and values outside the key
        universe (including any NaN) encode to :data:`CODE_NULL`.
        """
        probe_space = _match_space(column.dtype)
        if probe_space == self._space:
            return self._encode_same_space(_space_values(column), column.mask)
        if "str" in (probe_space, self._space):
            # String keys can never equal numeric keys under
            # normalize_key, so every probe value is unmatched.
            return np.full(len(column), CODE_NULL, dtype=np.int32)
        return self._encode_cross_numeric(column, probe_space)

    def _encode_same_space(self, values: np.ndarray, mask: np.ndarray) -> np.ndarray:
        codes = np.full(len(values), CODE_NULL, dtype=np.int32)
        if self.n_keys == 0:
            return codes
        valid = ~mask
        present = values[valid]
        if len(present) == 0:
            return codes
        pos = np.searchsorted(self._values, present)
        pos = np.minimum(pos, self.n_keys - 1)
        matched = self._values[pos] == present
        codes[valid] = np.where(matched, pos, CODE_NULL).astype(np.int32)
        return codes

    def _encode_cross_numeric(self, column: Column, probe_space: str) -> np.ndarray:
        """Bridge an int-space probe onto a float-space dictionary or back.

        Values within the exact float64 integer range cast losslessly and
        run through the vectorised same-space kernel; the (pathological)
        remainder falls back to per-value normalised lookup so huge
        integers still match exactly.
        """
        values = _space_values(column)
        mask = column.mask
        codes = np.full(len(values), CODE_NULL, dtype=np.int32)
        valid = ~mask
        if probe_space == "int":
            # int64 probe → float64 dictionary.
            exact = valid & (np.abs(values) <= _EXACT_FLOAT_INT)
            bridged = self._encode_same_space(
                values.astype(np.float64), ~(exact)
            )
            codes[exact] = bridged[exact]
            overflow = valid & ~exact
        else:
            # float64 probe → int64 dictionary: only integral floats in
            # the exact range can match an integer key.
            finite = valid & np.isfinite(values)
            integral = np.zeros(len(values), dtype=bool)
            integral[finite] = values[finite] == np.floor(values[finite])
            exact = integral & (np.abs(np.where(integral, values, 0.0)) <= _EXACT_FLOAT_INT)
            bridged_values = np.where(exact, values, 0.0).astype(np.int64)
            bridged = self._encode_same_space(bridged_values, ~exact)
            codes[exact] = bridged[exact]
            overflow = integral & ~exact
        if overflow.any():
            lookup = {self.key(code): code for code in range(self.n_keys)}
            for i in np.flatnonzero(overflow):
                codes[i] = lookup.get(normalize_key(column[int(i)]), CODE_NULL)
        return codes
