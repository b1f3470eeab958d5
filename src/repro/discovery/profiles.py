"""Column profiling for schema matching.

Matchers never touch full columns: each column is summarised once into a
:class:`ColumnProfile` — dtype, cardinality, numeric range and a bounded
sketch of distinct values — and all pairwise similarity is computed on
profiles.  This mirrors how dataset-discovery systems (Aurum, Lazo, JOSIE)
scale to lakes: profile once, match many times.

Profiling computes what every matcher reads.  Two summaries only one
matcher reads are built from the profile's source column on first read and
memoised, so the default (COMA) path never pays for them: the MinHash
signature (:attr:`ColumnProfile.minhash`, one hash per distinct value,
read by ``LazoMatcher``) and the quantile sketch
(:attr:`ColumnProfile.quantiles`, read by ``DistributionMatcher``).
"""

from __future__ import annotations

import hashlib
import weakref
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from ..dataframe import Column, DType, Table
from ..errors import DiscoveryError

__all__ = [
    "QuantileSketch",
    "ColumnProfile",
    "TableProfile",
    "ProfileCache",
    "profile_column",
    "profile_table",
]

SKETCH_SIZE = 256
MINHASH_PERMUTATIONS = 64
_MERSENNE_PRIME = (1 << 61) - 1


def _stable_hash(token: str) -> int:
    """64-bit hash that is stable across processes (unlike ``hash``)."""
    digest = hashlib.blake2b(token.encode("utf-8"), digest_size=8).digest()
    return int.from_bytes(digest, "little")


#: Token-batch size for the vectorised permutation step: bounds the
#: (chunk × n_perm) uint64 scratch matrix at ~2 MiB however many distinct
#: values a column holds.
_MINHASH_CHUNK = 4096


def _minhash_signature(tokens: set[str], n_perm: int = MINHASH_PERMUTATIONS) -> np.ndarray:
    """MinHash signature of a token set under ``n_perm`` linear permutations.

    The permutation step is one outer product per token chunk instead of a
    python loop over tokens; uint64 multiplication wraps identically
    elementwise, so the signature is bit-identical to the scalar recipe.
    """
    signature = np.full(n_perm, np.iinfo(np.uint64).max, dtype=np.uint64)
    if not tokens:
        return signature
    rng = np.random.default_rng(0xDA7A)
    a = rng.integers(1, _MERSENNE_PRIME, size=n_perm, dtype=np.uint64)
    b = rng.integers(0, _MERSENNE_PRIME, size=n_perm, dtype=np.uint64)
    hashes = np.asarray([_stable_hash(t) for t in tokens], dtype=np.uint64)
    for lo in range(0, hashes.size, _MINHASH_CHUNK):
        chunk = hashes[lo : lo + _MINHASH_CHUNK]
        permuted = (chunk[:, None] * a[None, :] + b[None, :]) % _MERSENNE_PRIME
        signature = np.minimum(signature, permuted.min(axis=0))
    return signature


N_QUANTILES = 16


class QuantileSketch:
    """Normalised quantile summary of one numeric column."""

    __slots__ = ("quantiles", "n_values")

    def __init__(self, values: np.ndarray, n_quantiles: int = N_QUANTILES):
        finite = values[np.isfinite(values)]
        self.n_values = int(finite.size)
        if self.n_values == 0:
            self.quantiles = np.zeros(n_quantiles, dtype=np.float64)
            return
        lo, hi = float(finite.min()), float(finite.max())
        span = hi - lo if hi > lo else 1.0
        normalised = (finite - lo) / span
        grid = np.linspace(0.0, 1.0, n_quantiles)
        self.quantiles = np.quantile(normalised, grid)

    @staticmethod
    def of_column(column: Column) -> "QuantileSketch":
        if not column.dtype.is_numeric:
            raise DiscoveryError(
                f"quantile sketches need numeric columns, got {column.dtype}"
            )
        return QuantileSketch(column.to_float())


def _normalise(value: object) -> str:
    if isinstance(value, float) and value.is_integer():
        return str(int(value))
    return str(value).strip().lower()


@dataclass(frozen=True)
class ColumnProfile:
    """Compact matching summary of a single column."""

    table_name: str
    column_name: str
    dtype: DType
    n_rows: int
    n_distinct: int
    null_ratio: float
    sketch: frozenset[str]
    #: The profiled column (immutable, already held by the lake).  Holding a
    #: derived value list or token set instead would retain it per profile.
    source: Column = field(repr=False, compare=False)
    numeric_min: float | None = None
    numeric_max: float | None = None

    @cached_property
    def minhash(self) -> np.ndarray:
        """MinHash signature of all distinct normalised values (first read computes it)."""
        return _minhash_signature({_normalise(v) for v in self.source.unique()})

    @cached_property
    def quantiles(self) -> QuantileSketch:
        """Quantile sketch of a numeric column (first read computes it)."""
        return QuantileSketch.of_column(self.source)

    @property
    def uniqueness(self) -> float:
        """Distinct fraction — near 1.0 marks a key candidate."""
        non_null = self.n_rows * (1.0 - self.null_ratio)
        if non_null <= 0:
            return 0.0
        return min(1.0, self.n_distinct / non_null)


@dataclass(frozen=True)
class TableProfile:
    """Profiles for every column of one table."""

    table_name: str
    columns: tuple[ColumnProfile, ...]


def profile_column(column: Column, table_name: str, column_name: str) -> ColumnProfile:
    """Summarise one column into a :class:`ColumnProfile`.

    One sorted distinct-values pass (:meth:`Column.unique`) yields the
    cardinality, the numeric range and the sketch: the first
    :data:`SKETCH_SIZE` distinct values, normalised — enough for containment
    estimates on join keys, bounded regardless of table size, reproducible.
    No other value is normalised, and none is hashed, until someone reads
    :attr:`ColumnProfile.minhash`.
    """
    distinct = column.unique()
    numeric = column.dtype.is_numeric and bool(distinct)
    return ColumnProfile(
        table_name=table_name,
        column_name=column_name,
        dtype=column.dtype,
        n_rows=len(column),
        n_distinct=len(distinct),
        null_ratio=column.null_ratio(),
        sketch=frozenset(map(_normalise, distinct[:SKETCH_SIZE])),
        source=column,
        numeric_min=float(distinct[0]) if numeric else None,
        numeric_max=float(distinct[-1]) if numeric else None,
    )


def profile_table(table: Table) -> TableProfile:
    """Profile every column of ``table``."""
    return TableProfile(
        table_name=table.name,
        columns=tuple(
            profile_column(table.column(name), table.name, name)
            for name in table.column_names
        ),
    )


class ProfileCache:
    """Per-table memo of :func:`profile_table`, safe against ``id()`` reuse.

    Entries are keyed on ``id(table)`` (tables are unhashable by value and
    must not be kept alive by a matcher) but guarded by a weak reference:
    a bare id() key can be silently reused for a *different* table once
    the original is garbage-collected, serving a stale profile.  The
    stored weakref proves the entry still belongs to this exact object,
    and its callback evicts the entry when the table dies (unless the
    slot was already re-occupied by a live table).

    The callback reaches the cache through a weak reference only, so the
    cache — and the matcher owning it — is never part of a reference
    cycle and is freed by refcount the moment its owner is dropped.
    """

    def __init__(self):
        self._entries: dict[int, tuple[weakref.ref[Table], TableProfile]] = {}

    def __len__(self) -> int:
        return len(self._entries)

    def get(self, table: Table) -> TableProfile:
        """The cached ``profile_table(table)``, computed on first sight."""
        key = id(table)
        entry = self._entries.get(key)
        if entry is not None and entry[0]() is table:
            return entry[1]
        value = profile_table(table)
        cache_ref = weakref.ref(self)

        def evict(ref: weakref.ref) -> None:
            cache = cache_ref()
            if cache is not None:
                cache._evict(key, ref)

        self._entries[key] = (weakref.ref(table, evict), value)
        return value

    def _evict(self, key: int, ref: weakref.ref) -> None:
        entry = self._entries.get(key)
        if entry is not None and entry[0] is ref:
            del self._entries[key]
