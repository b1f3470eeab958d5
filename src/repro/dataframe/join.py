"""Left-join kernels with cardinality control: build once, probe by row map.

AutoFeat only ever performs *left* joins so that the base table keeps its
row count and label distribution (paper Section IV-B).  To guarantee this
even for 1:N and N:M joins, the right-hand side is first reduced to one
representative row per join-key value ("group by the join column and
randomly select a row", ARDA-style).  We make the random choice
deterministic: the representative is picked with a seeded RNG keyed on the
join-key value, so repeated runs — and the path ranking that depends on
them — are reproducible.

Join execution is split into two phases so the expensive half can be
reused across join paths:

* **build** — :meth:`JoinIndex.build` deduplicates the right table and
  indexes its key column once;
* **probe** — :meth:`JoinIndex.probe` maps any stream of left-hand keys
  onto build-side row indices (the *row map*), and
  :meth:`JoinIndex.attach` gathers the build columns along it onto the
  probe table (probe + attach is one left join; only training's
  ``materialize_path`` builds that table).

A caller that only needs to *score* what a join would bring does not need
the joined table at all: :meth:`JoinIndex.null_count` answers the
completeness statistic from the row map, :meth:`JoinIndex.gather`
returns the build columns' float matrix and rank codes along it, and
:func:`gather_rows` reads any one column along a map — how the next hop
reads its probe key from this hop's build table, so a join path is a chain
of row maps and no joined table is needed to walk it.  The rank
codes (:func:`~repro.dataframe.encoding.rank_codes`) are derived once per
build column and kept on the index, so a table reached by many join paths
is ranked once, not once per hop.

Both phases run on **dictionary-encoded keys**: the key column is interned
once into dense int32 codes by a
:class:`~repro.dataframe.encoding.KeyDictionary`, deduplication groups
rows with one stable argsort over the codes, and probes are a
``searchsorted`` + gather over integers instead of a Python dict of boxed
scalars.  Their independent reference is the dict-of-boxed-scalars join in
``tests/oracle/join.py``, which shares only
:func:`~repro.dataframe.encoding.normalize_key` (through the
:class:`~repro.dataframe.encoding.KeyDictionary`) and
:func:`_representative_index` (the CRC-seeded per-key RNG pick) with this
module; the hypothesis suite in ``tests/engine/test_encoded_parity.py``
holds the two identical to the bit.  The one-shot ``left_join`` /
``inner_join`` / ``dedup_by_key`` the tests speak in live there too; the
execution engine in :mod:`repro.engine` holds ``JoinIndex`` objects in a
cache so that a table probed by many paths is only ever built once.
"""

from __future__ import annotations

import zlib
from typing import Any, Iterable

import numpy as np

from ..errors import JoinError
from .column import Column, DType
from .encoding import CODE_NULL, KeyDictionary, dense_codes, rank_codes
from .table import Table

__all__ = ["JoinIndex", "gather_rows"]


def _representative_index(indices, key: Any, seed: int) -> int:
    """Deterministically pick one row index from a join-key group.

    A per-key RNG is derived from a CRC of the key and the global seed, so
    the pick is stable across runs and independent of how the group was
    assembled (the encoded kernel here, or the dict-based test reference).
    """
    if len(indices) == 1:
        return indices[0]
    digest = zlib.crc32(repr(key).encode("utf-8"))
    rng = np.random.default_rng((seed * 0x9E3779B1 + digest) & 0xFFFFFFFF)
    return indices[int(rng.integers(len(indices)))]


def _encoded_dedup_picks(
    codes: np.ndarray, dictionary: KeyDictionary, seed: int
) -> np.ndarray:
    """Representative row per distinct code, sorted ascending.

    The deduplication of :meth:`JoinIndex.build`: one stable argsort groups
    the rows of every key (ascending row order within a group, the order
    a row-by-row scan accumulates them), singleton groups resolve without
    touching Python, and only keys that actually have duplicates pay the
    per-key digest-seeded RNG pick.
    """
    valid_rows = np.flatnonzero(codes >= 0)
    if len(valid_rows) == 0:
        return valid_rows.astype(np.int64)
    group_codes = codes[valid_rows]
    order = np.argsort(group_codes, kind="stable")
    sorted_rows = valid_rows[order]
    sorted_codes = group_codes[order]
    boundaries = np.flatnonzero(np.diff(sorted_codes)) + 1
    starts = np.concatenate(([0], boundaries))
    ends = np.concatenate((boundaries, [len(sorted_codes)]))
    picks = np.empty(len(starts), dtype=np.int64)
    singleton = (ends - starts) == 1
    picks[singleton] = sorted_rows[starts[singleton]]
    for g in np.flatnonzero(~singleton):
        start, end = starts[g], ends[g]
        key = dictionary.key(int(sorted_codes[start]))
        picks[g] = _representative_index(sorted_rows[start:end], key, seed)
    picks.sort()
    return picks


class JoinIndex:
    """The build side of a hash join: a deduped table plus its key index.

    Built once per ``(table, key_column, seed)`` and probed arbitrarily
    many times — this is the unit the :class:`repro.engine.HopCache`
    memoizes across join paths.  The index is immutable after ``build``.

    The index carries the key column's
    :class:`~repro.dataframe.encoding.KeyDictionary` plus a dense
    ``code → build row`` gather table; a probe with a :class:`Column`
    encodes it against the dictionary and gathers through that table.

    Per build column it also keeps, derived on first use, the column's
    rank codes, and per build row its null count: what :meth:`gather`
    and :meth:`null_count` read.  Both derivations are idempotent, so the
    unlocked lazy init is thread-safe.
    """

    __slots__ = (
        "build_table",
        "key_column",
        "seed",
        "dictionary",
        "_code_rows",
        "_rank_codes",
        "_row_nulls",
    )

    def __init__(
        self,
        build_table: Table,
        key_column: str,
        seed: int,
        dictionary: KeyDictionary,
        code_rows: np.ndarray,
    ):
        self.build_table = build_table
        self.key_column = key_column
        self.seed = seed
        #: The source key column's interned universe.
        self.dictionary = dictionary
        #: Dense gather table mapping a dictionary code to its build row.
        self._code_rows = code_rows
        #: ``build column -> rank codes of its to_float() values``.
        self._rank_codes: dict[str, np.ndarray] = {}
        self._row_nulls: np.ndarray | None = None

    @classmethod
    def build(cls, table: Table, key_column: str, seed: int = 0) -> "JoinIndex":
        """Deduplicate ``table`` on ``key_column`` and index the survivors.

        Deduplication keeps one representative row per key (see
        :func:`_representative_index`) and drops rows whose key is null or
        NaN: neither equals any probe value.
        """
        if key_column not in table:
            raise JoinError(
                f"right table {table.name!r} has no join column {key_column!r}"
            )
        dictionary = KeyDictionary.from_column(table.column(key_column))
        picks = _encoded_dedup_picks(dictionary.codes, dictionary, seed)
        # Every survivor has a key: build row i holds code codes[picks[i]].
        code_rows = np.full(dictionary.n_keys, -1, dtype=np.int64)
        code_rows[dictionary.codes[picks]] = np.arange(len(picks))
        return cls(table.take(picks), key_column, seed, dictionary, code_rows)

    def probe(self, keys: Column) -> np.ndarray:
        """Map probe-side key values onto build-side row indices.

        Returns an int64 gather array aligned with ``keys``; unmatched or
        null keys map to ``-1``.  Vectorised: encode against the build
        dictionary, gather through the code table.
        """
        codes = self.dictionary.encode_column(keys)
        if self.dictionary.n_keys == 0:
            return np.full(len(codes), -1, dtype=np.int64)
        gather = self._code_rows[np.clip(codes, 0, None)]
        return np.where(codes >= 0, gather, -1)

    def output_names(self, left_names: Iterable[str]) -> list[tuple[str, str]]:
        """``(build column, output name)`` of every column a join writes.

        A build column whose name the running join already holds is
        suffixed with ``"_r"`` until it is free; :meth:`attach` writes
        exactly these names.
        """
        taken = set(left_names)
        names = []
        for name in self.build_table.column_names:
            out_name = name
            while out_name in taken:
                out_name = f"{out_name}_r"
            taken.add(out_name)
            names.append((name, out_name))
        return names

    def attach(self, left: Table, row_map: np.ndarray) -> Table:
        """Gather build rows onto ``left`` along a probe's row map."""
        out = {name: left.column(name) for name in left.column_names}
        for name, out_name in self.output_names(left.column_names):
            out[out_name] = gather_rows(self.build_table.column(name), row_map)
        return Table(out, name=left.name)

    def rank_codes(self, name: str) -> np.ndarray:
        """The rank codes of build column ``name``'s ``to_float()`` values.

        ``int32``, -1 where that value is not finite (nulls included);
        derived on first use and kept for the life of the index.
        """
        codes = self._rank_codes.get(name)
        if codes is None:
            codes = rank_codes(self.build_table.column(name).to_float())
            self._rank_codes[name] = codes
        return codes

    def null_count(self, row_map: np.ndarray) -> int:
        """Null cells a join along ``row_map`` writes into the build columns.

        Every build column is null on an unmatched row; a matched row adds
        its build row's own nulls.  Equal to the null count of those
        columns in :meth:`attach`'s table, without building it.
        """
        build = self.build_table
        if self._row_nulls is None:
            row_nulls = np.zeros(build.n_rows, dtype=np.int64)
            for name in build.column_names:
                row_nulls += build.column(name).mask
            self._row_nulls = row_nulls
        matched = row_map[row_map >= 0]
        unmatched = len(row_map) - len(matched)
        return unmatched * build.n_cols + int(self._row_nulls[matched].sum())

    def gather(
        self, row_map: np.ndarray, names: list[str]
    ) -> tuple[np.ndarray, np.ndarray]:
        """Build columns ``names`` along ``row_map``, without a table.

        Returns ``(matrix, codes)``: ``matrix`` is the (rows × columns)
        float64 matrix that ``attach(...).numeric_matrix`` would return for
        those columns, byte for byte; ``codes`` is (columns × rows)
        ``int32``, each row the column's :meth:`rank_codes` gathered along
        the row map (-1 on unmatched rows) — ordered like the matrix
        column's values and -1 exactly where they are not finite.  A STRING
        column's values are its dense rank over the codes present, as
        ``Column.to_float`` label-encodes the gathered strings.
        """
        n, d = len(row_map), len(names)
        matrix = np.full((d, n), np.nan, dtype=np.float64)
        codes = np.full((d, n), CODE_NULL, dtype=np.int32)
        if self.build_table.n_rows == 0:
            return matrix.T, codes
        matched = row_map >= 0
        safe = np.where(matched, row_map, 0)
        unmatched = ~matched
        for j, name in enumerate(names):
            column = self.build_table.column(name)
            gathered = self.rank_codes(name)[safe]
            gathered[unmatched] = CODE_NULL
            codes[j] = gathered
            if column.dtype is DType.STRING:
                dense = dense_codes(gathered)
                present = dense >= 0
                matrix[j, present] = dense[present]
                continue
            values = matrix[j]
            values[:] = column.values[safe]
            values[column.mask[safe] | unmatched] = np.nan
        return matrix.T, codes


def gather_rows(column: Column, row_map: np.ndarray) -> Column:
    """``column`` read along ``row_map``: null where the map holds -1."""
    if len(column) == 0:
        return Column.nulls(len(row_map), dtype=column.dtype)
    matched = row_map >= 0
    safe = np.where(matched, row_map, 0)
    # The constructor writes the null fill (None for STRING) under the mask.
    return Column(
        column.values[safe], dtype=column.dtype, mask=column.mask[safe] | ~matched
    )

