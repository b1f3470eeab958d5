"""Fuzz the hash left join against brute-force reference implementations.

This module also holds the **independent join reference** the encoded
kernels are held to (``tests/engine/test_encoded_parity.py``): a
dict-of-boxed-scalars dedup + index + probe, row by row.  It shares only
``normalize_key`` (what makes two keys equal) and ``_representative_index``
(which duplicate survives) with ``repro.dataframe.join``.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.dataframe import Column, Table, dedup_by_key, left_join, normalize_key
from repro.dataframe.join import _representative_index
from repro.errors import JoinError


def _reference_key(value):
    """The dict key of a cell, or None when the cell can never match.

    Nulls never match; neither does NaN, which equals no probe value.
    """
    key = normalize_key(value)
    return None if key is None or key != key else key


def reference_dedup_picks(column: Column, seed: int) -> np.ndarray:
    """Row of the representative of every distinct key, ascending."""
    groups: dict = {}
    for i, value in enumerate(column):
        key = _reference_key(value)
        if key is not None:
            groups.setdefault(key, []).append(i)
    picks = sorted(
        _representative_index(rows, key, seed) for key, rows in groups.items()
    )
    return np.asarray(picks, dtype=np.int64)


def reference_join_index(
    table: Table, key_column: str, seed: int, deduplicate: bool = True
) -> tuple[Table, dict]:
    """``(build table, {key: build row})`` the way a row-by-row scan finds it."""
    build = (
        table.take(reference_dedup_picks(table.column(key_column), seed))
        if deduplicate
        else table
    )
    index: dict = {}
    for i, value in enumerate(build.column(key_column)):
        key = _reference_key(value)
        if key is None:
            continue
        if key in index:
            raise JoinError(
                f"duplicate join key {value!r} in {table.name!r} with "
                "deduplicate=False; a left join would duplicate probe rows"
            )
        index[key] = i
    return build, index


def reference_left_join_table(
    left: Table, build: Table, index: dict, left_on: str
) -> Table:
    """Left join cell by cell through a :func:`reference_join_index`."""
    rows = [index.get(_reference_key(value)) for value in left.column(left_on)]
    out = {name: left.column(name) for name in left.column_names}
    for name in build.column_names:
        out_name = name
        while out_name in out:
            out_name = f"{out_name}_r"
        source = build.column(name)
        cells = [None if row is None else source[row] for row in rows]
        out[out_name] = Column(
            cells, dtype=source.dtype, mask=[cell is None for cell in cells]
        )
    return Table(out, name=left.name)


keys = st.lists(
    st.one_of(st.none(), st.integers(min_value=0, max_value=12)),
    min_size=1,
    max_size=40,
)


def reference_left_join(
    left_keys: list, right_keys: list, right_values: list
) -> list:
    """Brute force: first build-side row per key (post-dedup semantics)."""
    lookup = {}
    for key, value in zip(right_keys, right_values):
        if key is not None and key not in lookup:
            lookup[key] = value
    return [lookup.get(k) if k is not None else None for k in left_keys]


@given(keys, keys, st.integers(min_value=0, max_value=99))
@settings(max_examples=100)
def test_join_matches_reference_modulo_representative(left_keys, right_keys, seed):
    """Our join equals the reference once the same representative is fixed.

    The engine picks a seeded-random representative per duplicate key;
    feeding the *deduplicated* right table to the reference removes that
    freedom, after which outputs must agree exactly.
    """
    left = Table({"k": left_keys}, name="l")
    right = Table(
        {"k": right_keys, "v": list(range(len(right_keys)))}, name="r"
    )
    deduped = dedup_by_key(right, "k", seed=seed)
    expected = reference_left_join(
        left_keys,
        deduped.column("k").to_list(),
        deduped.column("v").to_list(),
    )
    joined = left_join(left, right, "k", "k", seed=seed, drop_right_key=True)
    assert joined.column("v").to_list() == expected


@given(keys, keys)
@settings(max_examples=60)
def test_match_pattern_independent_of_seed(left_keys, right_keys):
    """Which probe rows match never depends on the dedup seed."""
    left = Table({"k": left_keys}, name="l")
    right = Table({"k": right_keys, "v": list(range(len(right_keys)))}, name="r")
    masks = []
    for seed in (0, 7, 42):
        joined = left_join(left, right, "k", "k", seed=seed, drop_right_key=True)
        masks.append(tuple(v is None for v in joined.column("v").to_list()))
    assert masks[0] == masks[1] == masks[2]
