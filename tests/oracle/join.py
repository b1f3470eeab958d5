"""Joins as the paper states them, and the independent join reference.

The pipeline never materialises a one-shot join: a discovery hop walks
its path's chain of row maps (``JoinIndex.probe`` / ``gather``) and
training's ``materialize_path`` attaches along them.  The wrappers here —
:func:`left_join`, :func:`inner_join`, :func:`index_left_join` and
:func:`dedup_by_key` — compose those same kernels into the textbook
operations the tests speak in; ``drop_right_key`` (leave the right join
key out of the result) is theirs alone, the pipeline always keeps it.

The ``reference_*`` functions are the **independent join reference** the
encoded kernels are held to (``tests/engine/test_encoded_parity.py``): a
dict-of-boxed-scalars dedup + index + probe, row by row.  They share only
``normalize_key`` (what makes two keys equal) and
``_representative_index`` (which duplicate survives) with
``repro.dataframe.join``.
"""

import numpy as np

from repro.dataframe import Column, JoinIndex, Table, gather_rows, normalize_key
from repro.dataframe.join import _representative_index
from repro.errors import JoinError


def dedup_by_key(table: Table, key_column: str, seed: int = 0) -> Table:
    """``table`` reduced to one representative row per ``key_column`` value.

    Null and NaN keys are dropped (they match no probe); the representative
    is the seeded per-key pick of ``_representative_index``.
    """
    return JoinIndex.build(table, key_column, seed=seed).build_table


def index_left_join(
    index: JoinIndex, left: Table, left_on: str, drop_right_key: bool = False
) -> Table:
    """Probe ``index`` with ``left`` and gather its build columns onto it."""
    if left_on not in left:
        raise JoinError(f"left table {left.name!r} has no join column {left_on!r}")
    return _attach(index, left, index.probe(left.column(left_on)), drop_right_key)


def _attach(
    index: JoinIndex, left: Table, row_map: np.ndarray, drop_right_key: bool
) -> Table:
    """``index.attach``, or the same gather without the right join key:
    the key takes no name, so a later column may take the one it would."""
    if not drop_right_key:
        return index.attach(left, row_map)
    out = {name: left.column(name) for name in left.column_names}
    for name in index.build_table.column_names:
        if name == index.key_column:
            continue
        out_name = name
        while out_name in out:
            out_name = f"{out_name}_r"
        out[out_name] = gather_rows(index.build_table.column(name), row_map)
    return Table(out, name=left.name)


def left_join(
    left: Table,
    right: Table,
    left_on: str,
    right_on: str,
    seed: int = 0,
    drop_right_key: bool = False,
    index: JoinIndex | None = None,
) -> Table:
    """Left join preserving ``left``'s row count exactly (paper §IV-B).

    The right side is first reduced to one row per key.  A right column
    whose name ``left`` holds is suffixed ``_r``; unmatched probe rows
    carry nulls.  A prebuilt ``index`` replaces ``right`` / ``right_on`` /
    ``seed``.
    """
    if left_on not in left:
        raise JoinError(f"left table {left.name!r} has no join column {left_on!r}")
    if index is None:
        index = JoinIndex.build(right, right_on, seed=seed)
    return index_left_join(index, left, left_on, drop_right_key)


def inner_join(
    left: Table,
    right: Table,
    left_on: str,
    right_on: str,
    seed: int = 0,
    drop_right_key: bool = False,
    index: JoinIndex | None = None,
) -> Table:
    """:func:`left_join` with the unmatched probe rows cut — the join the
    paper rejects because dropping rows skews the label distribution."""
    if left_on not in left:
        raise JoinError(f"left table {left.name!r} has no join column {left_on!r}")
    if index is None:
        index = JoinIndex.build(right, right_on, seed=seed)
    row_map = index.probe(left.column(left_on))
    return _attach(index, left, row_map, drop_right_key).filter(row_map >= 0)


def reference_key(value):
    """The dict key of a cell, or None when the cell can never match.

    Nulls never match; neither does NaN, which equals no probe value.
    """
    key = normalize_key(value)
    return None if key is None or key != key else key


def reference_dedup_picks(column: Column, seed: int) -> np.ndarray:
    """Row of the representative of every distinct key, ascending."""
    groups: dict = {}
    for i, value in enumerate(column):
        key = reference_key(value)
        if key is not None:
            groups.setdefault(key, []).append(i)
    picks = sorted(
        _representative_index(rows, key, seed) for key, rows in groups.items()
    )
    return np.asarray(picks, dtype=np.int64)


def reference_join_index(
    table: Table, key_column: str, seed: int
) -> tuple[Table, dict]:
    """``(build table, {key: build row})`` the way a row-by-row scan finds it."""
    build = table.take(reference_dedup_picks(table.column(key_column), seed))
    index: dict = {}
    for i, value in enumerate(build.column(key_column)):
        key = reference_key(value)
        if key is not None:
            index[key] = i
    return build, index


def reference_left_join_table(
    left: Table, build: Table, index: dict, left_on: str
) -> Table:
    """Left join cell by cell through a :func:`reference_join_index`."""
    rows = [index.get(reference_key(value)) for value in left.column(left_on)]
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


def reference_left_join(left_keys: list, right_keys: list, right_values: list) -> list:
    """Brute force over plain lists: the first build-side value per key."""
    lookup = {}
    for key, value in zip(right_keys, right_values):
        if key is not None and key not in lookup:
            lookup[key] = value
    return [lookup.get(k) if k is not None else None for k in left_keys]
