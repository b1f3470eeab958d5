"""Property-based parity of the dictionary-encoded join kernels.

The determinism contract of the encoded kernels (DESIGN.md §13), driven
over hypothesis-drawn inputs: build, dedup and probe return exactly what
the dict-of-boxed-scalars reference in
``tests/oracle/join.py`` returns — same rows, same row
order, same dedup representatives.
"""

import numpy as np
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.dataframe import Column, DType, JoinIndex, Table
from tests.oracle.join import (
    dedup_by_key,
    index_left_join,
    reference_join_index,
    reference_left_join_table,
)


def table_fingerprint(table: Table):
    """Bit-exact rendering of a table: schema, row order, values, masks."""
    out = []
    for name in table.column_names:
        column = table.column(name)
        values = column.values
        if column.dtype is DType.FLOAT:
            # hex() so an unmasked NaN cell compares equal to itself.
            values = [v.hex() for v in values.tolist()]
        elif column.dtype is not DType.STRING:
            values = values.tolist()
        payload = tuple(None if m else v for v, m in zip(values, column.mask))
        out.append((name, column.dtype.name, payload))
    return tuple(out)


_key_columns = st.sampled_from(["int", "float", "float_nan", "str", "bool"])


def _column(kind: str, n: int, rng: np.random.Generator) -> Column:
    mask = rng.random(n) < 0.2
    if kind == "int":
        return Column(rng.integers(-4, 12, n), dtype=DType.INT, mask=mask)
    if kind == "float":
        values = rng.integers(-4, 12, n).astype(float) + rng.choice([0.0, 0.25], n)
        return Column(values, dtype=DType.FLOAT, mask=mask)
    if kind == "float_nan":
        # NaN cells under an all-False mask: not nulls to the Column, but
        # nulls to a join (NaN equals no probe value).
        values = rng.integers(-4, 12, n).astype(float) + rng.choice([0.0, 0.25], n)
        values[mask] = np.nan
        return Column(values, dtype=DType.FLOAT, mask=np.zeros(n, dtype=bool))
    if kind == "bool":
        return Column(rng.random(n) < 0.5, dtype=DType.BOOL, mask=mask)
    values = np.array([f"k{v}" for v in rng.integers(-4, 12, n)], dtype=object)
    return Column(values, dtype=DType.STRING, mask=mask)


@settings(
    max_examples=25,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large],
)
@given(
    left_kind=_key_columns,
    right_kind=_key_columns,
    n_left=st.integers(min_value=0, max_value=120),
    n_right=st.integers(min_value=0, max_value=60),
    seed=st.integers(min_value=0, max_value=2**16),
)
def test_join_kernels_bit_identical(left_kind, right_kind, n_left, n_right, seed):
    rng = np.random.default_rng(seed)
    left = Table(
        {"k": _column(left_kind, n_left, rng), "x": _column("float", n_left, rng)},
        name="L",
    )
    right = Table(
        {"k": _column(right_kind, n_right, rng), "y": _column("int", n_right, rng)},
        name="R",
    )
    ref_build, ref_index = reference_join_index(right, "k", seed)
    index = JoinIndex.build(right, "k", seed=seed)
    # Dedup representatives: same surviving rows in the same order.
    assert table_fingerprint(ref_build) == table_fingerprint(index.build_table)
    assert len(ref_index) == index.dictionary.n_keys
    assert table_fingerprint(ref_build) == table_fingerprint(
        dedup_by_key(right, "k", seed=seed)
    )
    # Cell-by-cell reference join vs the in-core probe.
    assert table_fingerprint(
        reference_left_join_table(left, ref_build, ref_index, "k")
    ) == table_fingerprint(index_left_join(index, left, "k"))
