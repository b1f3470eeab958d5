"""Property-based tests (hypothesis) for the table engine's invariants."""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.dataframe import Column, Table, from_csv_text, to_csv_text
from repro.dataframe.sampling import stratified_sample, train_test_split_indices
from tests.oracle.join import left_join

# Strategies -------------------------------------------------------------------

cell_values = st.one_of(
    st.none(),
    st.integers(min_value=-1000, max_value=1000),
    st.floats(allow_nan=False, allow_infinity=False, width=32),
    st.text(alphabet="abcxyz_0123456789", min_size=0, max_size=8),
    st.booleans(),
)

int_lists = st.lists(
    st.one_of(st.none(), st.integers(min_value=-50, max_value=50)),
    min_size=1,
    max_size=60,
)


@st.composite
def homogeneous_column(draw):
    kind = draw(st.sampled_from(["int", "float", "str", "bool"]))
    n = draw(st.integers(min_value=1, max_value=50))
    if kind == "int":
        base = st.integers(min_value=-100, max_value=100)
    elif kind == "float":
        base = st.floats(allow_nan=False, allow_infinity=False, width=32)
    elif kind == "bool":
        base = st.booleans()
    else:
        base = st.text(alphabet="abc_123", max_size=6)
    return draw(st.lists(st.one_of(st.none(), base), min_size=n, max_size=n))


# Column invariants --------------------------------------------------------------


@given(homogeneous_column())
def test_column_roundtrips_values(values):
    col = Column(values)
    out = col.to_list()
    assert len(out) == len(values)
    # Nulls survive exactly where Nones were put.
    for raw, back in zip(values, out):
        if raw is None:
            assert back is None


@given(homogeneous_column())
def test_null_count_matches_mask(values):
    col = Column(values)
    assert col.null_count() == int(col.mask.sum())
    assert 0.0 <= col.null_ratio() <= 1.0


@given(homogeneous_column(), st.integers(min_value=0, max_value=10))
def test_take_length(values, k):
    col = Column(values)
    indices = [i % len(col) for i in range(k)]
    assert len(col.take(indices)) == k


@given(homogeneous_column())
def test_unique_is_sorted_and_distinct(values):
    uniques = Column(values).unique()
    assert uniques == sorted(set(uniques), key=uniques.index) or uniques == sorted(
        uniques, key=str
    ) or len(set(map(str, uniques))) == len(uniques)
    assert len(set(map(str, uniques))) == len(uniques)


# Join invariants -----------------------------------------------------------------


@given(int_lists, int_lists, st.integers(min_value=0, max_value=99))
@settings(max_examples=60)
def test_left_join_preserves_probe_rows(left_keys, right_keys, seed):
    left = Table({"k": left_keys, "x": list(range(len(left_keys)))}, name="l")
    right = Table({"k": right_keys, "y": list(range(len(right_keys)))}, name="r")
    joined = left_join(left, right, "k", "k", seed=seed)
    assert joined.n_rows == left.n_rows
    # Left columns are unchanged by the join.
    assert joined.column("x").to_list() == left.column("x").to_list()


@given(int_lists, int_lists)
@settings(max_examples=60)
def test_left_join_matches_only_existing_keys(left_keys, right_keys):
    left = Table({"k": left_keys}, name="l")
    right = Table({"k": right_keys, "y": [1] * len(right_keys)}, name="r")
    joined = left_join(left, right, "k", "k", drop_right_key=True)
    present = {k for k in right_keys if k is not None}
    for i, key in enumerate(left_keys):
        matched = joined.column("y")[i] is not None
        assert matched == (key in present)


# Sampling invariants -----------------------------------------------------------------


@given(
    st.integers(min_value=20, max_value=300),
    st.floats(min_value=0.1, max_value=0.9),
    st.integers(min_value=0, max_value=99),
)
@settings(max_examples=40)
def test_split_partitions_rows(n, fraction, seed):
    rng = np.random.default_rng(seed)
    y = rng.integers(0, 2, n)
    train, test = train_test_split_indices(n, y, 0.25, seed=seed)
    merged = sorted(list(train) + list(test))
    assert merged == list(range(n))


@given(st.integers(min_value=50, max_value=400), st.integers(min_value=0, max_value=99))
@settings(max_examples=30)
def test_stratified_sample_is_subset(n, seed):
    rng = np.random.default_rng(seed)
    t = Table(
        {"i": list(range(n)), "label": rng.integers(0, 2, n)}, name="t"
    )
    out = stratified_sample(t, "label", max(2, n // 3), seed=seed)
    values = out.column("i").to_list()
    assert len(values) == len(set(values))
    assert set(values) <= set(range(n))


# CSV roundtrip -----------------------------------------------------------------------


@given(st.lists(st.integers(min_value=-99, max_value=99), min_size=1, max_size=30))
def test_csv_roundtrip_ints(values):
    t = Table({"a": values}, name="t")
    assert from_csv_text(to_csv_text(t)).column("a").to_list() == values


@given(
    st.lists(
        st.text(alphabet="abcdef ghi", min_size=1, max_size=10),
        min_size=1,
        max_size=20,
    )
)
def test_csv_roundtrip_strings(values):
    t = Table({"a": values}, name="t")
    assert from_csv_text(to_csv_text(t)).column("a").to_list() == values
