"""Unit tests for the typed, null-aware Column."""

import numpy as np
import pytest

from repro.dataframe import Column, DType
from repro.errors import SchemaError


class TestConstruction:
    def test_infers_int(self):
        col = Column([1, 2, 3])
        assert col.dtype is DType.INT
        assert list(col) == [1, 2, 3]

    def test_infers_float(self):
        col = Column([1.5, 2.0])
        assert col.dtype is DType.FLOAT

    def test_mixed_int_float_infers_float(self):
        col = Column([1, 2.5])
        assert col.dtype is DType.FLOAT

    def test_infers_bool(self):
        col = Column([True, False])
        assert col.dtype is DType.BOOL

    def test_infers_string(self):
        col = Column(["a", "b"])
        assert col.dtype is DType.STRING

    def test_mixed_with_string_infers_string(self):
        col = Column([1, "b"])
        assert col.dtype is DType.STRING
        assert col[0] == "1"

    def test_all_none_infers_float(self):
        col = Column([None, None])
        assert col.dtype is DType.FLOAT
        assert col.null_count() == 2

    def test_none_marks_null(self):
        col = Column([1, None, 3])
        assert col[1] is None
        assert col.null_count() == 1

    def test_nan_marks_null_in_float(self):
        col = Column([1.0, float("nan"), 3.0])
        assert col.null_count() == 1
        assert col[1] is None

    def test_nan_with_ints_stays_int(self):
        col = Column([1, float("nan"), 3])
        assert col.dtype is DType.INT
        assert col[1] is None

    def test_from_numpy_float_array(self):
        col = Column(np.array([1.0, np.nan, 3.0]))
        assert col.dtype is DType.FLOAT
        assert col.null_count() == 1

    def test_from_numpy_int_array(self):
        col = Column(np.array([1, 2, 3], dtype=np.int32))
        assert col.dtype is DType.INT

    def test_from_numpy_bool_array(self):
        col = Column(np.array([True, False]))
        assert col.dtype is DType.BOOL

    def test_explicit_mask(self):
        col = Column([1, 2, 3], mask=np.array([False, True, False]))
        assert col[1] is None
        assert col[0] == 1

    def test_mask_length_mismatch_raises(self):
        with pytest.raises(SchemaError):
            Column([1, 2, 3], mask=np.array([True]))

    def test_explicit_dtype_casts(self):
        col = Column([1, 2], dtype=DType.FLOAT)
        assert col.dtype is DType.FLOAT
        assert col[0] == 1.0

    def test_values_are_read_only(self):
        col = Column([1, 2, 3])
        with pytest.raises(ValueError):
            col.values[0] = 9


class TestAccess:
    def test_len(self):
        assert len(Column([1, 2, 3])) == 3

    def test_iteration_yields_python_values(self):
        values = list(Column([1, 2]))
        assert all(isinstance(v, int) for v in values)

    def test_getitem_non_null(self):
        assert Column(["x", "y"])[1] == "y"

    def test_repr_mentions_dtype(self):
        assert "int" in repr(Column([1]))

    def test_equality_same(self):
        assert Column([1, None, 3]) == Column([1, None, 3])

    def test_equality_different_values(self):
        assert Column([1, 2]) != Column([1, 3])

    def test_equality_different_masks(self):
        assert Column([1, None]) != Column([1, 2])

    def test_equality_different_dtypes(self):
        assert Column([1, 2]) != Column([1.0, 2.0])

    def test_equality_nan_values_under_mask_ignored(self):
        a = Column([1.0, None])
        b = Column(np.array([1.0, 99.0]), mask=np.array([False, True]))
        assert a == b


class TestNullAccounting:
    def test_null_ratio(self):
        assert Column([1, None, None, 4]).null_ratio() == 0.5

    def test_null_ratio_empty(self):
        assert Column([]).null_ratio() == 0.0

    def test_has_nulls(self):
        assert Column([None]).has_nulls()
        assert not Column([1]).has_nulls()


class TestTransforms:
    def test_take(self):
        col = Column([10, None, 30]).take([2, 0])
        assert list(col) == [30, 10]

    def test_take_preserves_nulls(self):
        col = Column([10, None, 30]).take([1, 1])
        assert col.null_count() == 2

    def test_filter(self):
        col = Column([1, 2, 3]).filter(np.array([True, False, True]))
        assert list(col) == [1, 3]

    def test_filter_wrong_length_raises(self):
        with pytest.raises(SchemaError):
            Column([1, 2]).filter(np.array([True]))

    # A cast is a construction with an explicit dtype; nulls stay nulls.
    def test_cast_int_to_float(self):
        col = Column([1, None], dtype=DType.FLOAT)
        assert col.dtype is DType.FLOAT
        assert col[1] is None

    def test_cast_to_string(self):
        col = Column([1, None], dtype=DType.STRING)
        assert list(col) == ["1", None]

    def test_cast_string_to_float(self):
        col = Column(["1.5", None], dtype=DType.FLOAT)
        assert col[0] == 1.5
        assert col[1] is None


class TestAnalytics:
    def test_unique_sorted(self):
        assert Column([3, 1, 2, 1, None]).unique() == [1, 2, 3]

    def test_unique_strings(self):
        assert Column(["b", "a", "b"]).unique() == ["a", "b"]

    @pytest.mark.parametrize(
        "column",
        [
            Column([3, 1, 2**53 + 1, 2**53, -(2**63), 2**63 - 1, 1, None]),
            Column([0.0, -0.0, 2.5, float("inf"), float("-inf"), 2.5, None, -1e-300]),
            Column([-0.0, 0.0]),
            Column([True, False, None, True]),
            Column([True]),
            Column(["b", "a", " a", "B", None, "b"]),
            Column([], dtype=DType.INT),
            Column([], dtype=DType.STRING),
            Column([None, None], dtype=DType.FLOAT),
            Column([None, None], dtype=DType.BOOL),
            Column.nulls(3, DType.STRING),
        ],
        ids=lambda c: f"{c.dtype.value}-{len(c)}",
    )
    def test_unique_equals_the_per_value_recipe(self, column):
        """The vectorised pass returns what the old set comprehension did."""
        present = column.non_null_values()
        if column.dtype is DType.STRING:
            expected = sorted({str(v) for v in present})
        else:
            expected = sorted({v.item() for v in present})
        result = column.unique()
        assert result == expected
        assert [type(v) for v in result] == [type(v) for v in expected]

    def test_unique_counts_an_unmasked_nan_once_and_last(self):
        # The old recipe kept one set entry per NaN and sorted them undefinedly.
        column = Column(np.array([np.nan, 2.0, np.nan, 1.0]), mask=np.zeros(4, dtype=bool))
        result = column.unique()
        assert result[:2] == [1.0, 2.0]
        assert len(result) == 3 and np.isnan(result[2])

    def test_value_counts(self):
        assert Column([1, 1, 2, None]).value_counts() == {1: 2, 2: 1}

    def test_to_float_numeric(self):
        out = Column([1, None, 3]).to_float()
        assert out[0] == 1.0
        assert np.isnan(out[1])

    def test_to_float_string_label_encodes(self):
        out = Column(["b", "a", "b", None]).to_float()
        assert out[0] == 1.0  # 'b' sorts after 'a'
        assert out[1] == 0.0
        assert np.isnan(out[3])

    def test_to_float_bool(self):
        out = Column([True, False]).to_float()
        assert list(out) == [1.0, 0.0]

    def test_non_null_values(self):
        assert list(Column([1, None, 3]).non_null_values()) == [1, 3]

    def test_to_list(self):
        assert Column([1, None]).to_list() == [1, None]

    @pytest.mark.parametrize(
        "column",
        [
            Column([3, None, -1, 2**40]),
            Column([1.5, None, float("nan"), -0.0, 1e300]),
            Column([True, None, False]),
            Column(["b", None, "", np.str_("numpy")]),
            Column(np.arange(5, dtype=np.int32)),
            Column(np.array([0.5, np.nan])),
            Column([]),
            Column.nulls(3, DType.STRING),
        ],
        ids=repr,
    )
    def test_to_list_and_iter_match_element_access(self, column):
        # The reference is the per-element walk the bulk conversion replaced:
        # same values, same Python types, None at the null slots.
        reference = [column[i] for i in range(len(column))]
        for produced in (column.to_list(), list(column)):
            assert [type(v) for v in produced] == [type(v) for v in reference]
            assert repr(produced) == repr(reference)  # repr: -0.0 stays -0.0
        assert column.to_list() is not column.to_list()


class TestFactories:
    def test_nulls_factory(self):
        col = Column.nulls(3, DType.STRING)
        assert len(col) == 3
        assert col.null_count() == 3
        assert col.dtype is DType.STRING

    def test_nulls_factory_float_default(self):
        assert Column.nulls(2).dtype is DType.FLOAT
