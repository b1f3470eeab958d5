"""Unit tests for imputation strategies."""

import pytest

from repro.dataframe import (
    Column,
    impute_constant,
    impute_mean,
    impute_median,
    impute_most_frequent,
)
from repro.errors import SchemaError


class TestMostFrequent:
    def test_fills_with_mode(self):
        col = impute_most_frequent(Column([1, 1, 2, None]))
        assert col.to_list() == [1, 1, 2, 1]

    def test_no_nulls_returns_same(self):
        col = Column([1, 2])
        assert impute_most_frequent(col) is col

    def test_all_null_unchanged(self):
        col = Column([None, None])
        assert impute_most_frequent(col).null_count() == 2

    def test_strings(self):
        col = impute_most_frequent(Column(["a", "a", None]))
        assert col.to_list() == ["a", "a", "a"]


class TestMeanMedian:
    def test_mean(self):
        col = impute_mean(Column([1.0, 3.0, None]))
        assert col.to_list() == [1.0, 3.0, 2.0]

    def test_mean_int_rounds(self):
        col = impute_mean(Column([1, 2, None]))
        assert col.dtype.value == "int"
        assert col[2] == 2

    def test_median(self):
        col = impute_median(Column([1.0, 2.0, 100.0, None]))
        assert col[3] == 2.0

    def test_mean_on_string_raises(self):
        with pytest.raises(SchemaError):
            impute_mean(Column(["a", None]))

    def test_median_on_string_raises(self):
        with pytest.raises(SchemaError):
            impute_median(Column(["a", None]))


class TestConstant:
    def test_fills(self):
        assert impute_constant(Column([None, 1]), 9).to_list() == [9, 1]
