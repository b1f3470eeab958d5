"""Unit tests for the column cardinality statistics."""

import pytest

from repro.dataframe import distinct_count, uniqueness
from repro.dataframe.column import Column


class TestUniqueness:
    def test_all_distinct_is_one(self):
        assert uniqueness(Column([1, 2, 3])) == 1.0

    def test_repeats_lower_score(self):
        assert uniqueness(Column([1, 1, 1, 2])) == pytest.approx(0.5)

    def test_empty_is_zero(self):
        assert uniqueness(Column([])) == 0.0

    def test_all_null_is_zero(self):
        assert uniqueness(Column([None, None])) == 0.0

    def test_distinct_count(self):
        assert distinct_count(Column([1, 1, 2, None])) == 2
