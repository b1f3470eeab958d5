"""Unit tests for inner joins and the class-skew effect (paper §IV-B)."""

import numpy as np
import pytest

from repro.dataframe import Table
from repro.errors import JoinError
from tests.oracle.join import inner_join, left_join


@pytest.fixture
def left():
    return Table({"id": [1, 2, 3, 4], "x": [10, 20, 30, 40]}, name="left")


@pytest.fixture
def right():
    return Table({"id": [1, 3, 9], "y": ["a", "b", "c"]}, name="right")


class TestInnerJoin:
    def test_drops_unmatched(self, left, right):
        joined = inner_join(left, right, "id", "id", drop_right_key=True)
        assert joined.column("id").to_list() == [1, 3]
        assert joined.column("y").to_list() == ["a", "b"]

    def test_no_nulls_in_contributed_columns(self, left, right):
        joined = inner_join(left, right, "id", "id", drop_right_key=True)
        assert joined.column("y").null_count() == 0

    def test_null_keys_excluded(self):
        left = Table({"id": [1, None]}, name="l")
        right = Table({"id": [1, None], "y": [9, 8]}, name="r")
        joined = inner_join(left, right, "id", "id", drop_right_key=True)
        assert joined.n_rows == 1

    def test_missing_column_raises(self, left, right):
        with pytest.raises(JoinError):
            inner_join(left, right, "nope", "id")

    def test_dedups_like_left_join(self, left):
        right = Table({"id": [1, 1, 2], "y": [1, 2, 3]}, name="r")
        joined = inner_join(left, right, "id", "id", drop_right_key=True)
        assert joined.n_rows == 2  # ids 1 and 2, once each

    def test_subset_of_left_join(self, left, right):
        outer = left_join(left, right, "id", "id", drop_right_key=True)
        inner = inner_join(left, right, "id", "id", drop_right_key=True)
        matched = outer.filter(~outer.column("y").mask)
        assert inner == matched


class TestClassSkew:
    def test_inner_join_skews_label_distribution(self):
        """The §IV-B argument: partial-match inner joins shift class ratios."""
        rng = np.random.default_rng(0)
        n = 1000
        label = (rng.random(n) < 0.3).astype(int)
        base = Table({"id": np.arange(n), "label": label}, name="base")
        # Satellite covering mostly positive-label rows.
        positive_rows = np.flatnonzero(label == 1)
        negative_rows = np.flatnonzero(label == 0)[:100]
        covered = np.concatenate([positive_rows, negative_rows])
        satellite = Table(
            {"id": covered, "y": rng.normal(0, 1, len(covered))}, name="sat"
        )
        outer = left_join(base, satellite, "id", "id", drop_right_key=True)
        inner = inner_join(base, satellite, "id", "id", drop_right_key=True)
        original_ratio = float(np.mean(label))
        outer_ratio = float(np.mean(outer.column("label").to_list()))
        inner_ratio = float(np.mean(inner.column("label").to_list()))
        assert outer_ratio == pytest.approx(original_ratio)  # preserved
        assert abs(inner_ratio - original_ratio) > 0.2  # badly skewed
