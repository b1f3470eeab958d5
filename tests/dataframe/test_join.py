"""Unit tests for left joins with cardinality control."""

import pytest

from repro.dataframe import Table
from repro.errors import JoinError
from tests.oracle.join import dedup_by_key, left_join


@pytest.fixture
def left():
    return Table({"id": [1, 2, 3, 4], "x": [10, 20, 30, 40]}, name="left")


@pytest.fixture
def right():
    return Table({"id": [1, 2, 9], "y": ["a", "b", "c"]}, name="right")


class TestLeftJoinBasics:
    def test_preserves_left_row_count(self, left, right):
        joined = left_join(left, right, "id", "id")
        assert joined.n_rows == left.n_rows

    def test_matches_values(self, left, right):
        joined = left_join(left, right, "id", "id")
        assert joined.column("y").to_list() == ["a", "b", None, None]

    def test_unmatched_rows_are_null(self, left, right):
        joined = left_join(left, right, "id", "id")
        assert joined.column("y").null_count() == 2

    def test_keeps_left_columns_first(self, left, right):
        joined = left_join(left, right, "id", "id")
        assert joined.column_names[:2] == ["id", "x"]

    def test_right_key_kept_by_default(self, left, right):
        joined = left_join(left, right, "id", "id")
        assert "id_r" in joined  # collision-suffixed copy of the right key

    def test_drop_right_key(self, left, right):
        joined = left_join(left, right, "id", "id", drop_right_key=True)
        assert "id_r" not in joined

    def test_missing_left_column_raises(self, left, right):
        with pytest.raises(JoinError):
            left_join(left, right, "nope", "id")

    def test_missing_right_column_raises(self, left, right):
        with pytest.raises(JoinError):
            left_join(left, right, "id", "nope")

    def test_join_result_keeps_left_name(self, left, right):
        assert left_join(left, right, "id", "id").name == "left"

    def test_null_keys_never_match(self):
        left = Table({"id": [1, None], "x": [1, 2]}, name="l")
        right = Table({"id": [1, None], "y": [10, 20]}, name="r")
        joined = left_join(left, right, "id", "id", drop_right_key=True)
        assert joined.column("y").to_list() == [10, None]

    def test_int_float_keys_compare_equal(self):
        left = Table({"id": [1.0, 2.0]}, name="l")
        right = Table({"id": [1, 2], "y": [10, 20]}, name="r")
        joined = left_join(left, right, "id", "id", drop_right_key=True)
        assert joined.column("y").to_list() == [10, 20]

    def test_string_keys(self):
        left = Table({"k": ["a", "b"]}, name="l")
        right = Table({"k": ["b"], "y": [1]}, name="r")
        joined = left_join(left, right, "k", "k", drop_right_key=True)
        assert joined.column("y").to_list() == [None, 1]

    def test_empty_right_table(self, left):
        right = Table({"id": [], "y": []}, name="r")
        joined = left_join(left, right, "id", "id", drop_right_key=True)
        assert joined.column("y").null_count() == 4


class TestCardinalityControl:
    def test_one_to_many_is_deduplicated(self, left):
        right = Table({"id": [1, 1, 1, 2], "y": [1, 2, 3, 4]}, name="r")
        joined = left_join(left, right, "id", "id", drop_right_key=True)
        assert joined.n_rows == left.n_rows
        assert joined.column("y")[0] in (1, 2, 3)

    def test_dedup_is_deterministic(self, left):
        right = Table({"id": [1, 1, 1, 2], "y": [1, 2, 3, 4]}, name="r")
        a = left_join(left, right, "id", "id", seed=7)
        b = left_join(left, right, "id", "id", seed=7)
        assert a == b

    def test_dedup_varies_with_seed(self, left):
        right = Table({"id": [1] * 50, "y": list(range(50))}, name="r")
        picks = {
            left_join(left, right, "id", "id", seed=s).column("y")[0]
            for s in range(20)
        }
        assert len(picks) > 1


class TestDedupByKey:
    def test_one_row_per_key(self):
        t = Table({"k": [1, 1, 2, 2, 2], "v": [1, 2, 3, 4, 5]}, name="t")
        out = dedup_by_key(t, "k")
        assert out.n_rows == 2
        assert sorted(out.column("k").to_list()) == [1, 2]

    def test_null_keys_dropped(self):
        t = Table({"k": [1, None], "v": [1, 2]}, name="t")
        assert dedup_by_key(t, "k").n_rows == 1

    def test_deterministic_per_seed(self):
        t = Table({"k": [1] * 10, "v": list(range(10))}, name="t")
        assert dedup_by_key(t, "k", seed=3) == dedup_by_key(t, "k", seed=3)
