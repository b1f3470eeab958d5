"""Build/probe join kernels: round-trips against the one-shot wrappers."""

import numpy as np
import pytest

from repro.dataframe import Column, JoinIndex, Table
from repro.errors import JoinError
from tests.oracle.join import dedup_by_key, index_left_join, inner_join, left_join


@pytest.fixture
def left():
    return Table({"id": [1, 2, 3, 4], "x": [0.1, 0.2, 0.3, 0.4]}, name="left")


# One build table per cardinality regime; expected values for key 1..4.
ONE_TO_ONE = Table({"id": [1, 2, 3], "v": [10.0, 20.0, 30.0]}, name="right")
ONE_TO_N = Table(
    {"id": [1, 1, 2, 2, 2, 3], "v": [1.0, 2.0, 3.0, 4.0, 5.0, 6.0]}, name="right"
)
N_TO_M = Table(
    {"id": [1, 1, 2, 3, 3, 3, None], "v": [7.0, 8.0, 9.0, 1.0, 2.0, 3.0, 4.0]},
    name="right",
)


class TestRoundTrip:
    @pytest.mark.parametrize("right", [ONE_TO_ONE, ONE_TO_N, N_TO_M])
    @pytest.mark.parametrize("seed", [0, 7])
    def test_build_probe_matches_one_shot_left_join(self, left, right, seed):
        via_wrapper = left_join(left, right, "id", "id", seed=seed)
        index = JoinIndex.build(right, "id", seed=seed)
        via_kernels = index_left_join(index, left, "id")
        assert via_kernels == via_wrapper

    @pytest.mark.parametrize("right", [ONE_TO_ONE, ONE_TO_N, N_TO_M])
    def test_prebuilt_index_accepted_by_wrapper(self, left, right):
        index = JoinIndex.build(right, "id", seed=3)
        assert left_join(left, right, "id", "id", seed=3, index=index) == left_join(
            left, right, "id", "id", seed=3
        )

    @pytest.mark.parametrize("right", [ONE_TO_ONE, ONE_TO_N, N_TO_M])
    def test_inner_join_round_trip(self, left, right):
        index = JoinIndex.build(right, "id", seed=0)
        assert inner_join(left, right, "id", "id", index=index) == inner_join(
            left, right, "id", "id"
        )

    def test_probe_is_repeatable(self, left):
        index = JoinIndex.build(ONE_TO_N, "id", seed=0)
        first = index_left_join(index, left, "id")
        second = index_left_join(index, left, "id")
        assert first == second

    def test_representative_choice_is_deterministic(self):
        index_a = JoinIndex.build(N_TO_M, "id", seed=5)
        index_b = JoinIndex.build(N_TO_M, "id", seed=5)
        assert index_a.build_table == index_b.build_table

    def test_build_table_is_deduped(self):
        index = JoinIndex.build(ONE_TO_N, "id")
        assert index.build_table == dedup_by_key(ONE_TO_N, "id")
        assert index.dictionary.n_keys == index.build_table.n_rows == 3


class TestProbe:
    def test_gather_semantics(self, left):
        index = JoinIndex.build(ONE_TO_ONE, "id")
        gather = index.probe(Column([3, 99, None, 1]))
        build_keys = index.build_table.column("id").to_list()
        assert gather[1] == gather[2] == -1
        assert build_keys[gather[0]] == 3
        assert build_keys[gather[3]] == 1

    def test_contains(self):
        # Membership is a one-row probe: 1, 1.0 and np.int64(1) all match.
        index = JoinIndex.build(ONE_TO_ONE, "id")
        for key in (1, 1.0, np.int64(1)):
            assert index.probe(Column([key]))[0] >= 0, key
        assert index.probe(Column([99]))[0] == -1

    def test_unmatched_probe_rows_are_null(self):
        probe = Table({"id": [1, 42]}, name="probe")
        index = JoinIndex.build(ONE_TO_ONE, "id")
        joined = index_left_join(index, probe, "id")
        assert joined.column("v").to_list() == [10.0, None]
        assert joined.n_rows == 2

    def test_missing_probe_column_raises(self, left):
        index = JoinIndex.build(ONE_TO_ONE, "id")
        with pytest.raises(JoinError):
            index_left_join(index, left, "nope")


class TestBuildErrors:
    def test_missing_key_column_raises(self):
        with pytest.raises(JoinError):
            JoinIndex.build(ONE_TO_ONE, "nope")


class TestNumpyKeyNormalisation:
    """numpy scalars must hash/digest like their Python twins."""

    def test_numpy_keys_probe_python_index(self):
        index = JoinIndex.build(ONE_TO_ONE, "id")
        gather = index.probe(Column([np.int64(1), np.float64(2.0), np.int64(99)]))
        assert (gather[:2] >= 0).all()
        assert gather[2] == -1

    def test_python_keys_probe_numpy_built_index(self):
        right = Table(
            {"id": np.array([1, 2, 3], dtype=np.int64), "v": [1.0, 2.0, 3.0]},
            name="right",
        )
        index = JoinIndex.build(right, "id")
        assert (index.probe(Column([1, 2.0, 3])) >= 0).all()

    def test_bool_keys_normalised(self):
        right = Table({"flag": [True, False], "v": [1.0, 2.0]}, name="right")
        index = JoinIndex.build(right, "flag")
        assert index.probe(Column([np.bool_(True)]))[0] >= 0
        assert (index.probe(Column([np.bool_(False), True])) >= 0).all()

    def test_representative_digest_stable_across_dtypes(self):
        """Same keys stored as int vs float vs numpy pick the same rows."""
        values = [1, 1, 2, 2, 3]
        payload = [10.0, 11.0, 20.0, 21.0, 30.0]
        as_int = Table({"id": values, "v": payload}, name="t")
        as_float = Table({"id": [float(v) for v in values], "v": payload}, name="t")
        as_np = Table(
            {"id": np.array(values, dtype=np.int64), "v": payload}, name="t"
        )
        for seed in (0, 1, 13):
            picks = {
                tuple(dedup_by_key(t, "id", seed=seed).column("v").to_list())
                for t in (as_int, as_float, as_np)
            }
            assert len(picks) == 1
