"""Unit tests for instance-based similarity."""

import os
import pickle
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro
from repro.dataframe import Column, DType, Table
from repro.discovery import (
    ComaMatcher,
    instance_similarity,
    numeric_range_overlap,
    profile_column,
    profile_table,
)
from repro.discovery.coma import ColumnMatch, _name_score
from repro.discovery.name_similarity import NameFeatures
from tests.matchers import pair_matches
from tests.oracle.overlap import (
    ValueOverlapMatcher,
    minhash_jaccard,
    sketch_containment,
    sketch_jaccard,
    tables_may_overlap,
)


def prof(values, name="c"):
    return profile_column(Column(values), "t", name)


class TestJaccardContainment:
    def test_identical_sets(self):
        a, b = prof([1, 2, 3]), prof([3, 2, 1])
        assert sketch_jaccard(a, b) == 1.0
        assert sketch_containment(a, b) == 1.0

    def test_disjoint_sets(self):
        a, b = prof([1, 2]), prof([3, 4])
        assert sketch_jaccard(a, b) == 0.0
        assert sketch_containment(a, b) == 0.0

    def test_subset_containment_full(self):
        small, big = prof([1, 2]), prof(list(range(100)))
        assert sketch_containment(small, big) == 1.0
        assert sketch_jaccard(small, big) < 0.05

    def test_half_overlap(self):
        a, b = prof([1, 2, 3, 4]), prof([3, 4, 5, 6])
        assert sketch_jaccard(a, b) == pytest.approx(2 / 6)
        assert sketch_containment(a, b) == pytest.approx(0.5)

    def test_empty_sets(self):
        a, b = prof([None]), prof([None])
        assert sketch_jaccard(a, b) == 0.0
        assert sketch_containment(a, b) == 0.0


class TestMinhash:
    def test_identical(self):
        assert minhash_jaccard(prof([1, 2, 3]), prof([1, 2, 3])) == 1.0

    def test_estimates_jaccard(self):
        rng = np.random.default_rng(0)
        shared = list(rng.integers(0, 10_000, 400))
        a = prof(shared + list(rng.integers(10_000, 20_000, 400)), "a")
        b = prof(shared + list(rng.integers(20_000, 30_000, 400)), "b")
        true_jaccard = len(set(shared)) / len(
            set(a.sketch) | set(b.sketch) | set(map(str, shared))
        )
        estimate = minhash_jaccard(a, b)
        assert estimate == pytest.approx(1 / 3, abs=0.2)

    def test_disjoint_near_zero(self):
        a, b = prof(list(range(500)), "a"), prof(list(range(1000, 1500)), "b")
        assert minhash_jaccard(a, b) < 0.1


class TestNumericRange:
    def test_identical_ranges(self):
        assert numeric_range_overlap(prof([0.0, 10.0]), prof([0.0, 10.0])) == 1.0

    def test_disjoint_ranges(self):
        assert numeric_range_overlap(prof([0.0, 1.0]), prof([5.0, 6.0])) == 0.0

    def test_half_overlap(self):
        assert numeric_range_overlap(
            prof([0.0, 10.0]), prof([5.0, 15.0])
        ) == pytest.approx(5 / 15)

    def test_string_profiles_zero(self):
        assert numeric_range_overlap(prof(["a"]), prof([1.0])) == 0.0

    def test_degenerate_point_ranges(self):
        assert numeric_range_overlap(prof([3.0, 3.0]), prof([3.0])) == 1.0


class TestInstanceSimilarity:
    def test_same_values_high(self):
        assert instance_similarity(prof([1, 2, 3]), prof([1, 2, 3])) == 1.0

    def test_dtype_mismatch_zero(self):
        assert instance_similarity(prof(["a", "b"]), prof([1, 2])) == 0.0

    def test_containment_dominates(self):
        small_in_big = instance_similarity(prof([1, 2]), prof(list(range(50))))
        half = instance_similarity(prof([1, 2, 3, 4]), prof([3, 4, 5, 6]))
        assert small_in_big > half

    def test_bounded(self):
        rng = np.random.default_rng(1)
        for __ in range(5):
            a = prof(list(rng.integers(0, 30, 20)), "a")
            b = prof(list(rng.integers(0, 30, 20)), "b")
            assert 0.0 <= instance_similarity(a, b) <= 1.0

    def test_one_intersection_equals_the_two_measures(self):
        # The composite intersects the sketches once; the floats must be
        # the ones the two public measures give, with the union spelled out.
        rng = np.random.default_rng(2)
        sizes = [0, 1, 3, 20, 300]
        for size_a in sizes:
            for size_b in sizes:
                a = prof([int(v) for v in rng.integers(0, 400, size_a)], "a")
                b = prof([int(v) for v in rng.integers(0, 400, size_b)], "b")
                union = a.sketch | b.sketch
                jaccard = len(a.sketch & b.sketch) / len(union) if union else 0.0
                assert sketch_jaccard(a, b) == jaccard
                assert instance_similarity(a, b) == (
                    0.7 * sketch_containment(a, b) + 0.3 * jaccard
                )


#: Small domains so that tables often share a token: ``"1"`` is the token
#: of the string "1", the int 1 and the float 1.0 alike; NaN and None are
#: nulls and never tokens.
_VALUES = {
    DType.STRING: st.sampled_from(["1", "a", " A", "b", "2.5", ""]),
    DType.INT: st.integers(-2, 6),
    DType.FLOAT: st.integers(-2, 6).map(float) | st.just(2.5) | st.just(float("nan")),
}


@st.composite
def _tables(draw, name):
    """0-3 columns of 0-12 rows each; empty, all-null and mixed-dtype tables."""
    n_rows = draw(st.integers(0, 12))
    pool = st.sampled_from(["id", "key", "k0001", "value"])
    names = draw(st.lists(pool, max_size=3, unique=True))
    columns = {}
    for column_name in names:
        dtype = draw(st.sampled_from(list(_VALUES)))
        cell = _VALUES[dtype] | st.none()
        values = draw(st.lists(cell, min_size=n_rows, max_size=n_rows))
        columns[column_name] = Column(values, dtype=dtype)
    return Table(columns, name=name)


def _ungated_coma(matcher, profiles_a, profiles_b):
    """COMA's matches of one table pair with every instance score computed."""
    key_like = ComaMatcher._key_like
    matches = []
    for col_a in filter(key_like, profiles_a.columns):
        for col_b in filter(key_like, profiles_b.columns):
            name = _name_score(
                NameFeatures(col_a.column_name), NameFeatures(col_b.column_name)
            )
            instance = instance_similarity(col_a, col_b)
            score = matcher._name_weight * name + matcher._instance_weight * instance
            if score >= matcher._min_score:
                matches.append(
                    ColumnMatch(
                        profiles_a.table_name,
                        col_a.column_name,
                        profiles_b.table_name,
                        col_b.column_name,
                        round(float(score), 6),
                        round(float(name), 6),
                        round(float(instance), 6),
                    )
                )
    matches.sort(key=lambda m: (-m.score, m.column_a, m.column_b))
    return matches


def _ungated_value_overlap(min_score, profiles_a, profiles_b):
    """``ValueOverlapMatcher``'s matches of one table pair with every column
    pair intersected."""
    matches = [
        ColumnMatch(
            profiles_a.table_name, col_a.column_name,
            profiles_b.table_name, col_b.column_name, round(float(score), 6),
        )
        for col_a in profiles_a.columns
        for col_b in profiles_b.columns
        if (score := instance_similarity(col_a, col_b)) >= min_score
    ]
    matches.sort(key=lambda m: (-m.score, m.column_a, m.column_b))
    return matches


class TestOverlapGate:
    @settings(max_examples=300, deadline=None)
    @given(a=_tables("left"), b=_tables("right"))
    def test_gate_never_drops_an_overlap(self, a, b):
        profiles_a, profiles_b = profile_table(a), profile_table(b)
        shares = any(
            col_a.sketch & col_b.sketch
            for col_a in profiles_a.columns
            for col_b in profiles_b.columns
        )
        # Exact at table granularity: it passes precisely the pairs that share.
        assert tables_may_overlap(profiles_a, profiles_b) == shares
        assert tables_may_overlap(profiles_b, profiles_a) == shares
        coma = ComaMatcher(min_score=0.0)
        assert repr(pair_matches(coma, profiles_a, profiles_b)) == repr(
            _ungated_coma(coma, profiles_a, profiles_b)
        )
        overlap = pair_matches(ValueOverlapMatcher(0.0), profiles_a, profiles_b)
        assert repr(overlap) == repr(_ungated_value_overlap(0.0, profiles_a, profiles_b))

    def test_gate_is_per_table_pair(self):
        # A passing table pair still intersects every column pair exactly:
        # b's "id" shares with a's "id" only, so a's "other" scores 0.0.
        a = profile_table(Table({"id": [1, 2, 3], "other": [50, 60, 70]}, name="a"))
        b = profile_table(Table({"id": [3, 4, 5]}, name="b"))
        c = profile_table(Table({"id": [8, 9]}, name="c"))
        assert tables_may_overlap(a, b) and not tables_may_overlap(a, c)
        scores = {
            (m.column_a, m.column_b): m.score
            for m in pair_matches(ValueOverlapMatcher(0.0), a, b)
        }
        assert scores[("other", "id")] == 0.0 and scores[("id", "id")] > 0.0


_REMOTE = """
import pickle, sys
from repro.discovery import ComaMatcher, profile_table
remote, table_a, local = pickle.loads(sys.stdin.buffer.read())
matcher = ComaMatcher(min_score=0.0)
print(repr(matcher.match_lake_profiles([remote, profile_table(local)])[0, 1]))
print(repr(ComaMatcher(min_score=0.0).match_lake([table_a, local])[0, 1]))
"""


class TestCrossProcess:
    def test_profile_pickled_after_gating_matches_cold_elsewhere(self):
        ids = list(range(40))
        table_a = Table({"id": ids, "region": [i % 5 for i in ids]}, name="a")
        tail = ids[10:]
        local = Table({"a_id": tail, "zone": [i % 7 + 100 for i in tail]}, name="b")
        profile = profile_table(table_a)
        # The lake pass hashes sketch tokens; none of it may stay on the profile.
        assert pair_matches(ComaMatcher(min_score=0.0), profile, profile_table(local))
        cold = repr(pair_matches(ComaMatcher(min_score=0.0), table_a, local))
        seed = "1" if os.environ.get("PYTHONHASHSEED") != "1" else "2"
        src = str(Path(repro.__file__).resolve().parent.parent)
        env = {**os.environ, "PYTHONHASHSEED": seed, "PYTHONPATH": src}
        done = subprocess.run(
            [sys.executable, "-c", _REMOTE],
            input=pickle.dumps((profile, table_a, local)),
            capture_output=True,
            env=env,
            timeout=120,
            check=True,
        )
        from_pickle, remote_cold = done.stdout.decode().splitlines()
        assert from_pickle == remote_cold == cold
