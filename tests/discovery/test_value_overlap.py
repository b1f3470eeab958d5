"""Unit tests for instance-based similarity."""

import numpy as np
import pytest

from repro.dataframe import Column
from repro.discovery import (
    instance_similarity,
    minhash_jaccard,
    numeric_range_overlap,
    profile_column,
    sketch_containment,
    sketch_jaccard,
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
