"""Unit tests for Algorithm 2 ranking and the pruning rules."""

import pytest

from repro.core import compute_ranking_score, completeness, normalised_sum
from repro.dataframe import Table
from tests.oracle.join import left_join


class TestNormalisedSum:
    def test_empty_is_zero(self):
        assert normalised_sum([]) == 0.0

    def test_mean(self):
        assert normalised_sum([1.0, 2.0, 3.0]) == 2.0


class TestRankingScore:
    def test_both_empty_is_zero(self):
        assert compute_ranking_score([], []) == 0.0

    def test_relevance_only(self):
        assert compute_ranking_score([0.4, 0.6], []) == pytest.approx(0.5)

    def test_redundancy_only(self):
        assert compute_ranking_score([], [0.2]) == pytest.approx(0.2)

    def test_combined_average(self):
        assert compute_ranking_score([0.4], [0.2]) == pytest.approx(0.3)

    def test_cardinality_normalisation(self):
        # Many weak features must not outrank one strong feature.
        weak = compute_ranking_score([0.1] * 10, [0.1] * 10)
        strong = compute_ranking_score([0.9], [0.9])
        assert strong > weak

    def test_monotone_in_scores(self):
        low = compute_ranking_score([0.1], [0.1])
        high = compute_ranking_score([0.9], [0.9])
        assert high > low


class TestCompleteness:
    def make(self):
        return Table(
            {"a": [1, 2, 3, 4], "b": [1, None, None, None], "c": [1, 2, None, 4]},
            name="t",
        )

    def test_full_column(self):
        assert completeness(self.make(), ["a"]) == 1.0

    def test_mostly_null(self):
        assert completeness(self.make(), ["b"]) == 0.25

    def test_multiple_columns(self):
        assert completeness(self.make(), ["b", "c"]) == pytest.approx(0.5)

    def test_missing_columns_vacuously_complete(self):
        # An empty contribution carries no evidence of a bad join: it must
        # not be quality-pruned (it may be a stepping-stone hop).
        # So it passes even τ = 1.
        assert completeness(self.make(), ["zzz"]) == 1.0
        assert completeness(self.make(), []) == 1.0

    def test_left_join_contribution(self):
        # Half the probe rows find no partner: the contributed column is
        # half null, the probe side's own columns do not count.
        left = Table({"id": [1, 2, 3, 4], "x": [1.0, 2.0, 3.0, 4.0]}, name="l")
        right = Table({"id": [1, 2], "y": [10.0, 20.0]}, name="r")
        joined = left_join(left, right, "id", "id", drop_right_key=True)
        assert completeness(joined, ["y"]) == pytest.approx(0.5)


class TestQualityRule:
    """A join is kept iff its completeness is ≥ τ."""

    def test_keeps_above_threshold(self):
        t = Table({"x": [1, 2, 3, None]}, name="t")
        assert completeness(t, ["x"]) >= 0.65

    def test_prunes_below_threshold(self):
        t = Table({"x": [1, None, None, None]}, name="t")
        assert completeness(t, ["x"]) < 0.65

    def test_tau_one_requires_perfection(self):
        perfect = Table({"x": [1, 2]}, name="t")
        flawed = Table({"x": [1, None]}, name="t")
        assert completeness(perfect, ["x"]) >= 1.0
        assert completeness(flawed, ["x"]) < 1.0

    def test_tau_zero_keeps_everything(self):
        empty = Table({"x": [None, None]}, name="t")
        assert completeness(empty, ["x"]) >= 0.0
