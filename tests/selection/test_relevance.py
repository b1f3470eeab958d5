"""Unit tests for the relevance metric menu."""

import numpy as np
import pytest

from repro.errors import SelectionError
from repro.selection import (
    RELEVANCE_METRICS,
    information_gain,
    pearson_relevance,
    relief_scores,
    su_relevance,
)
from tests.oracle.selection import relevance_scores, spearman_relevance


@pytest.fixture(scope="module")
def data():
    rng = np.random.default_rng(0)
    n = 2000
    y = rng.integers(0, 2, n).astype(float)
    informative = y + rng.normal(0, 0.3, n)
    noise = rng.normal(0, 1, n)
    return informative, noise, y


ALL_SCORERS = [
    information_gain,
    su_relevance,
    pearson_relevance,
    spearman_relevance,
]


class TestOrdering:
    @pytest.mark.parametrize("scorer", ALL_SCORERS)
    def test_informative_beats_noise(self, scorer, data):
        informative, noise, y = data
        assert scorer(informative, y) > scorer(noise, y) + 0.05

    def test_relief_informative_beats_noise(self, data):
        informative, noise, y = data
        X = np.column_stack([informative, noise])
        weights = relief_scores(X, y, n_samples=80, seed=0)
        assert weights[0] > weights[1]


class TestEdgeCases:
    @pytest.mark.parametrize("scorer", ALL_SCORERS)
    def test_constant_feature_scores_zero(self, scorer, data):
        __, __, y = data
        assert scorer(np.zeros_like(y), y) == 0.0

    @pytest.mark.parametrize("scorer", ALL_SCORERS)
    def test_nan_entries_ignored(self, scorer, data):
        informative, __, y = data
        with_nans = informative.copy()
        with_nans[::10] = np.nan
        score = scorer(with_nans, y)
        assert score > 0.1

    def test_pearson_bounded(self, data):
        informative, __, y = data
        assert 0.0 <= pearson_relevance(informative, y) <= 1.0

    def test_spearman_bounded(self, data):
        informative, __, y = data
        assert 0.0 <= spearman_relevance(informative, y) <= 1.0

    def test_pearson_sign_insensitive(self, data):
        informative, __, y = data
        assert pearson_relevance(-informative, y) == pytest.approx(
            pearson_relevance(informative, y)
        )

    def test_spearman_monotone_invariance(self, data):
        informative, __, y = data
        shifted = np.exp(informative)  # strictly monotone transform
        assert spearman_relevance(shifted, y) == pytest.approx(
            spearman_relevance(informative, y), abs=1e-9
        )

    def test_length_mismatch_raises(self):
        with pytest.raises(SelectionError):
            pearson_relevance(np.array([1.0, 2.0]), np.array([1.0]))

    def test_tiny_input_scores_zero(self):
        assert spearman_relevance(np.array([1.0]), np.array([1.0])) == 0.0


class TestRelief:
    def test_shape(self, data):
        informative, noise, y = data
        X = np.column_stack([informative, noise])
        assert relief_scores(X, y, n_samples=30).shape == (2,)

    def test_non_negative(self, data):
        informative, noise, y = data
        X = np.column_stack([informative, noise])
        assert (relief_scores(X, y, n_samples=30) >= 0).all()

    def test_deterministic(self, data):
        informative, noise, y = data
        X = np.column_stack([informative, noise])
        a = relief_scores(X, y, n_samples=30, seed=4)
        b = relief_scores(X, y, n_samples=30, seed=4)
        assert np.array_equal(a, b)

    def test_requires_matrix(self, data):
        informative, __, y = data
        with pytest.raises(SelectionError):
            relief_scores(informative, y)

    def test_empty_matrix(self):
        out = relief_scores(np.empty((5, 0)), np.zeros(5))
        assert out.shape == (0,)


class TestRelevanceScores:
    def test_scores_all_columns(self, data):
        informative, noise, y = data
        X = np.column_stack([informative, noise])
        scores = relevance_scores(X, y, metric="spearman")
        assert scores.shape == (2,)
        assert scores[0] > scores[1]

    def test_registry_contains_four_metrics(self):
        assert set(RELEVANCE_METRICS) == {
            "information_gain",
            "symmetrical_uncertainty",
            "pearson",
            "spearman",
        }

    def test_relief_via_dispatcher(self, data):
        informative, noise, y = data
        X = np.column_stack([informative, noise])
        scores = relevance_scores(X, y, metric="relief")
        assert scores[0] > scores[1]

    def test_unknown_metric_raises(self, data):
        informative, __, y = data
        with pytest.raises(SelectionError):
            relevance_scores(informative.reshape(-1, 1), y, metric="chi2")

    def test_requires_matrix(self, data):
        informative, __, y = data
        with pytest.raises(SelectionError):
            relevance_scores(informative, y)

    @pytest.mark.parametrize("metric", ["spearman", "pearson", "information_gain"])
    def test_matches_scalar_scorer(self, metric, data):
        informative, noise, y = data
        X = np.column_stack([informative, noise])
        scores = relevance_scores(X, y, metric=metric)
        scalar = {
            "spearman": spearman_relevance,
            "pearson": pearson_relevance,
            "information_gain": information_gain,
        }[metric]
        assert scores[0] == pytest.approx(scalar(informative, y))
        assert scores[1] == pytest.approx(scalar(noise, y))
