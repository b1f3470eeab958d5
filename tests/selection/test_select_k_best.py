"""Unit tests for top-κ selection and the kernel greedy forward selection."""

import numpy as np
import pytest

from repro.errors import SelectionError
from repro.selection import REDUNDANCY_METHODS, greedy_select, select_k_best, select_k_best_named


@pytest.fixture(scope="module")
def data():
    rng = np.random.default_rng(3)
    n = 1500
    y = rng.integers(0, 2, n).astype(float)
    strong = y + rng.normal(0, 0.2, n)
    weak = y + rng.normal(0, 2.0, n)
    noise = rng.normal(0, 1, n)
    return np.column_stack([noise, strong, weak]), y


class TestSelectKBest:
    def test_orders_by_score(self, data):
        X, y = data
        outcome = select_k_best(X, y, k=3)
        assert outcome.indices[0] == 1  # strong feature first

    def test_k_limits_output(self, data):
        X, y = data
        assert len(select_k_best(X, y, k=1)) == 1

    def test_scores_descending(self, data):
        X, y = data
        scores = select_k_best(X, y, k=3).scores
        assert list(scores) == sorted(scores, reverse=True)

    def test_min_score_filters(self, data):
        X, y = data
        outcome = select_k_best(X, y, k=3, min_score=0.5)
        assert set(outcome.indices) == {1}

    def test_all_filtered_returns_empty(self, data):
        X, y = data
        outcome = select_k_best(X, y, k=3, min_score=2.0)
        assert len(outcome) == 0

    def test_invalid_k_raises(self, data):
        X, y = data
        with pytest.raises(SelectionError):
            select_k_best(X, y, k=0)

    def test_alternate_metric(self, data):
        X, y = data
        outcome = select_k_best(X, y, k=1, metric="pearson")
        assert outcome.indices == (1,)

    def test_deterministic_tie_break(self):
        rng = np.random.default_rng(0)
        y = rng.integers(0, 2, 500).astype(float)
        x = rng.normal(0, 1, 500)
        X = np.column_stack([x, x])  # exactly tied scores
        a = select_k_best(X, y, k=2, min_score=-1.0)
        b = select_k_best(X, y, k=2, min_score=-1.0)
        assert a.indices == b.indices == (0, 1)


class TestNamedWrapper:
    def test_returns_names(self, data):
        X, y = data
        names, scores = select_k_best_named(X, ["n", "s", "w"], y, k=2)
        assert names[0] == "s"
        assert len(names) == len(scores)

    def test_name_count_mismatch_raises(self, data):
        X, y = data
        with pytest.raises(SelectionError):
            select_k_best_named(X, ["a", "b"], y, k=1)


class TestGreedySelect:
    def test_picks_strong_first(self, data):
        X, y = data
        assert greedy_select(X, y, k=1)[0] == 1

    @pytest.mark.parametrize("method", REDUNDANCY_METHODS)
    def test_picks_are_distinct_and_capped(self, method, data):
        # 1500 rows: the binned columns the small differential never draws.
        X, y = data
        picked = greedy_select(X, y, k=10, method=method)
        assert 1 <= len(picked) <= X.shape[1]
        assert len(set(picked)) == len(picked)

    def test_unknown_method_raises(self, data):
        X, y = data
        with pytest.raises(SelectionError):
            greedy_select(X, y, 1, "lasso")

    def test_invalid_k_raises(self, data):
        X, y = data
        with pytest.raises(SelectionError):
            greedy_select(X, y, 0)

    def test_requires_matrix(self, data):
        X, y = data
        with pytest.raises(SelectionError):
            greedy_select(X[:, 0], y, 1)
