"""Unit tests for the redundancy methods (Equation 1/2 family)."""

import numpy as np
import pytest

from repro.errors import SelectionError
from repro.selection import (
    REDUNDANCY_METHODS,
    greedy_select,
    redundancy_score,
)
from tests.oracle.selection import redundancy_scores


@pytest.fixture(scope="module")
def data():
    rng = np.random.default_rng(1)
    n = 2000
    y = rng.integers(0, 2, n).astype(float)
    informative = y + rng.normal(0, 0.3, n)
    duplicate = informative + rng.normal(0, 0.01, n)
    independent_signal = (1 - y) + rng.normal(0, 0.3, n)
    noise = rng.normal(0, 1, n)
    return {
        "y": y,
        "informative": informative,
        "duplicate": duplicate,
        "independent_signal": independent_signal,
        "noise": noise,
    }


ALL_METHODS = sorted(REDUNDANCY_METHODS)


class TestScoreStructure:
    @pytest.mark.parametrize("method", ALL_METHODS)
    def test_empty_selected_set_reduces_to_relevance(self, method, data):
        result = redundancy_score(data["informative"], None, data["y"], method)
        assert result.score == pytest.approx(result.relevance_term)
        assert result.redundancy_term == 0.0

    @pytest.mark.parametrize("method", ALL_METHODS)
    def test_duplicate_is_penalised(self, method, data):
        selected = data["informative"].reshape(-1, 1)
        alone = redundancy_score(data["duplicate"], None, data["y"], method).score
        against = redundancy_score(
            data["duplicate"], selected, data["y"], method
        ).score
        assert against < alone

    @pytest.mark.parametrize("method", ALL_METHODS)
    def test_fresh_noise_is_not_strongly_penalised(self, method, data):
        selected = data["informative"].reshape(-1, 1)
        result = redundancy_score(data["noise"], selected, data["y"], method)
        assert result.score > -0.2

    def test_unknown_method_raises(self, data):
        with pytest.raises(SelectionError):
            redundancy_score(data["noise"], None, data["y"], "pca")


class TestMethodSpecifics:
    def test_mifs_uses_constant_beta(self, data):
        # With two identical selected features, MIFS doubles the penalty
        # while MRMR (beta = 1/|S|) keeps it constant.
        y = data["y"]
        one = data["informative"].reshape(-1, 1)
        two = np.column_stack([data["informative"], data["informative"]])
        mifs_one = redundancy_score(data["duplicate"], one, y, "mifs").score
        mifs_two = redundancy_score(data["duplicate"], two, y, "mifs").score
        mrmr_one = redundancy_score(data["duplicate"], one, y, "mrmr").score
        mrmr_two = redundancy_score(data["duplicate"], two, y, "mrmr").score
        assert mifs_two < mifs_one - 0.1
        assert mrmr_two == pytest.approx(mrmr_one, abs=0.05)

    def test_cife_rewards_conditional_complement(self, data):
        # CIFE adds the conditional term; the score of a complementary
        # feature should not fall below its CMIM counterpart by much.
        y = data["y"]
        selected = data["informative"].reshape(-1, 1)
        cife = redundancy_score(data["independent_signal"], selected, y, "cife")
        assert cife.conditional_term >= 0.0

    def test_cmim_uses_max_not_sum(self, data):
        # CMIM's penalty is the max over selected features: adding the same
        # feature twice to S must not increase the penalty.
        y = data["y"]
        one = data["informative"].reshape(-1, 1)
        two = np.column_stack([data["informative"], data["informative"]])
        cmim_one = redundancy_score(data["duplicate"], one, y, "cmim").score
        cmim_two = redundancy_score(data["duplicate"], two, y, "cmim").score
        assert cmim_two == pytest.approx(cmim_one, abs=0.02)

    @pytest.mark.parametrize("method", ["jmi", "mrmr"])
    def test_size_normalised_methods_stable_with_set_growth(self, method, data):
        y = data["y"]
        rng = np.random.default_rng(2)
        small = np.column_stack([data["informative"]])
        large = np.column_stack(
            [data["informative"]] + [rng.normal(0, 1, len(y)) for __ in range(4)]
        )
        s_small = redundancy_score(data["duplicate"], small, y, method).score
        s_large = redundancy_score(data["duplicate"], large, y, method).score
        # Adding unrelated noise to S dilutes the (normalised) penalty.
        assert s_large >= s_small - 0.05


class TestBatchScores:
    def test_matches_scalar(self, data):
        X = np.column_stack([data["duplicate"], data["noise"]])
        selected = data["informative"].reshape(-1, 1)
        batch = redundancy_scores(X, selected, data["y"], "mrmr")
        for j, column in enumerate((data["duplicate"], data["noise"])):
            scalar = redundancy_score(column, selected, data["y"], "mrmr").score
            assert batch[j] == pytest.approx(scalar)

    def test_requires_matrix(self, data):
        with pytest.raises(SelectionError):
            redundancy_scores(data["noise"], None, data["y"])

    def test_unknown_method_raises(self, data):
        with pytest.raises(SelectionError):
            redundancy_scores(
                data["noise"].reshape(-1, 1), None, data["y"], "rfe"
            )


class TestGreedySelect:
    def test_picks_informative_first(self, data):
        X = np.column_stack([data["noise"], data["informative"], data["duplicate"]])
        picked = greedy_select(X, data["y"], k=1, method="mrmr")
        assert picked[0] in (1, 2)  # informative or its duplicate

    def test_avoids_duplicate_second(self, data):
        X = np.column_stack(
            [data["informative"], data["duplicate"], data["independent_signal"]]
        )
        picked = greedy_select(X, data["y"], k=2, method="mrmr")
        assert set(picked) != {0, 1}  # never informative + its duplicate

    def test_k_caps_at_n_features(self, data):
        X = np.column_stack([data["informative"], data["noise"]])
        assert len(greedy_select(X, data["y"], k=10)) == 2

    def test_unknown_method_raises(self, data):
        with pytest.raises(SelectionError):
            greedy_select(data["noise"].reshape(-1, 1), data["y"], 1, "lasso")

    def test_invalid_k_raises(self, data):
        with pytest.raises(SelectionError):
            greedy_select(data["noise"].reshape(-1, 1), data["y"], 0)

    @pytest.mark.parametrize("method", ALL_METHODS)
    def test_all_methods_run(self, method, data):
        X = np.column_stack([data["informative"], data["noise"]])
        picked = greedy_select(X, data["y"], k=2, method=method)
        assert len(picked) == 2
        assert len(set(picked)) == 2
