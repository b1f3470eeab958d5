"""Unit tests for the online streaming selectors."""

import numpy as np
import pytest

from repro.errors import SelectionError
from repro.selection import (
    AlphaInvestingSelector,
    FastOSFSSelector,
    partial_correlation_pvalue,
)


@pytest.fixture(scope="module")
def data():
    rng = np.random.default_rng(5)
    n = 2000
    y = rng.integers(0, 2, n).astype(float)
    strong = y + rng.normal(0, 0.3, n)
    weak = y + rng.normal(0, 2.5, n)
    duplicate = strong + rng.normal(0, 0.01, n)
    noise = rng.normal(0, 1, n)
    return {"y": y, "strong": strong, "weak": weak, "dup": duplicate, "noise": noise}


class TestPartialCorrelationPvalue:
    def test_strong_association_significant(self, data):
        p = partial_correlation_pvalue(data["strong"], data["y"], None)
        assert p < 1e-10

    def test_noise_not_significant(self, data):
        p = partial_correlation_pvalue(data["noise"], data["y"], None)
        assert p > 0.01

    def test_conditioning_removes_duplicate_signal(self, data):
        marginal = partial_correlation_pvalue(data["dup"], data["y"], None)
        conditioned = partial_correlation_pvalue(
            data["dup"], data["y"], data["strong"].reshape(-1, 1)
        )
        assert marginal < 1e-10
        assert conditioned > marginal

    def test_constant_candidate_never_significant(self, data):
        p = partial_correlation_pvalue(np.zeros_like(data["y"]), data["y"], None)
        assert p == 1.0

    def test_tiny_sample_never_significant(self):
        assert partial_correlation_pvalue(np.array([1.0, 2.0]), np.array([0.0, 1.0]), None) == 1.0

    def test_length_mismatch_raises(self, data):
        with pytest.raises(SelectionError):
            partial_correlation_pvalue(data["y"][:10], data["y"], None)

    def test_missing_values_in_controls_drop_their_rows(self):
        # A NaN in a selected column used to reach lstsq, which raised
        # LinAlgError on the offer after any feature with a missing value
        # was accepted.
        rng = np.random.default_rng(0)
        y = rng.normal(size=400)
        a = y + 0.5 * rng.normal(size=400)
        a[:40] = np.nan
        b = y + 0.5 * rng.normal(size=400)
        selector = AlphaInvestingSelector().start(y)
        assert selector.offer("a", a)
        selector.offer("b", b)
        complete = partial_correlation_pvalue(b[40:], y[40:], a[40:, None])
        assert partial_correlation_pvalue(b, y, a[:, None]) == complete

    def test_one_dimensional_controls_are_one_column(self, data):
        flat = partial_correlation_pvalue(data["dup"], data["y"], data["strong"])
        column = partial_correlation_pvalue(
            data["dup"], data["y"], data["strong"].reshape(-1, 1)
        )
        assert flat == column


class TestAlphaInvesting:
    def test_accepts_signal_rejects_noise(self, data):
        selector = AlphaInvestingSelector().start(data["y"])
        assert selector.offer("strong", data["strong"])
        assert not selector.offer("noise", data["noise"])
        assert selector.selected_names == ["strong"]

    def test_duplicate_rejected_after_original(self, data):
        selector = AlphaInvestingSelector().start(data["y"])
        selector.offer("strong", data["strong"])
        assert not selector.offer("dup", data["dup"])

    def test_wealth_grows_on_accept(self, data):
        selector = AlphaInvestingSelector().start(data["y"])
        before = selector.wealth
        selector.offer("strong", data["strong"])
        assert selector.wealth > before

    def test_wealth_shrinks_on_reject(self, data):
        selector = AlphaInvestingSelector().start(data["y"])
        before = selector.wealth
        selector.offer("noise", data["noise"])
        assert selector.wealth < before

    def test_long_noise_stream_accepts_few(self, data):
        rng = np.random.default_rng(9)
        selector = AlphaInvestingSelector().start(data["y"])
        accepted = sum(
            selector.offer(f"n{i}", rng.normal(0, 1, len(data["y"])))
            for i in range(50)
        )
        assert accepted <= 2  # FDR control over the stream

    def test_requires_start(self, data):
        with pytest.raises(SelectionError):
            AlphaInvestingSelector().offer("x", data["noise"])

    def test_invalid_wealth_raises(self):
        with pytest.raises(SelectionError):
            AlphaInvestingSelector(initial_wealth=0.0)

    def test_start_resets(self, data):
        selector = AlphaInvestingSelector().start(data["y"])
        selector.offer("strong", data["strong"])
        selector.start(data["y"])
        assert selector.selected_names == []


class TestFastOSFS:
    def test_accepts_signal_rejects_noise(self, data):
        selector = FastOSFSSelector().start(data["y"])
        assert selector.offer("strong", data["strong"])
        assert not selector.offer("noise", data["noise"])

    def test_duplicate_conditionally_independent(self, data):
        selector = FastOSFSSelector().start(data["y"])
        selector.offer("strong", data["strong"])
        assert not selector.offer("dup", data["dup"])
        assert selector.selected_names == ["strong"]

    def test_complementary_signal_accepted(self, data):
        rng = np.random.default_rng(11)
        other = (1 - data["y"]) + rng.normal(0, 0.3, len(data["y"]))
        selector = FastOSFSSelector().start(data["y"])
        selector.offer("strong", data["strong"])
        # A second, independent view of the label survives the CI check
        # against 'strong' (it still carries information given strong).
        assert selector.offer("other", other)

    def test_requires_start(self, data):
        with pytest.raises(SelectionError):
            FastOSFSSelector().offer("x", data["noise"])

    def test_weak_feature_below_threshold_rejected(self, data):
        selector = FastOSFSSelector(relevance_threshold=0.2).start(data["y"])
        assert not selector.offer("weak", data["weak"])
