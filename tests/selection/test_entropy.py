"""Unit tests for the Shannon information estimators."""

import warnings

import numpy as np
import pytest

from repro.errors import SelectionError
from repro.selection import (
    REDUNDANCY_METHODS,
    SelectionCodeCache,
    batch_redundancy_scores,
    conditional_mutual_information,
    discretize,
    entropy,
    joint_entropy,
    mutual_information,
    symmetrical_uncertainty,
)
from tests.oracle.selection import redundancy_scores


class TestDiscretize:
    def test_small_domains_kept_as_codes(self):
        codes = discretize(np.array([5.0, 7.0, 5.0, 9.0]))
        assert list(codes) == [0, 1, 0, 2]

    def test_wide_domains_binned(self):
        x = np.linspace(0, 1, 1000)
        codes = discretize(x, n_bins=10)
        assert codes.min() == 0
        assert codes.max() == 9

    def test_nan_coded_minus_one(self):
        codes = discretize(np.array([1.0, np.nan, 2.0]))
        assert codes[1] == -1

    def test_all_nan(self):
        codes = discretize(np.array([np.nan, np.nan]))
        assert list(codes) == [-1, -1]

    def test_constant_column_single_bin(self):
        codes = discretize(np.full(100, 3.7))
        assert set(codes) == {0}

    def test_constant_wide_column(self):
        x = np.full(100, 3.7)
        x[0] = np.nan
        assert set(discretize(x)) == {-1, 0}

    def test_too_few_bins_raise(self):
        with pytest.raises(SelectionError):
            discretize(np.array([1.0]), n_bins=1)

    def test_range_overflowing_float64_keeps_every_value(self):
        # hi - lo is inf here: every value must still get a bin, with no
        # warning, and the column must carry its information to a score.
        x = np.r_[-1.7e308, 1.7e308, np.linspace(-1, 1, 40)]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            codes = discretize(x)
        assert codes.tolist() == [0, 9] + [5] * 40
        label = np.r_[0.0, 2.0, np.ones(40)]
        assert mutual_information(codes, discretize(label)) > 0.0
        rng = np.random.default_rng(0)
        selected = rng.normal(size=(42, 2))
        candidates = np.column_stack([x, rng.normal(size=42)])
        for method in sorted(REDUNDANCY_METHODS):
            cache = SelectionCodeCache(label)
            for column in selected.T:
                cache.add(column)
            kernel = batch_redundancy_scores(candidates, cache, method=method)
            scalar = redundancy_scores(candidates, selected, label, method=method)
            # The kernel's contract: same signs, positive scores bit-identical.
            assert (kernel > 0).tolist() == (scalar > 0).tolist(), method
            assert kernel[kernel > 0].tolist() == scalar[scalar > 0].tolist()


class TestEntropy:
    def test_uniform_two_values(self):
        codes = np.array([0, 1] * 500)
        assert entropy(codes) == pytest.approx(np.log(2))

    def test_constant_is_zero(self):
        assert entropy(np.zeros(100, dtype=np.int64)) == 0.0

    def test_empty_is_zero(self):
        assert entropy(np.array([], dtype=np.int64)) == 0.0

    def test_missing_codes_excluded(self):
        codes = np.array([0, 0, -1, -1])
        assert entropy(codes) == 0.0

    def test_uniform_k_values(self):
        codes = np.arange(8).repeat(100)
        assert entropy(codes) == pytest.approx(np.log(8))


class TestMutualInformation:
    def test_identical_variables(self):
        x = np.array([0, 1] * 500)
        assert mutual_information(x, x) == pytest.approx(np.log(2))

    def test_independent_variables_near_zero(self):
        rng = np.random.default_rng(0)
        x = rng.integers(0, 2, 5000)
        y = rng.integers(0, 2, 5000)
        assert mutual_information(x, y) < 0.01

    def test_symmetry(self):
        rng = np.random.default_rng(1)
        x = rng.integers(0, 4, 1000)
        y = (x + rng.integers(0, 2, 1000)) % 4
        assert mutual_information(x, y) == pytest.approx(mutual_information(y, x))

    def test_non_negative(self):
        rng = np.random.default_rng(2)
        for __ in range(5):
            x = rng.integers(0, 5, 200)
            y = rng.integers(0, 5, 200)
            assert mutual_information(x, y) >= 0.0

    def test_length_mismatch_raises(self):
        with pytest.raises(SelectionError):
            mutual_information(np.array([0, 1]), np.array([0]))

    def test_joint_entropy_bounds(self):
        rng = np.random.default_rng(3)
        x = rng.integers(0, 3, 500)
        y = rng.integers(0, 3, 500)
        hx, hy, hxy = entropy(x), entropy(y), joint_entropy(x, y)
        assert max(hx, hy) <= hxy + 1e-9
        assert hxy <= hx + hy + 1e-9


class TestConditionalMI:
    def test_conditioning_on_self_removes_information(self):
        x = np.array([0, 1] * 500)
        assert conditional_mutual_information(x, x, x) == pytest.approx(0.0)

    def test_chain_rule_example(self):
        # X and Y independent, Z = X xor Y: I(X;Y|Z) = log 2.
        rng = np.random.default_rng(4)
        x = rng.integers(0, 2, 20000)
        y = rng.integers(0, 2, 20000)
        z = x ^ y
        assert conditional_mutual_information(x, y, z) == pytest.approx(
            np.log(2), abs=0.01
        )

    def test_non_negative(self):
        rng = np.random.default_rng(5)
        x = rng.integers(0, 3, 300)
        y = rng.integers(0, 3, 300)
        z = rng.integers(0, 3, 300)
        assert conditional_mutual_information(x, y, z) >= 0.0

    def test_length_mismatch_raises(self):
        with pytest.raises(SelectionError):
            conditional_mutual_information(
                np.array([0]), np.array([0, 1]), np.array([0, 1])
            )


class TestSymmetricalUncertainty:
    def test_identical_is_one(self):
        x = np.array([0, 1, 2] * 100)
        assert symmetrical_uncertainty(x, x) == pytest.approx(1.0)

    def test_independent_near_zero(self):
        rng = np.random.default_rng(6)
        x = rng.integers(0, 2, 5000)
        y = rng.integers(0, 2, 5000)
        assert symmetrical_uncertainty(x, y) < 0.01

    def test_bounded(self):
        rng = np.random.default_rng(7)
        for __ in range(10):
            x = rng.integers(0, 6, 200)
            y = rng.integers(0, 6, 200)
            assert 0.0 <= symmetrical_uncertainty(x, y) <= 1.0

    def test_constant_variable_scores_zero(self):
        x = np.zeros(100, dtype=np.int64)
        y = np.array([0, 1] * 50)
        assert symmetrical_uncertainty(x, y) == 0.0
