"""Unit tests for the planted-signal dataset generator."""

import numpy as np
import pytest

from repro.datasets import make_classification
from repro.errors import DatasetError
from tests.oracle.selection import spearman_relevance


class TestShapes:
    def test_feature_counts(self):
        flat = make_classification(200, n_informative=3, n_redundant=2, n_noise=4)
        assert flat.n_features == 9
        assert flat.n_rows == 200
        assert len(flat.label) == 200

    def test_feature_name_families(self):
        flat = make_classification(100, 2, 1, 1)
        assert {n.split("_")[0] for n in flat.features} == {"inf", "red", "noise"}

    def test_binary_labels(self):
        flat = make_classification(300, 2, 0, 0)
        assert set(flat.label) <= {0, 1}


class TestPlantedSignal:
    def test_informative_beats_noise(self):
        flat = make_classification(3000, 3, 0, 3, class_sep=2.0, seed=1)
        y = flat.label.astype(float)
        inf_score = spearman_relevance(flat.features["inf_00"], y)
        noise_score = spearman_relevance(flat.features["noise_00"], y)
        assert inf_score > noise_score + 0.2

    def test_relevance_order_matches_measured(self):
        flat = make_classification(5000, 4, 0, 2, class_sep=2.0, seed=2)
        y = flat.label.astype(float)
        weakest = flat.relevance_order[0]
        strongest = flat.relevance_order[-1]
        assert spearman_relevance(flat.features[strongest], y) > spearman_relevance(
            flat.features[weakest], y
        )

    def test_effect_sizes_graded(self):
        flat = make_classification(5000, 5, 0, 0, class_sep=2.0, seed=3)
        y = flat.label.astype(float)
        first = spearman_relevance(flat.features["inf_00"], y)
        last = spearman_relevance(flat.features["inf_04"], y)
        assert first > last

    def test_redundant_correlates_with_informative(self):
        flat = make_classification(2000, 2, 1, 0, seed=4)
        red = flat.features["red_00"]
        best = max(
            abs(np.corrcoef(red, flat.features[f"inf_{i:02d}"])[0, 1])
            for i in range(2)
        )
        assert best > 0.5

    def test_label_noise_keeps_accuracy_below_one(self):
        flat = make_classification(2000, 2, 0, 0, class_sep=5.0, label_noise=0.1, seed=5)
        # Even a perfect classifier on features is wrong on ~10% flipped labels.
        margin = flat.features["inf_00"] + flat.features["inf_01"]
        implied = (margin > 0).astype(int)
        assert np.mean(implied == flat.label) < 0.97


class TestCategorical:
    def test_categorical_features_are_small_ints(self):
        flat = make_classification(500, 3, 0, 0, n_categorical=2, seed=6)
        for name in ("inf_00", "inf_01"):
            assert set(np.unique(flat.features[name])) <= {0.0, 1.0, 2.0, 3.0}

    def test_categorical_keeps_signal(self):
        flat = make_classification(4000, 2, 0, 1, n_categorical=1, class_sep=2.0, seed=7)
        y = flat.label.astype(float)
        assert spearman_relevance(flat.features["inf_00"], y) > spearman_relevance(
            flat.features["noise_00"], y
        )


class TestDeterminismAndValidation:
    def test_same_seed_same_data(self):
        a = make_classification(100, 2, 1, 1, seed=9)
        b = make_classification(100, 2, 1, 1, seed=9)
        assert np.array_equal(a.label, b.label)
        for name in a.features:
            assert np.array_equal(a.features[name], b.features[name])

    def test_different_seed_differs(self):
        a = make_classification(100, 2, 0, 0, seed=1)
        b = make_classification(100, 2, 0, 0, seed=2)
        assert not np.array_equal(a.features["inf_00"], b.features["inf_00"])

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"n_rows": 5, "n_informative": 1, "n_redundant": 0, "n_noise": 0},
            {"n_rows": 100, "n_informative": 0, "n_redundant": 0, "n_noise": 1},
            {"n_rows": 100, "n_informative": 2, "n_redundant": -1, "n_noise": 0},
            {
                "n_rows": 100,
                "n_informative": 1,
                "n_redundant": 0,
                "n_noise": 0,
                "n_categorical": 2,
            },
        ],
    )
    def test_invalid_parameters_raise(self, kwargs):
        with pytest.raises(DatasetError):
            make_classification(**kwargs)
