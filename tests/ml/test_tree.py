"""Unit tests for the CART trees."""

import numpy as np
import pytest

from repro.errors import ModelError
from repro.ml import DecisionTreeClassifier


def separable(n=400, seed=0):
    rng = np.random.default_rng(seed)
    X = rng.normal(0, 1, (n, 3))
    y = (X[:, 0] + 0.5 * X[:, 1] > 0).astype(np.int64)
    return X, y


def n_leaves_reached(tree, X):
    """The leaves the rows of ``X`` land in (each leaf is one value array):
    on the tree's own training data, every leaf."""
    return len({id(value) for value in tree._predict_node(X)})


class TestClassifier:
    def test_fits_separable_data(self):
        X, y = separable()
        tree = DecisionTreeClassifier(max_depth=6).fit(X, y)
        assert np.mean(tree.predict(X) == y) > 0.9

    def test_predict_proba_rows_sum_to_one(self):
        X, y = separable()
        proba = DecisionTreeClassifier().fit(X, y).predict_proba(X)
        assert np.allclose(proba.sum(axis=1), 1.0)

    def test_pure_node_is_leaf(self):
        X = np.zeros((10, 1))
        y = np.zeros(10, dtype=np.int64)
        tree = DecisionTreeClassifier().fit(X, y)
        assert n_leaves_reached(tree, X) == 1

    def test_max_depth_respected(self):
        X, y = separable(600)
        tree = DecisionTreeClassifier(max_depth=2).fit(X, y)
        assert n_leaves_reached(tree, X) <= 2**2

    def test_min_samples_leaf(self):
        X, y = separable(100)
        tree = DecisionTreeClassifier(min_samples_leaf=40).fit(X, y)
        # Each leaf holds >= 40 of 100 samples, so at most 2 leaves.
        assert n_leaves_reached(tree, X) <= 2

    def test_multiclass(self):
        rng = np.random.default_rng(1)
        X = rng.normal(0, 1, (300, 2))
        y = (X[:, 0] > 0).astype(int) + 2 * (X[:, 1] > 0).astype(int)
        tree = DecisionTreeClassifier(max_depth=4).fit(X, y)
        assert tree.predict_proba(X).shape == (300, 4)
        assert np.mean(tree.predict(X) == y) > 0.9

    def test_feature_importances_point_at_signal(self):
        X, y = separable()
        tree = DecisionTreeClassifier(max_depth=5).fit(X, y)
        importances = tree.feature_importances_
        assert importances.shape == (3,)
        assert importances.sum() == pytest.approx(1.0)
        assert importances[0] > importances[2]

    def test_unfitted_raises(self):
        with pytest.raises(ModelError):
            DecisionTreeClassifier().predict(np.zeros((1, 2)))

    def test_nan_input_raises(self):
        X = np.array([[np.nan], [1.0]])
        with pytest.raises(ModelError):
            DecisionTreeClassifier().fit(X, np.array([0, 1]))

    def test_shape_mismatch_raises(self):
        with pytest.raises(ModelError):
            DecisionTreeClassifier().fit(np.zeros((3, 1)), np.zeros(2))

    def test_negative_labels_raise(self):
        with pytest.raises(ModelError):
            DecisionTreeClassifier().fit(np.zeros((2, 1)), np.array([-1, 0]))

    def test_invalid_params_raise(self):
        with pytest.raises(ModelError):
            DecisionTreeClassifier(max_depth=0)
        with pytest.raises(ModelError):
            DecisionTreeClassifier(min_samples_leaf=0)

    def test_max_features_subsampling_deterministic(self):
        X, y = separable()
        a = DecisionTreeClassifier(max_features="sqrt", seed=3).fit(X, y)
        b = DecisionTreeClassifier(max_features="sqrt", seed=3).fit(X, y)
        assert np.array_equal(a.predict(X), b.predict(X))

    def test_random_thresholds_variant(self):
        X, y = separable()
        tree = DecisionTreeClassifier(random_thresholds=True, seed=0).fit(X, y)
        assert np.mean(tree.predict(X) == y) > 0.8

    def test_constant_features_yield_stump(self):
        X = np.ones((50, 2))
        y = np.array([0, 1] * 25)
        tree = DecisionTreeClassifier().fit(X, y)
        assert n_leaves_reached(tree, X) == 1
