"""Unit tests for histogram gradient boosting."""

import numpy as np
import pytest

from repro.errors import ModelError
from repro.ml import (
    GradientBoostingBinaryClassifier,
    LightGBMClassifier,
    XGBoostClassifier,
)
from tests.oracle.gbdt import ReferenceBoosting


def make_data(n=600, seed=0):
    rng = np.random.default_rng(seed)
    X = rng.normal(0, 1, (n, 5))
    y = ((X[:, 0] - 0.7 * X[:, 2]) > 0).astype(np.int64)
    return X, y


def make_nonlinear(n=800, seed=1):
    rng = np.random.default_rng(seed)
    X = rng.uniform(-1, 1, (n, 2))
    y = ((X[:, 0] * X[:, 1]) > 0).astype(np.int64)  # XOR-like
    return X, y


class TestBinaryBooster:
    def test_learns_linear_signal(self):
        X, y = make_data()
        model = GradientBoostingBinaryClassifier(n_estimators=30).fit(X, y)
        assert np.mean(model.predict(X) == y) > 0.93

    def test_learns_nonlinear_signal(self):
        X, y = make_nonlinear()
        model = GradientBoostingBinaryClassifier(n_estimators=40).fit(X, y)
        assert np.mean(model.predict(X) == y) > 0.9

    def test_proba_in_unit_interval(self):
        X, y = make_data()
        proba = GradientBoostingBinaryClassifier(n_estimators=10).fit(X, y).predict_proba(X)
        assert (proba >= 0).all() and (proba <= 1).all()
        assert np.allclose(proba.sum(axis=1), 1.0)

    def test_more_rounds_reduce_training_error(self):
        X, y = make_nonlinear()
        few = GradientBoostingBinaryClassifier(n_estimators=3).fit(X, y)
        many = GradientBoostingBinaryClassifier(n_estimators=50).fit(X, y)
        assert np.mean(many.predict(X) == y) >= np.mean(few.predict(X) == y)

    def test_depth_wise_growth(self):
        X, y = make_data()
        model = GradientBoostingBinaryClassifier(
            n_estimators=20, growth="depth_wise", max_depth=3
        ).fit(X, y)
        assert np.mean(model.predict(X) == y) > 0.9

    def test_invalid_growth_raises(self):
        with pytest.raises(ModelError):
            GradientBoostingBinaryClassifier(growth="sideways")

    def test_invalid_estimators_raise(self):
        with pytest.raises(ModelError):
            GradientBoostingBinaryClassifier(n_estimators=0)

    @pytest.mark.parametrize(
        "make",
        [
            GradientBoostingBinaryClassifier,
            lambda **params: LightGBMClassifier(**params).fit(*make_data(80)),
            lambda **params: XGBoostClassifier(**params).fit(*make_data(80)),
            ReferenceBoosting,
        ],
        ids=["binary", "lightgbm", "xgboost", "oracle"],
    )
    def test_no_regulariser_raises(self, make):
        # With all three at 0 a cut leaving a child empty is valid, gain 0 / 0.
        with pytest.raises(ModelError, match="0"):
            make(reg_lambda=0, min_child_weight=0, min_samples_leaf=0)

    def test_one_regulariser_is_enough(self):
        X, y = make_data(80)
        for params in (
            dict(reg_lambda=0, min_child_weight=0, min_samples_leaf=1),
            dict(reg_lambda=0, min_child_weight=1e-3, min_samples_leaf=0),
            dict(reg_lambda=1.0, min_child_weight=0, min_samples_leaf=0),
        ):
            # With reg_lambda 0 an empty candidate child's gain is 0 / 0; the
            # regulariser left makes that cut invalid, so it is never chosen.
            with np.errstate(divide="ignore", invalid="ignore"):
                ours = GradientBoostingBinaryClassifier(n_estimators=3, **params)
                ours.fit(X, y)
                reference = ReferenceBoosting(n_estimators=3, **params).fit(X, y)
            assert np.array_equal(
                ours.predict_proba(X), reference.predict_proba(X)
            ), params

    def test_unfitted_raises(self):
        with pytest.raises(ModelError):
            GradientBoostingBinaryClassifier().predict(np.zeros((1, 2)))

    def test_nan_raises(self):
        with pytest.raises(ModelError):
            GradientBoostingBinaryClassifier().fit(
                np.array([[np.nan]]), np.array([0.0])
            )

    def test_single_class_training(self):
        X = np.random.default_rng(0).normal(0, 1, (50, 2))
        y = np.zeros(50)
        model = GradientBoostingBinaryClassifier(n_estimators=3).fit(X, y)
        assert (model.predict(X) == 0).all()

    def test_max_leaves_bounds_tree_size(self):
        X, y = make_nonlinear()
        model = GradientBoostingBinaryClassifier(n_estimators=1, max_leaves=4).fit(X, y)
        assert len(list(model._trees[0].leaves())) <= 4


@pytest.mark.parametrize("cls", [LightGBMClassifier, XGBoostClassifier])
class TestWrappers:
    def test_binary(self, cls):
        X, y = make_data()
        model = cls(n_estimators=20).fit(X, y)
        assert np.mean(model.predict(X) == y) > 0.9

    def test_multiclass_one_vs_rest(self, cls):
        rng = np.random.default_rng(5)
        X = rng.normal(0, 1, (400, 2))
        y = (X[:, 0] > 0).astype(int) + 2 * (X[:, 1] > 0).astype(int)
        model = cls(n_estimators=15).fit(X, y)
        proba = model.predict_proba(X)
        assert proba.shape == (400, 4)
        assert np.allclose(proba.sum(axis=1), 1.0)
        assert np.mean(model.predict(X) == y) > 0.85

    def test_unfitted_raises(self, cls):
        with pytest.raises(ModelError):
            cls().predict_proba(np.zeros((1, 2)))


class TestGrowthStrategiesDiffer:
    def test_leaf_wise_and_depth_wise_give_different_models(self):
        X, y = make_nonlinear()
        leaf = LightGBMClassifier(n_estimators=5, max_leaves=6).fit(X, y)
        depth = XGBoostClassifier(n_estimators=5, max_depth=2).fit(X, y)
        assert not np.allclose(leaf.predict_proba(X), depth.predict_proba(X))
