"""Unit tests for KNN and L1 logistic regression."""

import numpy as np
import pytest

from repro.errors import ModelError
from repro.ml import KNeighborsClassifier, LogisticRegressionL1


def make_data(n=400, seed=0):
    rng = np.random.default_rng(seed)
    X = rng.normal(0, 1, (n, 3))
    y = ((X[:, 0] + X[:, 1]) > 0).astype(np.int64)
    return X, y


def influence(model, X):
    """Per column, the largest change in predicted probability when that
    column is held at its mean: exactly 0 where L1 zeroed its weights."""
    proba = model.predict_proba(X)
    out = []
    for j in range(X.shape[1]):
        held = X.copy()
        held[:, j] = X[:, j].mean()
        out.append(np.abs(model.predict_proba(held) - proba).max())
    return np.array(out)


class TestKNN:
    def test_learns_signal(self):
        X, y = make_data()
        model = KNeighborsClassifier(n_neighbors=5).fit(X, y)
        assert np.mean(model.predict(X) == y) > 0.85

    def test_one_neighbor_memorises(self):
        X, y = make_data(100)
        model = KNeighborsClassifier(n_neighbors=1).fit(X, y)
        assert np.mean(model.predict(X) == y) == 1.0

    def test_scale_invariance_via_standardisation(self):
        X, y = make_data()
        scaled = X.copy()
        scaled[:, 0] *= 1000  # blow up one dimension
        plain = KNeighborsClassifier(5).fit(X, y).predict(X)
        blown = KNeighborsClassifier(5).fit(scaled, y).predict(scaled)
        assert np.mean(plain == blown) > 0.95

    def test_degrades_with_noise_dimensions(self):
        # The curse of dimensionality the paper leans on for Figures 5/7.
        rng = np.random.default_rng(1)
        X, y = make_data(300, seed=1)
        X_train, X_test, y_train, y_test = X[:200], X[200:], y[:200], y[200:]
        clean = KNeighborsClassifier(5).fit(X_train, y_train)
        clean_acc = np.mean(clean.predict(X_test) == y_test)
        noisy_train = np.hstack([X_train, rng.normal(0, 1, (200, 40))])
        noisy_test = np.hstack([X_test, rng.normal(0, 1, (100, 40))])
        noisy = KNeighborsClassifier(5).fit(noisy_train, y_train)
        noisy_acc = np.mean(noisy.predict(noisy_test) == y_test)
        assert noisy_acc < clean_acc

    def test_proba_shape(self):
        X, y = make_data(100)
        proba = KNeighborsClassifier(3).fit(X, y).predict_proba(X)
        assert proba.shape == (100, 2)
        assert np.allclose(proba.sum(axis=1), 1.0)

    def test_k_capped_at_train_size(self):
        X, y = make_data(10)
        model = KNeighborsClassifier(n_neighbors=50).fit(X, y)
        assert model.predict(X).shape == (10,)

    def test_invalid_k_raises(self):
        with pytest.raises(ModelError):
            KNeighborsClassifier(0)

    def test_unfitted_raises(self):
        with pytest.raises(ModelError):
            KNeighborsClassifier().predict(np.zeros((1, 3)))

    def test_empty_fit_raises(self):
        with pytest.raises(ModelError):
            KNeighborsClassifier().fit(np.zeros((0, 2)), np.zeros(0))


class TestLogisticL1:
    def test_learns_signal(self):
        X, y = make_data()
        model = LogisticRegressionL1(alpha=0.001).fit(X, y)
        assert np.mean(model.predict(X) == y) > 0.9

    def test_l1_zeroes_noise_coefficients(self):
        rng = np.random.default_rng(2)
        n = 500
        signal = rng.normal(0, 1, n)
        y = (signal > 0).astype(np.int64)
        X = np.column_stack([signal, rng.normal(0, 1, (n, 6))])
        model = LogisticRegressionL1(alpha=0.05, max_iter=800).fit(X, y)
        moved = influence(model, X)
        assert moved[0] > 0.1
        assert np.sum(moved[1:] == 0.0) >= 4  # most noise weights zeroed

    def test_stronger_alpha_sparser(self):
        X, y = make_data()
        weak = LogisticRegressionL1(alpha=0.001).fit(X, y)
        strong = LogisticRegressionL1(alpha=0.3).fit(X, y)
        weak_used = np.sum(influence(weak, X) > 0.0)
        strong_used = np.sum(influence(strong, X) > 0.0)
        assert strong_used <= weak_used

    def test_multiclass(self):
        rng = np.random.default_rng(3)
        X = rng.normal(0, 1, (300, 2))
        y = (X[:, 0] > 0).astype(int) + 2 * (X[:, 1] > 0).astype(int)
        model = LogisticRegressionL1(alpha=0.001).fit(X, y)
        assert model.predict_proba(X).shape == (300, 4)
        assert np.mean(model.predict(X) == y) > 0.85

    def test_negative_alpha_raises(self):
        with pytest.raises(ModelError):
            LogisticRegressionL1(alpha=-1)

    def test_unfitted_raises(self):
        with pytest.raises(ModelError):
            LogisticRegressionL1().predict(np.zeros((1, 2)))

    def test_proba_normalised(self):
        X, y = make_data(200)
        proba = LogisticRegressionL1().fit(X, y).predict_proba(X)
        assert np.allclose(proba.sum(axis=1), 1.0)
