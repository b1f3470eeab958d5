"""L1-regularised logistic regression via proximal gradient descent.

The paper's "Linear Regression with L1 regularisation (LR)" baseline model
for classification — in practice a sparse linear classifier.  We optimise
the logistic loss with ISTA (gradient step + soft-thresholding), on
z-scored features, with an unpenalised intercept.  Multi-class tasks are
handled one-vs-rest.
"""

from __future__ import annotations

import numpy as np

from ..errors import ModelError

__all__ = ["LogisticRegressionL1"]


def _sigmoid(z: np.ndarray) -> np.ndarray:
    return 1.0 / (1.0 + np.exp(-np.clip(z, -60.0, 60.0)))


def _soft_threshold(w: np.ndarray, step: float) -> np.ndarray:
    return np.sign(w) * np.maximum(np.abs(w) - step, 0.0)


class _BinaryL1Logistic:
    """One binary L1 logistic problem solved with ISTA."""

    def __init__(self, alpha: float, max_iter: int, tol: float):
        self.alpha = alpha
        self.max_iter = max_iter
        self.tol = tol
        self.weights: np.ndarray | None = None
        self.intercept = 0.0

    def fit(self, X: np.ndarray, y: np.ndarray) -> "_BinaryL1Logistic":
        n, d = X.shape
        w = np.zeros(d, dtype=np.float64)
        b = 0.0
        # Lipschitz constant of the logistic gradient: ||X||^2 / (4n).
        lipschitz = (np.linalg.norm(X, ord=2) ** 2) / (4.0 * n) + 1e-12
        step = 1.0 / lipschitz
        for _ in range(self.max_iter):
            z = X @ w + b
            residual = _sigmoid(z) - y
            grad_w = X.T @ residual / n
            grad_b = float(residual.mean())
            w_new = _soft_threshold(w - step * grad_w, step * self.alpha)
            b_new = b - step * grad_b
            delta = max(float(np.max(np.abs(w_new - w))), abs(b_new - b))
            w, b = w_new, b_new
            if delta < self.tol:
                break
        self.weights = w
        self.intercept = b
        return self

    def decision_function(self, X: np.ndarray) -> np.ndarray:
        if self.weights is None:
            raise ModelError("model is not fitted")
        return X @ self.weights + self.intercept


class LogisticRegressionL1:
    """Sparse linear classifier (logistic loss + L1 penalty).

    Parameters
    ----------
    alpha:
        L1 penalty strength; larger values zero out more coefficients.
    max_iter, tol:
        ISTA iteration budget and convergence threshold on the max
        coefficient change.
    """

    def __init__(self, alpha: float = 0.01, max_iter: int = 400, tol: float = 1e-5):
        if alpha < 0:
            raise ModelError(f"alpha must be non-negative, got {alpha}")
        self.alpha = alpha
        self.max_iter = max_iter
        self.tol = tol
        self._models: list[_BinaryL1Logistic] = []
        self._mean: np.ndarray | None = None
        self._std: np.ndarray | None = None
        self.n_classes_ = 0

    def _standardise(self, X: np.ndarray) -> np.ndarray:
        assert self._mean is not None and self._std is not None
        return (X - self._mean) / self._std

    def fit(self, X: np.ndarray, y: np.ndarray) -> "LogisticRegressionL1":
        """Fit on class indices ``y`` in ``0..C-1``."""
        X = np.asarray(X, dtype=np.float64)
        y = np.asarray(y, dtype=np.int64)
        if X.ndim != 2 or X.shape[0] != y.shape[0]:
            raise ModelError("X/y shape mismatch")
        if X.shape[0] == 0:
            raise ModelError("cannot fit on zero rows")
        self._mean = X.mean(axis=0)
        self._std = X.std(axis=0)
        self._std[self._std == 0.0] = 1.0
        Xs = self._standardise(X)
        self.n_classes_ = int(y.max()) + 1
        self._models = []
        if self.n_classes_ <= 2:
            # The positive class is index 1 even when only class 0 is present.
            model = _BinaryL1Logistic(self.alpha, self.max_iter, self.tol)
            model.fit(Xs, (y == 1).astype(np.float64))
            self._models.append(model)
            return self
        for cls in range(self.n_classes_):
            model = _BinaryL1Logistic(self.alpha, self.max_iter, self.tol)
            model.fit(Xs, (y == cls).astype(np.float64))
            self._models.append(model)
        return self

    def predict_proba(self, X: np.ndarray) -> np.ndarray:
        """Class-probability matrix."""
        if not self._models:
            raise ModelError("model is not fitted")
        Xs = self._standardise(np.asarray(X, dtype=np.float64))
        if self.n_classes_ <= 2:
            p1 = _sigmoid(self._models[0].decision_function(Xs))
            return np.column_stack([1.0 - p1, p1])
        scores = np.column_stack(
            [_sigmoid(m.decision_function(Xs)) for m in self._models]
        )
        total = scores.sum(axis=1, keepdims=True)
        total[total == 0.0] = 1.0
        return scores / total

    def predict(self, X: np.ndarray) -> np.ndarray:
        """Most probable class index per row."""
        return np.argmax(self.predict_proba(X), axis=1)
