"""CART classification trees on numpy.

Split search is vectorised per feature: values are sorted once per node and
candidate thresholds are scored with cumulative class counts (Gini).
``max_features`` enables the column subsampling the forest ensembles rely
on, and ``random_thresholds`` gives the Extra-Trees variant its randomised
cut points.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..errors import ModelError

__all__ = ["DecisionTreeClassifier"]

_EPS = 1e-12


@dataclass
class _Node:
    """A tree node; leaves carry ``value`` and internals carry a split."""

    value: np.ndarray | float
    feature: int = -1
    threshold: float = 0.0
    left: "_Node | None" = None
    right: "_Node | None" = None

    @property
    def is_leaf(self) -> bool:
        return self.left is None


def _validate_matrix(X: np.ndarray, y: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    X = np.asarray(X, dtype=np.float64)
    y = np.asarray(y)
    if X.ndim != 2:
        raise ModelError("X must be a 2-D matrix")
    if X.shape[0] != y.shape[0]:
        raise ModelError(f"X has {X.shape[0]} rows but y has {y.shape[0]}")
    if X.shape[0] == 0:
        raise ModelError("cannot fit on zero rows")
    if not np.isfinite(X).all():
        raise ModelError("X contains non-finite values; encode/impute first")
    return X, y


class DecisionTreeClassifier:
    """CART classifier minimising Gini impurity."""

    def __init__(
        self,
        max_depth: int = 12,
        min_samples_split: int = 2,
        min_samples_leaf: int = 1,
        max_features: int | float | str | None = None,
        random_thresholds: bool = False,
        seed: int = 0,
    ):
        if max_depth < 1:
            raise ModelError(f"max_depth must be >= 1, got {max_depth}")
        if min_samples_leaf < 1:
            raise ModelError(f"min_samples_leaf must be >= 1, got {min_samples_leaf}")
        self.max_depth = max_depth
        self.min_samples_split = max(min_samples_split, 2 * min_samples_leaf)
        self.min_samples_leaf = min_samples_leaf
        self.max_features = max_features
        self.random_thresholds = random_thresholds
        self.seed = seed
        self.n_classes_ = 0
        self._root: _Node | None = None
        self._n_features = 0
        self._importance_gain: np.ndarray | None = None

    def fit(self, X: np.ndarray, y: np.ndarray) -> "DecisionTreeClassifier":
        """Fit on class indices ``y`` in ``0..C-1``."""
        X, y = _validate_matrix(X, y)
        y = y.astype(np.int64)
        if y.min() < 0:
            raise ModelError("class labels must be non-negative indices")
        self.n_classes_ = int(y.max()) + 1
        self._n_features = X.shape[1]
        self._importance_gain = np.zeros(X.shape[1], dtype=np.float64)
        rng = np.random.default_rng(self.seed)
        self._root = self._build(X, y, depth=0, rng=rng)
        return self

    def _leaf_value(self, y: np.ndarray) -> np.ndarray:
        counts = np.bincount(y, minlength=self.n_classes_).astype(np.float64)
        return counts / counts.sum()

    def _is_pure(self, y: np.ndarray) -> bool:
        return bool(np.all(y == y[0]))

    def _impurity(self, y: np.ndarray) -> float:
        if len(y) == 0:
            return 0.0
        p = np.bincount(y, minlength=self.n_classes_) / len(y)
        return float(1.0 - np.sum(p * p))

    def _split_gain(
        self, x: np.ndarray, y: np.ndarray, min_leaf: int
    ) -> tuple[float, float]:
        """Best (gain, threshold) for one feature; gain <= 0 means no split."""
        order = np.argsort(x, kind="stable")
        xs, ys = x[order], y[order]
        n = len(ys)
        one_hot = np.zeros((n, self.n_classes_), dtype=np.float64)
        one_hot[np.arange(n), ys] = 1.0
        left_counts = np.cumsum(one_hot, axis=0)
        total = left_counts[-1]
        # Candidate split after position i (1-based prefix of size i+1).
        sizes_left = np.arange(1, n, dtype=np.float64)
        lc = left_counts[:-1]
        rc = total - lc
        gini_left = 1.0 - np.sum((lc / sizes_left[:, None]) ** 2, axis=1)
        sizes_right = n - sizes_left
        gini_right = 1.0 - np.sum((rc / sizes_right[:, None]) ** 2, axis=1)
        parent = self._impurity(ys)
        gains = parent - (sizes_left * gini_left + sizes_right * gini_right) / n
        valid = (xs[:-1] < xs[1:]) & (sizes_left >= min_leaf) & (sizes_right >= min_leaf)
        if not valid.any():
            return 0.0, 0.0
        gains = np.where(valid, gains, -np.inf)
        best = int(np.argmax(gains))
        threshold = 0.5 * (xs[best] + xs[best + 1])
        return float(gains[best]), float(threshold)

    def _feature_candidates(self, rng: np.random.Generator) -> np.ndarray:
        d = self._n_features
        spec = self.max_features
        if spec is None:
            k = d
        elif spec == "sqrt":
            k = max(1, int(np.sqrt(d)))
        elif isinstance(spec, float):
            k = max(1, int(spec * d))
        elif isinstance(spec, int):
            k = max(1, min(spec, d))
        else:
            raise ModelError(f"invalid max_features: {spec!r}")
        if k >= d:
            return np.arange(d)
        return rng.choice(d, size=k, replace=False)

    def _build(
        self, X: np.ndarray, y: np.ndarray, depth: int, rng: np.random.Generator
    ) -> _Node:
        node = _Node(value=self._leaf_value(y))
        if (
            depth >= self.max_depth
            or len(y) < self.min_samples_split
            or self._is_pure(y)
        ):
            return node
        best_gain = 0.0
        best_feature = -1
        best_threshold = 0.0
        for j in self._feature_candidates(rng):
            x = X[:, j]
            if self.random_thresholds:
                gain, threshold = self._random_split_gain(x, y, rng)
            else:
                gain, threshold = self._split_gain(x, y, self.min_samples_leaf)
            if gain > best_gain + _EPS:
                best_gain, best_feature, best_threshold = gain, int(j), threshold
        if best_feature < 0:
            return node
        goes_left = X[:, best_feature] <= best_threshold
        n_left = int(goes_left.sum())
        if n_left < self.min_samples_leaf or len(y) - n_left < self.min_samples_leaf:
            return node
        node.feature = best_feature
        node.threshold = best_threshold
        self._importance_gain[best_feature] += best_gain * len(y)
        node.left = self._build(X[goes_left], y[goes_left], depth + 1, rng)
        node.right = self._build(X[~goes_left], y[~goes_left], depth + 1, rng)
        return node

    def _random_split_gain(
        self, x: np.ndarray, y: np.ndarray, rng: np.random.Generator
    ) -> tuple[float, float]:
        """Extra-Trees style: score a single uniform-random threshold."""
        lo, hi = float(x.min()), float(x.max())
        if hi <= lo:
            return 0.0, 0.0
        threshold = float(rng.uniform(lo, hi))
        goes_left = x <= threshold
        n_left = int(goes_left.sum())
        if n_left < self.min_samples_leaf or len(y) - n_left < self.min_samples_leaf:
            return 0.0, 0.0
        gain = self._impurity(y) - (
            n_left / len(y) * self._impurity(y[goes_left])
            + (len(y) - n_left) / len(y) * self._impurity(y[~goes_left])
        )
        return float(gain), threshold

    def _predict_node(self, X: np.ndarray) -> list:
        if self._root is None:
            raise ModelError("tree is not fitted")
        out = [None] * len(X)
        stack: list[tuple[_Node, np.ndarray]] = [(self._root, np.arange(len(X)))]
        while stack:
            node, idx = stack.pop()
            if node.is_leaf or node.left is None or node.right is None:
                for i in idx:
                    out[i] = node.value
                continue
            goes_left = X[idx, node.feature] <= node.threshold
            stack.append((node.left, idx[goes_left]))
            stack.append((node.right, idx[~goes_left]))
        return out

    @property
    def feature_importances_(self) -> np.ndarray:
        """Total impurity decrease per feature, normalised to sum to 1.

        The importance signal ARDA's random-injection selection thresholds
        against.  A stump-less tree (no splits) reports all zeros.
        """
        if self._importance_gain is None:
            raise ModelError("tree is not fitted")
        total = self._importance_gain.sum()
        if total == 0.0:
            return np.zeros_like(self._importance_gain)
        return self._importance_gain / total

    def predict_proba(self, X: np.ndarray) -> np.ndarray:
        """Per-class probabilities (leaf class frequencies)."""
        X = np.asarray(X, dtype=np.float64)
        return np.vstack(self._predict_node(X))

    def predict(self, X: np.ndarray) -> np.ndarray:
        """Most probable class index per row."""
        return np.argmax(self.predict_proba(X), axis=1)
