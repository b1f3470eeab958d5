"""Histogram-based gradient-boosted decision trees.

A from-scratch reproduction of the two boosted learners the paper
evaluates with:

* :class:`LightGBMClassifier` — *leaf-wise* growth: the leaf with the
  highest split gain anywhere in the tree is split next, up to
  ``max_leaves`` (LightGBM's signature strategy);
* :class:`XGBoostClassifier` — *depth-wise* growth to ``max_depth`` with
  the same second-order gain formula and L2 leaf regularisation.

Both share the histogram machinery: features are quantile-binned once per
fit (at most ``max_bins`` bins) and their codes offset into one
``n_features × width`` slot layout, so a node's gradient/hessian/count
histograms of *all* features are three flat ``np.bincount`` calls, and
split gains use the standard second-order formulation
gain = G_L²/(H_L+λ) + G_R²/(H_R+λ) − G²/(H+λ).  Binary tasks use logistic
loss; multi-class is one-vs-rest over one shared binning.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass, field
from typing import Iterator

import numpy as np

from ..errors import ModelError

__all__ = ["LightGBMClassifier", "XGBoostClassifier", "GradientBoostingBinaryClassifier"]

_MAX_BINS_DEFAULT = 48


class _BinMapper:
    """Quantile binning of a float matrix into small integer codes."""

    def __init__(self, max_bins: int = _MAX_BINS_DEFAULT):
        self.max_bins = max_bins
        self._edges: list[np.ndarray] = []

    def fit(self, X: np.ndarray) -> "_BinMapper":
        self._edges = []
        for j in range(X.shape[1]):
            col = X[:, j]
            quantiles = np.quantile(col, np.linspace(0, 1, self.max_bins + 1)[1:-1])
            self._edges.append(np.unique(quantiles))
        return self

    def transform(self, X: np.ndarray) -> np.ndarray:
        if len(self._edges) != X.shape[1]:
            raise ModelError("bin mapper fitted on a different number of features")
        out = np.empty(X.shape, dtype=np.int64)
        for j, edges in enumerate(self._edges):
            out[:, j] = np.searchsorted(edges, X[:, j], side="right")
        return out

    def n_bins(self, feature: int) -> int:
        return len(self._edges[feature]) + 1


@dataclass(frozen=True)
class _BinnedMatrix:
    """A training matrix binned once per fit, in the split kernel's layout."""

    mapper: _BinMapper
    codes: np.ndarray  # (n, F) bin codes
    slots: np.ndarray  # (n, F) codes + feature * width: one histogram slot each
    width: int
    cut_exists: np.ndarray  # (F, width - 1): cut b separates two bins of feature j

    @classmethod
    def build(cls, X: np.ndarray, n_rows: int, max_bins: int) -> "_BinnedMatrix":
        X = np.asarray(X, dtype=np.float64)
        if X.ndim != 2 or X.shape[0] != n_rows:
            raise ModelError("X/y shape mismatch")
        if not np.isfinite(X).all():
            raise ModelError("X contains non-finite values; encode/impute first")
        mapper = _BinMapper(max_bins).fit(X)
        codes = mapper.transform(X)
        n_bins = np.array(
            [mapper.n_bins(j) for j in range(X.shape[1])], dtype=np.int64
        )
        width = int(n_bins.max(initial=1))
        slots = codes + np.arange(X.shape[1], dtype=np.int64) * width
        cut_exists = np.arange(width - 1) < (n_bins[:, np.newaxis] - 1)
        return cls(mapper, codes, slots, width, cut_exists)


@dataclass
class _HistNode:
    """A node of a histogram tree over binned features."""

    rows: np.ndarray
    depth: int
    value: float = 0.0
    feature: int = -1
    bin_threshold: int = -1
    left: "_HistNode | None" = None
    right: "_HistNode | None" = None
    best_gain: float = field(default=0.0, compare=False)
    best_feature: int = field(default=-1, compare=False)
    best_bin: int = field(default=-1, compare=False)

    @property
    def is_leaf(self) -> bool:
        return self.left is None


class _HistTreeBuilder:
    """Grows one regression tree on (gradient, hessian) statistics."""

    def __init__(
        self,
        data: _BinnedMatrix,
        grad: np.ndarray,
        hess: np.ndarray,
        reg_lambda: float,
        min_child_weight: float,
        min_samples_leaf: int,
    ):
        self.data = data
        self.grad = grad
        self.hess = hess
        self.reg_lambda = reg_lambda
        self.min_child_weight = min_child_weight
        self.min_samples_leaf = min_samples_leaf

    def _leaf_value(self, rows: np.ndarray) -> float:
        g = float(self.grad[rows].sum())
        h = float(self.hess[rows].sum())
        return -g / (h + self.reg_lambda)

    def _score(self, g: float | np.ndarray, h: float | np.ndarray):
        return g * g / (h + self.reg_lambda)

    def _find_best_split(self, node: _HistNode) -> None:
        """Store the best (feature, bin, gain) of ``node`` over all features.

        One flat bincount per statistic fills every feature's histogram;
        each slot still accumulates its rows in ``rows`` order, so the sums
        (and everything derived from them) are the floats a per-feature
        bincount gives.  The row-major argmax keeps the tie-break: lowest
        feature, then lowest bin, gain strictly above 0.
        """
        rows, data = node.rows, self.data
        if len(rows) < 2 * self.min_samples_leaf or data.width < 2:
            return  # too few rows for two leaves, or no feature has two bins
        shape = (data.slots.shape[1], data.width)
        grad, hess = self.grad[rows], self.hess[rows]
        g_total = float(grad.sum())
        h_total = float(hess.sum())
        slots = data.slots[rows].ravel()

        def left_sums(weights: np.ndarray | None) -> np.ndarray:
            hist = np.bincount(slots, weights=weights, minlength=shape[0] * shape[1])
            return np.cumsum(hist.reshape(shape), axis=1)[:, :-1]

        g_left = left_sums(np.repeat(grad, shape[0]))
        h_left = left_sums(np.repeat(hess, shape[0]))
        c_left = left_sums(None)
        g_right = g_total - g_left
        h_right = h_total - h_left
        c_right = len(rows) - c_left
        valid = (
            data.cut_exists
            & (c_left >= self.min_samples_leaf)
            & (c_right >= self.min_samples_leaf)
            & (h_left >= self.min_child_weight)
            & (h_right >= self.min_child_weight)
        )
        gains = (
            self._score(g_left, h_left)
            + self._score(g_right, h_right)
            - self._score(g_total, h_total)
        )
        gains = np.where(valid, gains, -np.inf)
        best = int(np.argmax(gains))
        feature, cut = divmod(best, data.width - 1)
        if gains[feature, cut] > 0.0:
            node.best_gain = float(gains[feature, cut])
            node.best_feature = feature
            node.best_bin = cut

    def split(self, node: _HistNode) -> tuple[_HistNode, _HistNode]:
        """Apply the stored best split and return the two children."""
        mask = self.data.codes[node.rows, node.best_feature] <= node.best_bin
        left_rows = node.rows[mask]
        right_rows = node.rows[~mask]
        node.feature = node.best_feature
        node.bin_threshold = node.best_bin
        node.left = _HistNode(rows=left_rows, depth=node.depth + 1)
        node.right = _HistNode(rows=right_rows, depth=node.depth + 1)
        node.left.value = self._leaf_value(left_rows)
        node.right.value = self._leaf_value(right_rows)
        return node.left, node.right


class _HistTree:
    """A fitted histogram tree: predicts leaf values over binned rows."""

    def __init__(self, root: _HistNode):
        self._root = root

    def predict_binned(self, binned: np.ndarray) -> np.ndarray:
        out = np.zeros(len(binned), dtype=np.float64)
        stack = [(self._root, np.arange(len(binned)))]
        while stack:
            node, idx = stack.pop()
            if node.is_leaf or node.left is None or node.right is None:
                out[idx] = node.value
                continue
            mask = binned[idx, node.feature] <= node.bin_threshold
            stack.append((node.left, idx[mask]))
            stack.append((node.right, idx[~mask]))
        return out

    def leaves(self) -> Iterator[_HistNode]:
        """Every leaf; together their ``rows`` partition the training rows."""
        stack = [self._root]
        while stack:
            node = stack.pop()
            if node.is_leaf:
                yield node
            else:
                stack.extend((node.left, node.right))


def _grow_leaf_wise(
    builder: _HistTreeBuilder,
    rows: np.ndarray,
    max_leaves: int,
) -> _HistTree:
    root = _HistNode(rows=rows, depth=0)
    root.value = builder._leaf_value(rows)
    builder._find_best_split(root)
    counter = 0
    heap: list[tuple[float, int, _HistNode]] = []
    if root.best_feature >= 0:
        heap.append((-root.best_gain, counter, root))
    n_leaves = 1
    while heap and n_leaves < max_leaves:
        neg_gain, _, node = heapq.heappop(heap)
        if -neg_gain <= 0.0:
            break
        left, right = builder.split(node)
        n_leaves += 1
        if n_leaves == max_leaves:
            break  # the children's best splits would never be popped
        for child in (left, right):
            builder._find_best_split(child)
            if child.best_feature >= 0:
                counter += 1
                heapq.heappush(heap, (-child.best_gain, counter, child))
    return _HistTree(root)


def _grow_depth_wise(
    builder: _HistTreeBuilder,
    rows: np.ndarray,
    max_depth: int,
) -> _HistTree:
    root = _HistNode(rows=rows, depth=0)
    root.value = builder._leaf_value(rows)
    frontier = [root]
    while frontier:
        next_frontier: list[_HistNode] = []
        for node in frontier:
            if node.depth >= max_depth:
                continue
            builder._find_best_split(node)
            if node.best_feature < 0 or node.best_gain <= 0.0:
                continue
            left, right = builder.split(node)
            next_frontier.extend((left, right))
        frontier = next_frontier
    return _HistTree(root)


def _sigmoid(z: np.ndarray) -> np.ndarray:
    return 1.0 / (1.0 + np.exp(-np.clip(z, -60.0, 60.0)))


class GradientBoostingBinaryClassifier:
    """Binary logistic-loss GBDT with pluggable tree-growth strategy."""

    def __init__(
        self,
        n_estimators: int = 60,
        learning_rate: float = 0.15,
        max_leaves: int = 31,
        max_depth: int = 6,
        max_bins: int = _MAX_BINS_DEFAULT,
        reg_lambda: float = 1.0,
        min_child_weight: float = 1e-3,
        min_samples_leaf: int = 5,
        growth: str = "leaf_wise",
        seed: int = 0,
    ):
        if growth not in ("leaf_wise", "depth_wise"):
            raise ModelError(f"growth must be leaf_wise or depth_wise, got {growth!r}")
        if n_estimators < 1:
            raise ModelError(f"n_estimators must be >= 1, got {n_estimators}")
        self.n_estimators = n_estimators
        self.learning_rate = learning_rate
        self.max_leaves = max_leaves
        self.max_depth = max_depth
        self.max_bins = max_bins
        self.reg_lambda = reg_lambda
        self.min_child_weight = min_child_weight
        self.min_samples_leaf = min_samples_leaf
        self.growth = growth
        self.seed = seed
        self._mapper: _BinMapper | None = None
        self._trees: list[_HistTree] = []
        self._base_score = 0.0

    def fit(self, X: np.ndarray, y: np.ndarray) -> "GradientBoostingBinaryClassifier":
        """Fit on binary labels (0/1)."""
        y = np.asarray(y, dtype=np.float64)
        return self._fit_binned(_BinnedMatrix.build(X, len(y), self.max_bins), y)

    def _fit_binned(
        self, data: _BinnedMatrix, y: np.ndarray
    ) -> "GradientBoostingBinaryClassifier":
        """Boost on an already binned matrix (shared across one-vs-rest models)."""
        positive_rate = float(np.clip(y.mean(), 1e-6, 1 - 1e-6))
        self._base_score = float(np.log(positive_rate / (1 - positive_rate)))
        self._mapper = data.mapper
        raw = np.full(len(y), self._base_score, dtype=np.float64)
        self._trees = []
        rows = np.arange(len(y))
        for _ in range(self.n_estimators):
            p = _sigmoid(raw)
            grad = p - y
            hess = p * (1.0 - p)
            builder = _HistTreeBuilder(
                data,
                grad,
                hess,
                self.reg_lambda,
                self.min_child_weight,
                self.min_samples_leaf,
            )
            if self.growth == "leaf_wise":
                tree = _grow_leaf_wise(builder, rows, self.max_leaves)
            else:
                tree = _grow_depth_wise(builder, rows, self.max_depth)
            self._trees.append(tree)
            # The leaves partition ``rows``, so this is the training update
            # ``raw += lr * tree.predict_binned(data.codes)``, bit for bit.
            for leaf in tree.leaves():
                raw[leaf.rows] += self.learning_rate * leaf.value
        return self

    def decision_function(self, X: np.ndarray) -> np.ndarray:
        """Raw additive score before the sigmoid."""
        if self._mapper is None:
            raise ModelError("model is not fitted")
        binned = self._mapper.transform(np.asarray(X, dtype=np.float64))
        raw = np.full(len(binned), self._base_score, dtype=np.float64)
        for tree in self._trees:
            raw += self.learning_rate * tree.predict_binned(binned)
        return raw

    def predict_proba(self, X: np.ndarray) -> np.ndarray:
        """(n, 2) matrix of [P(class 0), P(class 1)]."""
        p1 = _sigmoid(self.decision_function(X))
        return np.column_stack([1.0 - p1, p1])

    def predict(self, X: np.ndarray) -> np.ndarray:
        """Hard 0/1 predictions."""
        return (self.decision_function(X) > 0.0).astype(np.int64)


class _OneVsRestGBDT:
    """Multi-class wrapper: one binary booster per class."""

    growth = "leaf_wise"

    def __init__(self, **kwargs):
        self._kwargs = kwargs
        self._models: list[GradientBoostingBinaryClassifier] = []
        self.n_classes_ = 0

    def fit(self, X: np.ndarray, y: np.ndarray):
        """Fit on class indices ``y`` in ``0..C-1``."""
        y = np.asarray(y, dtype=np.int64)
        self.n_classes_ = int(y.max()) + 1 if y.size else 0
        # Up to two classes need one booster, whose positive class is index 1.
        classes = [1] if self.n_classes_ <= 2 else range(self.n_classes_)
        self._models = [
            GradientBoostingBinaryClassifier(growth=self.growth, **self._kwargs)
            for _ in classes
        ]
        # The binning depends on X alone: do it once for every per-class booster.
        data = _BinnedMatrix.build(X, len(y), self._models[0].max_bins)
        for cls, model in zip(classes, self._models):
            model._fit_binned(data, (y == cls).astype(np.float64))
        return self

    def predict_proba(self, X: np.ndarray) -> np.ndarray:
        """Class-probability matrix (normalised one-vs-rest scores)."""
        if not self._models:
            raise ModelError("model is not fitted")
        if self.n_classes_ <= 2:
            return self._models[0].predict_proba(X)
        scores = np.column_stack([m.predict_proba(X)[:, 1] for m in self._models])
        total = scores.sum(axis=1, keepdims=True)
        total[total == 0.0] = 1.0
        return scores / total

    def predict(self, X: np.ndarray) -> np.ndarray:
        """Most probable class index."""
        return np.argmax(self.predict_proba(X), axis=1)


class LightGBMClassifier(_OneVsRestGBDT):
    """Leaf-wise histogram GBDT (LightGBM's growth strategy)."""

    growth = "leaf_wise"


class XGBoostClassifier(_OneVsRestGBDT):
    """Depth-wise histogram GBDT with L2 leaf regularisation."""

    growth = "depth_wise"
