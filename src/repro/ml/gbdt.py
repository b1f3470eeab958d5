"""Histogram-based gradient-boosted decision trees.

A from-scratch reproduction of the two boosted learners the paper
evaluates with:

* :class:`LightGBMClassifier` — *leaf-wise* growth: the leaf with the
  highest split gain anywhere in the tree is split next, up to
  ``max_leaves`` (LightGBM's signature strategy);
* :class:`XGBoostClassifier` — *depth-wise* growth to ``max_depth`` with
  the same second-order gain formula and L2 leaf regularisation.

Both share the histogram machinery: features are quantile-binned once per
fit (at most ``max_bins`` bins) and their codes offset into one bin-major
``width × 2 × n_features`` slot layout, so the gradient/hessian/count
histograms of *both* children of a split, over *all* features, are three
flat ``np.bincount`` calls, and split gains use the standard second-order
formulation
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
    codes_t: np.ndarray  # (F, n) bin codes, feature-major: a split reads one row
    slots: np.ndarray  # (n, F) code * 2F + feature: a left child's slot; + F: a right's
    width: int
    cut_exists: np.ndarray  # (width - 1, 2, F): cut b separates two bins of feature j

    @classmethod
    def build(cls, X: np.ndarray, n_rows: int, max_bins: int) -> "_BinnedMatrix":
        X = np.asarray(X, dtype=np.float64)
        if X.ndim != 2 or X.shape[0] != n_rows:
            raise ModelError("X/y shape mismatch")
        if n_rows == 0:
            raise ModelError("cannot fit on zero rows")
        if not np.isfinite(X).all():
            raise ModelError("X contains non-finite values; encode/impute first")
        mapper = _BinMapper(max_bins).fit(X)
        codes = mapper.transform(X)
        n_features = X.shape[1]
        n_bins = np.array([mapper.n_bins(j) for j in range(n_features)], dtype=np.int64)
        width = int(n_bins.max(initial=1))
        slots = codes * (2 * n_features) + np.arange(n_features, dtype=np.int64)
        cut_exists = np.arange(width - 1).reshape(-1, 1, 1) < np.tile(n_bins - 1, (2, 1))
        return cls(mapper, np.ascontiguousarray(codes.T), slots, width, cut_exists)


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

    def _score(self, g: np.ndarray, h: np.ndarray) -> np.ndarray:
        """``g * g / (h + reg_lambda)``, computed in place in ``g`` and ``h``."""
        g *= g
        h += self.reg_lambda
        g /= h
        return g

    def children(
        self, rows: np.ndarray, n_left: int, depth: int, search: bool
    ) -> tuple[_HistNode, _HistNode]:
        """The nodes over ``rows[:n_left]`` and ``rows[n_left:]``, valued.

        With ``search``, one kernel pass stores both nodes' best splits.
        The root is the left node of ``children(rows, len(rows), 0, ...)``.
        """
        grad, hess = self.grad[rows], self.hess[rows]
        nodes, totals = [], []
        for half in (slice(n_left), slice(n_left, None)):
            # The same pairwise sums as ``self.grad[node.rows].sum()``.
            g, h = grad[half].sum(), hess[half].sum()
            denominator = h + self.reg_lambda
            nodes.append(_HistNode(rows[half], depth, float(-g / denominator)))
            totals.append((g, h, g * g / denominator))
        if search and self.data.width > 1:  # else no feature has two bins
            self._find_best_splits(nodes, rows, n_left, grad, hess, np.array(totals))
        return nodes[0], nodes[1]

    def _find_best_splits(
        self,
        nodes: list[_HistNode],
        rows: np.ndarray,
        n_left: int,
        grad: np.ndarray,
        hess: np.ndarray,
        totals: np.ndarray,
    ) -> None:
        """Store the best (feature, bin, gain) of both ``nodes`` over all features.

        ``rows`` holds the left node's rows then the right node's, ``grad``
        / ``hess`` their statistics and ``totals`` each node's (G, H, parent
        score).  One bincount per statistic fills both nodes' histograms of
        every feature in the bin-major layout ``code * 2F + side * F +
        feature``; each slot still accumulates its rows in ``rows`` order,
        so the sums (and everything derived from them) are the floats a
        per-feature, per-node bincount gives.  One argmax per node over the
        (feature, bin) transpose keeps the tie-break: lowest feature, then
        lowest bin, gain strictly above 0.  A node below
        ``2 * min_samples_leaf`` rows has no valid cut.
        """
        data = self.data
        n_features = data.slots.shape[1]
        slots = data.slots[rows]
        slots[n_left:] += n_features
        slots = slots.ravel()

        def left_sums(weights: np.ndarray | None) -> np.ndarray:
            hist = np.bincount(slots, weights, data.width * 2 * n_features)
            return hist.reshape(data.width, 2, n_features).cumsum(axis=0)[:-1]

        g_left = left_sums(grad.repeat(n_features))
        h_left = left_sums(hess.repeat(n_features))
        c_left = left_sums(None)
        g_right = totals[:, 0:1] - g_left
        h_right = totals[:, 1:2] - h_left
        c_right = np.array([[n_left], [len(rows) - n_left]]) - c_left
        valid = (
            data.cut_exists
            & (c_left >= self.min_samples_leaf)
            & (c_right >= self.min_samples_leaf)
            & (h_left >= self.min_child_weight)
            & (h_right >= self.min_child_weight)
        )
        gains = self._score(g_left, h_left)
        gains += self._score(g_right, h_right)
        gains -= totals[:, 2:3]  # the parent's score
        gains = np.where(valid, gains, -np.inf).transpose(1, 2, 0).reshape(2, -1)
        for node, node_gains, cut in zip(nodes, gains, gains.argmax(axis=1).tolist()):
            if node_gains[cut] > 0.0:
                node.best_gain = float(node_gains[cut])
                node.best_feature, node.best_bin = divmod(cut, data.width - 1)

    def split(self, node: _HistNode, search: bool) -> tuple[_HistNode, _HistNode]:
        """Apply the stored best split and return the two children.

        The parent's rows, left child's then right child's, each in the
        parent's order (a stable sort), so ``children`` gathers once.
        """
        right = self.data.codes_t[node.best_feature, node.rows] > node.best_bin
        rows = node.rows[right.argsort(kind="stable")]
        node.feature = node.best_feature
        node.bin_threshold = node.best_bin
        node.left, node.right = self.children(
            rows, len(rows) - int(np.count_nonzero(right)), node.depth + 1, search
        )
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
    root, __ = builder.children(rows, len(rows), 0, search=max_leaves > 1)
    counter = 0
    heap: list[tuple[float, int, _HistNode]] = []
    if root.best_feature >= 0:
        heap.append((-root.best_gain, counter, root))
    n_leaves = 1
    while heap and n_leaves < max_leaves:
        __, __, node = heapq.heappop(heap)
        n_leaves += 1
        # The last split's children would never be popped: no search.
        for child in builder.split(node, search=n_leaves < max_leaves):
            if child.best_feature >= 0:
                counter += 1
                heapq.heappush(heap, (-child.best_gain, counter, child))
    return _HistTree(root)


def _grow_depth_wise(
    builder: _HistTreeBuilder,
    rows: np.ndarray,
    max_depth: int,
) -> _HistTree:
    root, __ = builder.children(rows, len(rows), 0, search=max_depth > 0)
    frontier = [root]
    while frontier:
        frontier = [
            child
            for node in frontier
            if node.best_feature >= 0
            for child in builder.split(node, search=node.depth + 1 < max_depth)
        ]
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
        if reg_lambda == min_child_weight == min_samples_leaf == 0:
            # A cut leaving a child empty would be valid, with gain 0 / 0.
            raise ModelError(
                "one of reg_lambda, min_child_weight and min_samples_leaf must be > 0"
            )
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
            # ``raw += lr * tree.predict_binned(data.codes_t.T)``, bit for bit.
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
