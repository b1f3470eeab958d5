"""Gradient-boosted trees grown one node and one feature at a time.

``repro.ml.gbdt`` bins a fit once into a bin-major slot layout, scores both
children of a split in one kernel pass, carries node totals from the
partition, skips the search on the children of a leaf-wise tree's last
split and updates the training scores leaf by leaf.  This is the plain form
it is held to, bit for bit: per-feature histograms of one node at a time,
every node's totals summed from its own rows, every new node searched, and
every boosting round re-predicting every training row.  It shares only the
quantile binning (``_BinMapper``) with ``src``.
"""

import heapq
from dataclasses import dataclass

import numpy as np

from repro.errors import ModelError
from repro.ml.gbdt import _BinMapper


@dataclass
class Node:
    rows: np.ndarray
    depth: int
    value: float
    best: tuple[int, int, float] = (-1, -1, 0.0)  # (feature, bin, gain)
    left: "Node | None" = None
    right: "Node | None" = None


class ReferenceBuilder:
    """One regression tree's nodes and best splits, per feature."""

    def __init__(
        self, codes, n_bins, grad, hess, reg_lambda, min_child_weight, min_samples_leaf
    ):
        self.codes, self.n_bins = codes, n_bins
        self.grad, self.hess = grad, hess
        self.reg_lambda = reg_lambda
        self.min_child_weight = min_child_weight
        self.min_samples_leaf = min_samples_leaf

    def score(self, g, h):
        return g * g / (h + self.reg_lambda)

    def node(self, rows, depth) -> Node:
        g = float(self.grad[rows].sum())
        h = float(self.hess[rows].sum())
        return Node(rows=rows, depth=depth, value=-g / (h + self.reg_lambda))

    def best_split(self, rows) -> tuple[int, int, float]:
        """The (feature, bin, gain) of the best cut of ``rows``; lowest feature,
        then lowest bin, wins a tie, and only a gain above 0 counts."""
        g_total = float(self.grad[rows].sum())
        h_total = float(self.hess[rows].sum())
        parent_score = self.score(g_total, h_total)
        best = (-1, -1, 0.0)
        for j, n_bins in enumerate(self.n_bins):
            if n_bins < 2:
                continue
            bins = self.codes[rows, j]
            g_left = np.cumsum(np.bincount(bins, self.grad[rows], n_bins))[:-1]
            h_left = np.cumsum(np.bincount(bins, self.hess[rows], n_bins))[:-1]
            c_left = np.cumsum(np.bincount(bins, minlength=n_bins))[:-1]
            g_right = g_total - g_left
            h_right = h_total - h_left
            c_right = len(rows) - c_left
            valid = (
                (c_left >= self.min_samples_leaf)
                & (c_right >= self.min_samples_leaf)
                & (h_left >= self.min_child_weight)
                & (h_right >= self.min_child_weight)
            )
            if not valid.any():
                continue
            gains = self.score(g_left, h_left) + self.score(g_right, h_right) - parent_score
            gains = np.where(valid, gains, -np.inf)
            cut = int(np.argmax(gains))
            if gains[cut] > best[2]:
                best = (j, cut, float(gains[cut]))
        return best

    def search(self, node: Node) -> None:
        node.best = self.best_split(node.rows)

    def split(self, node: Node) -> tuple[Node, Node]:
        feature, cut, __ = node.best
        mask = self.codes[node.rows, feature] <= cut
        node.left = self.node(node.rows[mask], node.depth + 1)
        node.right = self.node(node.rows[~mask], node.depth + 1)
        return node.left, node.right


def grow_leaf_wise(builder: ReferenceBuilder, rows, max_leaves: int) -> Node:
    """Split the leaf of highest gain until ``max_leaves``; search every node."""
    root = builder.node(rows, 0)
    builder.search(root)
    counter, heap, n_leaves = 0, [], 1
    if root.best[0] >= 0:
        heap.append((-root.best[2], counter, root))
    while heap and n_leaves < max_leaves:
        __, __, node = heapq.heappop(heap)
        n_leaves += 1
        for child in builder.split(node):
            builder.search(child)
            if child.best[0] >= 0:
                counter += 1
                heapq.heappush(heap, (-child.best[2], counter, child))
    return root


def grow_depth_wise(builder: ReferenceBuilder, rows, max_depth: int) -> Node:
    """Split every node with a positive gain, level by level, to ``max_depth``."""
    root = builder.node(rows, 0)
    frontier = [root]
    while frontier:
        next_frontier = []
        for node in frontier:
            if node.depth >= max_depth:
                continue
            builder.search(node)
            if node.best[0] >= 0:
                next_frontier.extend(builder.split(node))
        frontier = next_frontier
    return root


def predict_tree(node: Node, codes: np.ndarray) -> np.ndarray:
    if node.left is None:
        return np.full(len(codes), node.value)
    feature, cut, __ = node.best
    mask = codes[:, feature] <= cut
    out = np.empty(len(codes))
    out[mask] = predict_tree(node.left, codes[mask])
    out[~mask] = predict_tree(node.right, codes[~mask])
    return out


def sigmoid(z):
    return 1.0 / (1.0 + np.exp(-np.clip(z, -60.0, 60.0)))


class ReferenceBoosting:
    """Binary logistic-loss boosting; each round re-predicts every row."""

    def __init__(
        self,
        n_estimators=60,
        learning_rate=0.15,
        max_leaves=31,
        max_depth=6,
        max_bins=48,
        reg_lambda=1.0,
        min_child_weight=1e-3,
        min_samples_leaf=5,
        growth="leaf_wise",
    ):
        if reg_lambda == min_child_weight == min_samples_leaf == 0:
            raise ModelError("an empty child would split with gain 0 / 0")
        self.n_estimators, self.learning_rate = n_estimators, learning_rate
        self.max_leaves, self.max_depth, self.max_bins = max_leaves, max_depth, max_bins
        self.reg_lambda, self.min_child_weight = reg_lambda, min_child_weight
        self.min_samples_leaf, self.growth = min_samples_leaf, growth

    def fit(self, X, y) -> "ReferenceBoosting":
        X, y = np.asarray(X, dtype=np.float64), np.asarray(y, dtype=np.float64)
        self.mapper = _BinMapper(self.max_bins).fit(X)
        codes = self.mapper.transform(X)
        n_bins = [self.mapper.n_bins(j) for j in range(X.shape[1])]
        positive_rate = float(np.clip(y.mean(), 1e-6, 1 - 1e-6))
        self.base_score = float(np.log(positive_rate / (1 - positive_rate)))
        raw = np.full(len(y), self.base_score)
        rows = np.arange(len(y))
        self.trees = []
        for _ in range(self.n_estimators):
            p = sigmoid(raw)
            builder = ReferenceBuilder(
                codes,
                n_bins,
                p - y,
                p * (1.0 - p),
                self.reg_lambda,
                self.min_child_weight,
                self.min_samples_leaf,
            )
            if self.growth == "leaf_wise":
                tree = grow_leaf_wise(builder, rows, self.max_leaves)
            else:
                tree = grow_depth_wise(builder, rows, self.max_depth)
            self.trees.append(tree)
            raw += self.learning_rate * predict_tree(tree, codes)
        self.training_raw = raw
        return self

    def decision_function(self, X) -> np.ndarray:
        codes = self.mapper.transform(np.asarray(X, dtype=np.float64))
        raw = np.full(len(codes), self.base_score)
        for tree in self.trees:
            raw += self.learning_rate * predict_tree(tree, codes)
        return raw

    def predict_proba(self, X) -> np.ndarray:
        p1 = sigmoid(self.decision_function(X))
        return np.column_stack([1.0 - p1, p1])


class ReferenceOneVsRest:
    """One binary booster per class (one, positive class 1, up to two)."""

    def __init__(self, growth, **params):
        self.growth, self.params = growth, params

    def fit(self, X, y) -> "ReferenceOneVsRest":
        y = np.asarray(y, dtype=np.int64)
        self.n_classes = int(y.max()) + 1
        classes = [1] if self.n_classes <= 2 else range(self.n_classes)
        self.models = [
            ReferenceBoosting(growth=self.growth, **self.params).fit(X, y == cls)
            for cls in classes
        ]
        return self

    def predict_proba(self, X) -> np.ndarray:
        if self.n_classes <= 2:
            return self.models[0].predict_proba(X)
        scores = np.column_stack([m.predict_proba(X)[:, 1] for m in self.models])
        total = scores.sum(axis=1, keepdims=True)
        total[total == 0.0] = 1.0
        return scores / total
