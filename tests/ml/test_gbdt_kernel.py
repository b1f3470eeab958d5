"""Parity of the flat-bincount split kernel with the per-feature loop it replaced.

The loop below is the deleted ``_HistTreeBuilder._find_best_split``, kept
here as a test-only reference.  The kernel must agree with it bit for bit:
same ``(best_feature, best_bin, best_gain)`` on every node, hence the same
``decision_function`` after a full fit.
"""

import heapq

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.ml import (
    GradientBoostingBinaryClassifier,
    LightGBMClassifier,
    XGBoostClassifier,
    gbdt,
)
from repro.ml.gbdt import _BinnedMatrix, _HistNode, _HistTreeBuilder

COLUMN_KINDS = ("normal", "constant", "few_valued", "rounded", "duplicate_heavy")


class _ReferenceBuilder(_HistTreeBuilder):
    """Split finding as it was before the kernel: one Python pass per feature."""

    def _find_best_split(self, node: _HistNode) -> None:
        rows = node.rows
        g_total = float(self.grad[rows].sum())
        h_total = float(self.hess[rows].sum())
        parent_score = self._score(g_total, h_total)
        best_gain, best_feature, best_bin = 0.0, -1, -1
        for j in range(self.data.codes.shape[1]):
            bins = self.data.codes[rows, j]
            n_bins = self.data.mapper.n_bins(j)
            if n_bins < 2:
                continue
            g_hist = np.bincount(bins, weights=self.grad[rows], minlength=n_bins)
            h_hist = np.bincount(bins, weights=self.hess[rows], minlength=n_bins)
            c_hist = np.bincount(bins, minlength=n_bins)
            g_left = np.cumsum(g_hist)[:-1]
            h_left = np.cumsum(h_hist)[:-1]
            c_left = np.cumsum(c_hist)[:-1]
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
            gains = (
                self._score(g_left, h_left)
                + self._score(g_right, h_right)
                - parent_score
            )
            gains = np.where(valid, gains, -np.inf)
            local_best = int(np.argmax(gains))
            if gains[local_best] > best_gain:
                best_gain = float(gains[local_best])
                best_feature = j
                best_bin = local_best
        node.best_gain = best_gain
        node.best_feature = best_feature
        node.best_bin = best_bin


def make_matrix(kinds, n_rows, seed):
    rng = np.random.default_rng(seed)
    columns = []
    for kind in kinds:
        col = rng.normal(0, 1, n_rows)
        if kind == "constant":
            col = np.full(n_rows, 3.0)
        elif kind == "few_valued":
            col = rng.integers(0, 3, n_rows).astype(np.float64)
        elif kind == "rounded":
            col = np.round(col, 1)
        elif kind == "duplicate_heavy":
            col = np.where(rng.random(n_rows) < 0.8, 0.0, col)
        columns.append(col)
    return np.column_stack(columns), rng


def split_triple(builder_cls, data, grad, hess, rows, min_samples_leaf):
    node = _HistNode(rows=rows, depth=0)
    builder_cls(data, grad, hess, 1.0, 1e-3, min_samples_leaf)._find_best_split(node)
    return node.best_feature, node.best_bin, node.best_gain


matrices = st.tuples(
    st.lists(st.sampled_from(COLUMN_KINDS), min_size=1, max_size=10),
    st.integers(min_value=14, max_value=160),
    st.integers(min_value=0, max_value=2**16),
)


class TestSplitTriples:
    @settings(max_examples=60, deadline=None)
    @given(
        matrix=matrices,
        max_bins=st.integers(min_value=2, max_value=48),
        min_samples_leaf=st.integers(min_value=1, max_value=7),
    )
    def test_kernel_equals_reference_on_every_node(
        self, matrix, max_bins, min_samples_leaf
    ):
        kinds, n_rows, seed = matrix
        X, rng = make_matrix(kinds, n_rows, seed)
        data = _BinnedMatrix.build(X, n_rows, max_bins)
        p = rng.uniform(0.02, 0.98, n_rows)
        grad = p - rng.integers(0, 2, n_rows)
        hess = p * (1.0 - p)
        # The root, random sub-nodes, and tiny nodes below 2 * min_samples_leaf.
        sizes = [n_rows, n_rows // 2, n_rows // 5, 2 * min_samples_leaf - 1, 1]
        for size in sizes:
            rows = np.sort(rng.choice(n_rows, size=max(size, 1), replace=False))
            args = (data, grad, hess, rows, min_samples_leaf)
            assert split_triple(_HistTreeBuilder, *args) == split_triple(
                _ReferenceBuilder, *args
            )

    def test_all_constant_matrix_has_no_split(self):
        X = np.full((40, 3), 7.0)
        data = _BinnedMatrix.build(X, 40, 16)
        grad = np.linspace(-1, 1, 40)
        hess = np.full(40, 0.25)
        args = (data, grad, hess, np.arange(40), 1)
        assert split_triple(_HistTreeBuilder, *args) == (-1, -1, 0.0)
        assert split_triple(_ReferenceBuilder, *args) == (-1, -1, 0.0)

    def test_tied_features_resolve_to_lowest_index(self):
        rng = np.random.default_rng(5)
        signal = rng.normal(0, 1, 200)
        X = np.column_stack([rng.normal(0, 1, 200), signal, signal])
        y = (signal > 0).astype(np.float64)
        data = _BinnedMatrix.build(X, 200, 32)
        args = (data, 0.5 - y, np.full(200, 0.25), np.arange(200), 5)
        kernel = split_triple(_HistTreeBuilder, *args)
        assert kernel[0] == 1
        assert kernel == split_triple(_ReferenceBuilder, *args)
        # Column 2 never wins a split: the model fits as if it were absent.
        for growth in ("leaf_wise", "depth_wise"):
            model = GradientBoostingBinaryClassifier(n_estimators=5, growth=growth)
            without = GradientBoostingBinaryClassifier(n_estimators=5, growth=growth)
            assert np.array_equal(
                model.fit(X, y).decision_function(X),
                without.fit(X[:, :2], y).decision_function(X[:, :2]),
            )


class TestFullFits:
    @settings(max_examples=15, deadline=None)
    @given(
        matrix=matrices,
        n_classes=st.integers(min_value=2, max_value=4),
        min_samples_leaf=st.integers(min_value=1, max_value=7),
    )
    @pytest.mark.parametrize("model_cls", [LightGBMClassifier, XGBoostClassifier])
    def test_fits_are_bit_identical(
        self, model_cls, matrix, n_classes, min_samples_leaf
    ):
        kinds, n_rows, seed = matrix
        X, rng = make_matrix(kinds, n_rows, seed)
        y = rng.integers(0, n_classes, n_rows)
        y[:n_classes] = np.arange(n_classes)

        def fit():
            model = model_cls(n_estimators=6, min_samples_leaf=min_samples_leaf)
            return model.fit(X, y)

        kernel = fit()
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(gbdt, "_HistTreeBuilder", _ReferenceBuilder)
            reference = fit()
        assert len(kernel._models) == len(reference._models)
        for ours, theirs in zip(kernel._models, reference._models):
            assert np.array_equal(
                ours.decision_function(X), theirs.decision_function(X)
            )
        assert np.array_equal(kernel.predict_proba(X), reference.predict_proba(X))


def _reference_grow_leaf_wise(builder, rows, max_leaves):
    """Leaf-wise growth as it was: every new child gets its best split."""
    root = _HistNode(rows=rows, depth=0)
    root.value = builder._leaf_value(rows)
    builder._find_best_split(root)
    counter, heap, n_leaves = 0, [], 1
    if root.best_feature >= 0:
        heap.append((-root.best_gain, counter, root))
    while heap and n_leaves < max_leaves:
        neg_gain, _, node = heapq.heappop(heap)
        if -neg_gain <= 0.0:
            break
        left, right = builder.split(node)
        n_leaves += 1
        for child in (left, right):
            builder._find_best_split(child)
            if child.best_feature >= 0:
                counter += 1
                heapq.heappush(heap, (-child.best_gain, counter, child))
    return gbdt._HistTree(root)


class _ReferenceBoosting(GradientBoostingBinaryClassifier):
    """Boosting as it was: the training update re-predicts every row."""

    def _fit_binned(self, data, y):
        positive_rate = float(np.clip(y.mean(), 1e-6, 1 - 1e-6))
        self._base_score = float(np.log(positive_rate / (1 - positive_rate)))
        self._mapper = data.mapper
        raw = np.full(len(y), self._base_score, dtype=np.float64)
        self._trees = []
        rows = np.arange(len(y))
        for _ in range(self.n_estimators):
            p = gbdt._sigmoid(raw)
            builder = _HistTreeBuilder(
                data,
                p - y,
                p * (1.0 - p),
                self.reg_lambda,
                self.min_child_weight,
                self.min_samples_leaf,
            )
            if self.growth == "leaf_wise":
                tree = _reference_grow_leaf_wise(builder, rows, self.max_leaves)
            else:
                tree = gbdt._grow_depth_wise(builder, rows, self.max_depth)
            self._trees.append(tree)
            raw += self.learning_rate * tree.predict_binned(data.codes)
        self.training_raw = raw
        return self


class TestBoostingTrims:
    """The leaf-row training update and the skipped last-split search are exact."""

    @pytest.mark.parametrize("growth", ["leaf_wise", "depth_wise"])
    @pytest.mark.parametrize("max_leaves", [2, 4, 9])
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_fit_equals_reference_loop(self, growth, max_leaves, seed):
        X, rng = make_matrix(COLUMN_KINDS * 2, 300, seed)
        y = (X[:, 0] + rng.normal(0, 1, 300) > 0).astype(np.float64)
        params = dict(
            n_estimators=8, max_leaves=max_leaves, max_depth=3, growth=growth
        )
        ours = GradientBoostingBinaryClassifier(**params).fit(X, y)
        reference = _ReferenceBoosting(**params).fit(X, y)
        if growth == "leaf_wise":
            assert max(len(list(tree.leaves())) for tree in ours._trees) == max_leaves
        X_new, _ = make_matrix(COLUMN_KINDS * 2, 50, seed + 100)
        for rows in (X, X_new):
            assert np.array_equal(
                ours.decision_function(rows), reference.decision_function(rows)
            )
        assert np.array_equal(ours.decision_function(X), reference.training_raw)
