"""Parity of the flat-bincount split kernel with the per-feature loop it replaced.

The loop below is the deleted ``_HistTreeBuilder._find_best_split``, kept
here as a test-only reference.  The kernel must agree with it bit for bit:
same ``(best_feature, best_bin, best_gain)`` on every node, hence the same
``decision_function`` and ``feature_importances_`` after a full fit.
"""

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
        for growth in ("leaf_wise", "depth_wise"):
            model = GradientBoostingBinaryClassifier(n_estimators=5, growth=growth)
            assert model.fit(X, y).feature_importances_[2] == 0.0


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
        assert np.array_equal(
            kernel.feature_importances_, reference.feature_importances_
        )
        assert np.array_equal(kernel.predict_proba(X), reference.predict_proba(X))
