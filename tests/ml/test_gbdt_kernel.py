"""Parity of the two-children split kernel with the plain GBDT in ``tests/oracle``.

``repro.ml.gbdt`` scores both children of a split in one bin-major kernel
pass; ``tests.oracle.gbdt`` grows the same trees one node and one feature
at a time.  They must agree bit for bit: the same ``(best_feature,
best_bin, best_gain)`` and value on every node, hence the same
``decision_function`` after a full fit.  A work count pins how often the
kernel runs.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.ml import GradientBoostingBinaryClassifier, LightGBMClassifier, XGBoostClassifier
from repro.ml.gbdt import _BinMapper, _BinnedMatrix, _HistTreeBuilder
from tests.oracle.gbdt import ReferenceBoosting, ReferenceBuilder, ReferenceOneVsRest

COLUMN_KINDS = ("normal", "constant", "few_valued", "rounded", "duplicate_heavy")


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


def builders(X, max_bins, grad, hess, min_samples_leaf):
    """The kernel's builder and the reference's, on the same statistics."""
    data = _BinnedMatrix.build(X, len(X), max_bins)
    mapper = _BinMapper(max_bins).fit(X)
    n_bins = [mapper.n_bins(j) for j in range(X.shape[1])]
    args = (grad, hess, 1.0, 1e-3, min_samples_leaf)
    return (
        _HistTreeBuilder(data, *args),
        ReferenceBuilder(mapper.transform(X), n_bins, *args),
    )


def triple(node):
    return node.best_feature, node.best_bin, node.best_gain


def kernel_root(builder, rows):
    """The kernel's root call: ``rows`` on the left, the right half empty."""
    root, empty = builder.children(rows, len(rows), 0, search=True)
    assert len(empty.rows) == 0
    return root


def assert_node_matches(node, reference):
    expected = reference.node(node.rows, node.depth)
    assert node.value == expected.value
    assert triple(node) == reference.best_split(node.rows)


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
        p = rng.uniform(0.02, 0.98, n_rows)
        grad = p - rng.integers(0, 2, n_rows)
        hess = p * (1.0 - p)
        kernel, reference = builders(X, max_bins, grad, hess, min_samples_leaf)
        # The root, random sub-nodes, and tiny nodes below 2 * min_samples_leaf.
        sizes = [n_rows, n_rows // 2, n_rows // 5, 2 * min_samples_leaf - 1, 1]
        for size in sizes:
            rows = np.sort(rng.choice(n_rows, size=max(size, 1), replace=False))
            node = kernel_root(kernel, rows)
            assert_node_matches(node, reference)
            if node.best_feature < 0:
                continue
            # Both children of the split come out of one kernel pass.
            left, right = kernel.split(node, search=True)
            codes = reference.codes[rows, node.feature]
            assert np.array_equal(left.rows, rows[codes <= node.bin_threshold])
            assert np.array_equal(right.rows, rows[codes > node.bin_threshold])
            for child in (left, right):
                assert_node_matches(child, reference)

    def test_all_constant_matrix_has_no_split(self):
        X = np.full((40, 3), 7.0)
        kernel, reference = builders(X, 16, np.linspace(-1, 1, 40), np.full(40, 0.25), 1)
        assert triple(kernel_root(kernel, np.arange(40))) == (-1, -1, 0.0)
        assert reference.best_split(np.arange(40)) == (-1, -1, 0.0)

    def test_tied_features_resolve_to_lowest_index(self):
        rng = np.random.default_rng(5)
        signal = rng.normal(0, 1, 200)
        X = np.column_stack([rng.normal(0, 1, 200), signal, signal])
        y = (signal > 0).astype(np.float64)
        kernel, reference = builders(X, 32, 0.5 - y, np.full(200, 0.25), 5)
        root = kernel_root(kernel, np.arange(200))
        assert root.best_feature == 1
        assert triple(root) == reference.best_split(np.arange(200))
        # Column 2 never wins a split: the model fits as if it were absent.
        for growth in ("leaf_wise", "depth_wise"):
            model = GradientBoostingBinaryClassifier(n_estimators=5, growth=growth)
            without = GradientBoostingBinaryClassifier(n_estimators=5, growth=growth)
            assert np.array_equal(
                model.fit(X, y).decision_function(X),
                without.fit(X[:, :2], y).decision_function(X[:, :2]),
            )

    def test_child_below_twice_min_samples_leaf_has_no_split(self):
        # Feature 0 cuts off 7 rows: the small child cannot hold two leaves of 5.
        rng = np.random.default_rng(3)
        X = np.column_stack([np.r_[np.zeros(7), np.ones(93)], rng.normal(0, 1, 100)])
        grad = np.r_[np.full(7, -5.0), np.where(X[7:, 1] > 0, 0.5, -0.5)]
        kernel, reference = builders(X, 16, grad, np.full(100, 0.25), 5)
        root = kernel_root(kernel, np.arange(100))
        left, right = kernel.split(root, search=True)
        assert len(left.rows) == 7 and triple(left) == (-1, -1, 0.0)
        assert right.best_feature == 1
        for node in (root, left, right):
            assert_node_matches(node, reference)


MODELS = {"leaf_wise": LightGBMClassifier, "depth_wise": XGBoostClassifier}


def assert_fits_equal(ours, reference, X):
    assert len(ours._models) == len(reference.models)
    for model, theirs in zip(ours._models, reference.models):
        assert np.array_equal(model.decision_function(X), theirs.decision_function(X))
    assert np.array_equal(ours.predict_proba(X), reference.predict_proba(X))


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
        params = dict(n_estimators=6, min_samples_leaf=min_samples_leaf)
        ours = model_cls(**params).fit(X, y)
        reference = ReferenceOneVsRest(model_cls.growth, **params).fit(X, y)
        assert_fits_equal(ours, reference, X)


#: The corners the kernel was swept on: (model parameters, rows, classes).
EDGES = {
    "min_samples_leaf_0": (dict(min_samples_leaf=0), 60, 2),
    "max_depth_0": (dict(max_depth=0), 60, 2),
    "max_bins_2": (dict(max_bins=2), 60, 3),
    "one_row": ({}, 1, 1),
    "one_class": ({}, 60, 1),
    "max_leaves_2": (dict(max_leaves=2), 60, 2),
}


@pytest.mark.parametrize("growth", MODELS)
@pytest.mark.parametrize("edge", EDGES)
def test_edge_fits_are_bit_identical(edge, growth):
    params, n_rows, n_classes = EDGES[edge]
    X, rng = make_matrix(COLUMN_KINDS, n_rows, 7)
    y = rng.integers(0, n_classes, n_rows)
    params = dict(n_estimators=6, **params)
    ours = MODELS[growth](**params).fit(X, y)
    assert_fits_equal(ours, ReferenceOneVsRest(growth, **params).fit(X, y), X)


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
        reference = ReferenceBoosting(**params).fit(X, y)
        if growth == "leaf_wise":
            assert max(len(list(tree.leaves())) for tree in ours._trees) == max_leaves
        X_new, _ = make_matrix(COLUMN_KINDS * 2, 50, seed + 100)
        for rows in (X, X_new):
            assert np.array_equal(
                ours.decision_function(rows), reference.decision_function(rows)
            )
        assert np.array_equal(ours.decision_function(X), reference.training_raw)


def internal_nodes(tree):
    stack, found = [tree._root], []
    while stack:
        node = stack.pop()
        if not node.is_leaf:
            found.append(node)
            stack.extend((node.left, node.right))
    return found


class TestWorkCount:
    """One kernel call per split whose children may split, plus the root's."""

    @pytest.fixture
    def kernel_calls(self, monkeypatch):
        calls = []
        kernel = _HistTreeBuilder._find_best_splits

        def counted(self, nodes, *args):
            calls.append(len(nodes[0].rows) + len(nodes[1].rows))
            return kernel(self, nodes, *args)

        monkeypatch.setattr(_HistTreeBuilder, "_find_best_splits", counted)
        return calls

    @staticmethod
    def data():
        X, rng = make_matrix(("normal",) * 6, 600, 11)
        return X, (X[:, 0] + X[:, 1] * X[:, 2] + rng.normal(0, 1, 600) > 0)

    @pytest.mark.parametrize("max_leaves", [1, 2, 3, 8, 31])
    def test_leaf_wise_calls_once_per_split_but_the_last(self, kernel_calls, max_leaves):
        X, y = self.data()
        model = GradientBoostingBinaryClassifier(n_estimators=4, max_leaves=max_leaves)
        model.fit(X, y)
        assert all(len(list(tree.leaves())) == max_leaves for tree in model._trees)
        assert len(kernel_calls) == 4 * (max_leaves - 1)

    @pytest.mark.parametrize("max_depth", [0, 1, 2, 5])
    def test_depth_wise_calls_once_per_split_below_max_depth(
        self, kernel_calls, max_depth
    ):
        X, y = self.data()
        model = GradientBoostingBinaryClassifier(
            n_estimators=4, growth="depth_wise", max_depth=max_depth
        ).fit(X, y)
        splits = [node for tree in model._trees for node in internal_nodes(tree)]
        expected = 4 * (max_depth > 0) + sum(n.depth + 1 < max_depth for n in splits)
        assert len(kernel_calls) == expected
        # Every call scores the whole parent: the root's rows, or both children's.
        assert sum(kernel_calls) == 4 * 600 * (max_depth > 0) + sum(
            len(n.rows) for n in splits if n.depth + 1 < max_depth
        )
        if max_depth >= 3:
            assert expected > 4 + 4  # the trees split below the root's children
