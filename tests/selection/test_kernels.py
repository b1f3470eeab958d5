"""Bit-identity tests: vectorised selection kernels vs the scalar estimators.

The kernels' contract is *exact* float equality with the scalar
``relevance_scores`` / ``redundancy_scores`` of ``tests/oracle/selection.py``
(not approximate agreement),
so rankings cannot depend on which of them scored a column.  Every
comparison below therefore uses ``==``, never ``pytest.approx``.  The one
relaxation is the redundancy kernel's early rejection: a score that is not
positive comes back as the bound that proved it, some value ≤ 0
(:func:`_assert_same_decisions`).
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from repro.core import AutoFeatConfig
from repro.core.streaming import StageOutcome, StreamingFeatureSelector
from repro.errors import SelectionError
from repro.selection import kernels
from repro.selection import (
    REDUNDANCY_METHODS,
    SelectionCodeCache,
    SelectionStats,
    batch_redundancy_scores,
    batch_relevance_scores,
    batch_spearman_scores,
    discretize,
    greedy_select,
    relief_scores,
)
from repro.selection.relevance import _SCORERS
from tests.oracle import selection as oracle
from tests.oracle.selection import (
    naive_greedy,
    rank_matrix,
    rankdata,
    redundancy_scores,
    relevance_scores,
)

METHODS = sorted(REDUNDANCY_METHODS)


@st.composite
def feature_matrices(draw, max_rows=25, max_cols=4, allow_nan=True):
    """(X, y) pairs mixing continuous values, heavy ties and optional NaNs."""
    n = draw(st.integers(min_value=2, max_value=max_rows))
    d = draw(st.integers(min_value=1, max_value=max_cols))
    finite = st.floats(
        min_value=-9, max_value=9, allow_nan=False, allow_infinity=False
    )
    X = draw(arrays(np.float64, (n, d), elements=finite))
    if draw(st.booleans()):  # rounding forces ties / small discrete domains
        X = np.round(X)
    y = draw(arrays(np.float64, n, elements=finite))
    if draw(st.booleans()):
        y = np.round(y)
    if allow_nan and draw(st.booleans()):
        X = X.copy()
        X[draw(arrays(np.bool_, (n, d)))] = np.nan
    if allow_nan and draw(st.booleans()):
        y = y.copy()
        y[draw(arrays(np.bool_, n))] = np.nan
    return X, y


class TestRankMatrix:
    @given(feature_matrices(allow_nan=False))
    @settings(max_examples=80, deadline=None)
    def test_matches_per_column_rankdata(self, data):
        X, __ = data
        ranks = rank_matrix(X)
        for j in range(X.shape[1]):
            assert ranks[:, j].tolist() == rankdata(X[:, j]).tolist()

    def test_empty_matrix(self):
        assert rank_matrix(np.empty((0, 3))).shape == (0, 3)
        assert rank_matrix(np.empty((4, 0))).shape == (4, 0)

    def test_rejects_1d(self):
        with pytest.raises(SelectionError):
            rank_matrix(np.arange(5.0))

    def test_fortran_ordered(self):
        out = rank_matrix(np.random.default_rng(0).normal(size=(8, 3)))
        assert out.flags.f_contiguous


class TestBatchSpearman:
    @given(feature_matrices())
    @settings(max_examples=100, deadline=None)
    def test_bit_identical_to_scalar(self, data):
        X, y = data
        kernel = batch_spearman_scores(X, y)
        scalar = relevance_scores(X, y, metric="spearman")
        assert kernel.tolist() == scalar.tolist()

    def test_constant_column_scores_zero(self):
        X = np.column_stack([np.full(20, 3.0), np.arange(20.0)])
        y = np.arange(20.0)
        kernel = batch_spearman_scores(X, y)
        assert kernel[0] == 0.0
        assert kernel.tolist() == relevance_scores(X, y, metric="spearman").tolist()

    def test_nan_label_handled_by_masked_groups(self):
        rng = np.random.default_rng(1)
        X = rng.normal(size=(30, 3))
        y = rng.normal(size=30)
        y[5] = np.nan
        # All three columns share the label's mask: one masked group,
        # identical scores.
        kernel = batch_spearman_scores(X, y)
        assert kernel.tolist() == relevance_scores(X, y, metric="spearman").tolist()

    def test_distinct_nan_masks_stay_exact(self):
        rng = np.random.default_rng(2)
        X = rng.normal(size=(30, 4))
        X[3, 1] = np.nan
        X[7, 2] = np.nan
        X[7, 3] = np.nan
        y = np.arange(30.0)
        kernel = batch_spearman_scores(X, y)
        assert kernel.tolist() == relevance_scores(X, y, metric="spearman").tolist()

    def test_single_row_matrix_scores_zero(self):
        X = np.asarray([[1.0, 2.0]])
        assert batch_spearman_scores(X, np.asarray([1.0])).tolist() == [0.0, 0.0]


class TestBatchRelevance:
    @pytest.mark.parametrize(
        "metric", ["information_gain", "symmetrical_uncertainty", "pearson", "relief"]
    )
    def test_other_metrics_delegate_to_scalar(self, metric):
        rng = np.random.default_rng(3)
        X = rng.normal(size=(40, 3))
        y = (X[:, 0] > 0).astype(float)
        kernel = batch_relevance_scores(X, y, metric=metric, seed=7)
        if metric == "relief":
            scalar = relief_scores(X, y, seed=7).tolist()
        else:
            scalar = [_SCORERS[metric](X[:, j], y) for j in range(X.shape[1])]
        assert kernel.tolist() == scalar

    def test_unknown_metric_rejected(self):
        with pytest.raises(SelectionError):
            batch_relevance_scores(np.zeros((4, 1)), np.zeros(4), metric="nope")

    def test_requires_matrix(self):
        with pytest.raises(SelectionError):
            batch_relevance_scores(np.zeros(4), np.zeros(4))

    def test_counts_features_ranked(self):
        counters = SelectionStats()
        batch_relevance_scores(
            np.zeros((5, 3)), np.arange(5.0), counters=counters
        )
        assert counters.features_ranked == 3


@st.composite
def holed_problems(draw):
    """(candidates, selected, label) with an independent null mask on each.

    Every candidate and every selected column draws its own mask, so pairs
    where *both* sides miss (different) rows are the common case; the label
    gets one in half the examples.  Rounded columns stay dense-coded,
    unrounded ones with more than 32 distinct values are equal-width binned.
    """
    n = draw(st.integers(min_value=0, max_value=48))
    finite = st.floats(min_value=-9, max_value=9, allow_nan=False, allow_infinity=False)

    def holed(width, round_it):
        M = draw(arrays(np.float64, (n, width), elements=finite))
        M = np.round(M) if round_it else M.copy()
        M[draw(arrays(np.bool_, (n, width)))] = np.nan
        return M

    X = holed(draw(st.integers(1, 4)), draw(st.booleans()))
    selected = holed(draw(st.integers(0, 5)), draw(st.booleans()))
    y = holed(1, True)[:, 0] if draw(st.booleans()) else np.round(
        draw(arrays(np.float64, n, elements=finite))
    )
    return X, selected, y


def _cache_for(
    selected: np.ndarray | None,
    label: np.ndarray,
    counters: SelectionStats | None = None,
) -> SelectionCodeCache:
    cache = SelectionCodeCache(label, counters)
    if selected is not None and selected.size:
        for i in range(selected.shape[1]):
            cache.add(selected[:, i])
    return cache


def _assert_same_decisions(kernel, scalar, method=""):
    """The redundancy kernel's contract against ``redundancy_scores``: the
    same candidates score positive, every positive score is bit-identical,
    and a non-positive one is an upper bound of the exact score."""
    kernel, scalar = kernel.tolist(), scalar.tolist()
    assert [k > 0.0 for k in kernel] == [s > 0.0 for s in scalar], method
    assert [k for k in kernel if k > 0.0] == [s for s in scalar if s > 0.0], method
    assert all(s <= k <= 0.0 for k, s in zip(kernel, scalar) if k <= 0.0), method


def _assert_identical_for_every_method(X, selected, y):
    for method in METHODS:
        counters = SelectionStats()
        kernel = batch_redundancy_scores(
            X, _cache_for(selected, y, counters), method=method, counters=counters
        )
        scalar = redundancy_scores(X, selected, y, method=method)
        _assert_same_decisions(kernel, scalar, method)
        assert counters.scalar_fallbacks == 0


class TestBatchRedundancy:
    @given(feature_matrices(), st.sampled_from(METHODS), st.integers(0, 3))
    @settings(max_examples=100, deadline=None)
    def test_bit_identical_to_scalar(self, data, method, n_selected):
        X, y = data
        rng = np.random.default_rng(n_selected)
        selected = (
            np.round(rng.normal(size=(X.shape[0], n_selected)) * 3)
            if n_selected
            else None
        )
        kernel = batch_redundancy_scores(X, _cache_for(selected, y), method=method)
        scalar = redundancy_scores(X, selected, y, method=method)
        _assert_same_decisions(kernel, scalar)

    @pytest.mark.parametrize("method", METHODS)
    def test_nan_everywhere_still_identical(self, method):
        rng = np.random.default_rng(11)
        X = rng.normal(size=(40, 3))
        X[::7, 0] = np.nan
        selected = rng.normal(size=(40, 2))
        selected[::5, 1] = np.nan
        y = rng.normal(size=40)
        y[::9] = np.nan
        kernel = batch_redundancy_scores(X, _cache_for(selected, y), method=method)
        scalar = redundancy_scores(X, selected, y, method=method)
        _assert_same_decisions(kernel, scalar)

    @pytest.mark.parametrize("method", METHODS)
    def test_empty_selected_set_reduces_to_relevance(self, method):
        rng = np.random.default_rng(13)
        X = rng.normal(size=(30, 4))
        y = (X[:, 0] > 0).astype(float)
        kernel = batch_redundancy_scores(X, _cache_for(None, y), method=method)
        scalar = redundancy_scores(X, None, y, method=method)
        _assert_same_decisions(kernel, scalar)

    @given(holed_problems(), st.sampled_from(METHODS))
    @settings(max_examples=200, deadline=None)
    def test_independent_null_masks_bit_identical(self, problem, method):
        X, selected, y = problem
        counters = SelectionStats()
        kernel = batch_redundancy_scores(
            X, _cache_for(selected, y, counters), method=method, counters=counters
        )
        scalar = redundancy_scores(X, selected, y, method=method)
        _assert_same_decisions(kernel, scalar)
        assert counters.scalar_fallbacks == 0

    def test_zero_pairwise_complete_rows(self):
        rng = np.random.default_rng(41)
        X = np.round(rng.normal(size=(20, 2)) * 2)
        selected = np.round(rng.normal(size=(20, 2)) * 2)
        X[:10, 0] = np.nan  # candidate 0 lives on the bottom half,
        selected[10:, 1] = np.nan  # selected 1 on the top half only
        _assert_identical_for_every_method(X, selected, rng.integers(0, 2, 20).astype(float))

    def test_all_null_candidate(self):
        rng = np.random.default_rng(43)
        X = np.round(rng.normal(size=(20, 2)) * 2)
        X[:, 1] = np.nan
        selected = np.round(rng.normal(size=(20, 3)) * 2)
        selected[::4, 2] = np.nan
        _assert_identical_for_every_method(X, selected, rng.integers(0, 2, 20).astype(float))

    def test_exactly_one_overlapping_row(self):
        rng = np.random.default_rng(47)
        X = np.round(rng.normal(size=(20, 1)) * 2)
        selected = np.round(rng.normal(size=(20, 2)) * 2)
        X[11:, 0] = np.nan
        selected[:10, 0] = np.nan  # shares row 10 alone with the candidate
        _assert_identical_for_every_method(X, selected, rng.integers(0, 3, 20).astype(float))

    @pytest.mark.parametrize("method", METHODS)
    def test_no_rows(self, method):
        X, y = np.empty((0, 2)), np.empty(0)
        cache = SelectionCodeCache(y)
        cache.add(np.empty(0))
        kernel = batch_redundancy_scores(X, cache, method=method)
        scalar = redundancy_scores(X, np.empty((0, 1)), y, method=method)
        _assert_same_decisions(kernel, scalar)
        assert scalar.tolist() == [0.0, 0.0]

    def test_binned_and_dense_coded_columns_mixed(self):
        rng = np.random.default_rng(53)
        n = 200
        X = np.column_stack(
            [rng.normal(size=n), rng.integers(0, 5, n), rng.normal(size=n)]
        ).astype(float)  # > 32 distinct (binned), 5 distinct (dense), binned
        selected = np.column_stack(
            [rng.integers(0, 3, n), rng.normal(size=n), rng.integers(0, 40, n)]
        ).astype(float)
        X[rng.random(n) < 0.2, 0] = np.nan
        X[rng.random(n) < 0.2, 1] = np.nan
        selected[rng.random(n) < 0.3, 1] = np.nan
        selected[rng.random(n) < 0.3, 2] = np.nan
        assert len(np.unique(discretize(X[:, 0]))) <= 11 < len(np.unique(X[:, 0]))
        _assert_identical_for_every_method(X, selected, rng.integers(0, 4, n).astype(float))

    @pytest.mark.parametrize("budget", [1, 1000, 2500])
    def test_cube_budget_blocks_do_not_change_bits(self, budget, monkeypatch):
        # 7 selected columns under one mask, 90-720 cube elements per
        # column: a budget of 1 counts one column per cube, the other two
        # cut the group into blocks of 4 / 3 columns (and fewer for the
        # wider label-conditioned cubes).
        rng = np.random.default_rng(59)
        n = 60
        X = np.round(rng.normal(size=(n, 3)) * 2)
        selected = np.round(rng.normal(size=(n, 7)) * 2)
        selected[::5] = np.nan
        X[::7, 1] = np.nan
        y = rng.integers(0, 3, n).astype(float)
        y[3] = np.nan
        monkeypatch.setattr(kernels, "_CUBE_BUDGET", budget)
        _assert_identical_for_every_method(X, selected, y)

    @pytest.mark.parametrize("method", METHODS)
    def test_growing_penalty_stops_counting_rejected_candidates(
        self, method, monkeypatch
    ):
        # Three 4-valued candidates, all recodings of one column, against
        # R_sel = 16 copies of that column (two runs) + 8 noise features.
        # The label is valid only where the column is 0 or 1, so relevance
        # (≈ log 2) is far below what one run of copies costs under MIFS
        # and CMIM, and what two runs cost under MRMR (16/24 · log 4).
        rng = np.random.default_rng(61)
        n = 120
        x = rng.integers(0, 4, n).astype(float)
        X = np.column_stack([x, (x + 1) % 4, 3 - x])
        noise = rng.normal(size=(n, 8))
        noise[rng.random((n, 8)) < 0.2] = np.nan
        selected = np.column_stack([np.repeat(x[:, None], 16, axis=1), noise])
        y = np.where(x < 2, x, np.nan)
        pairs = []
        real = kernels._pair_information

        def counting(left, right, given=None):
            if given is None:
                pairs.append(left.shape[0] * right.shape[0])
            return real(left, right, given)

        monkeypatch.setattr(kernels, "_pair_information", counting)
        kernel = batch_redundancy_scores(X, _cache_for(selected, y), method=method)
        monkeypatch.setattr(kernels, "_pair_information", real)
        _assert_same_decisions(kernel, redundancy_scores(X, selected, y, method))
        # Each candidate's relevance is one (candidate × label) pair; the
        # rest are (selected × candidate) pairs.
        counted = sum(pairs) - X.shape[1]
        if method in ("cife", "jmi"):
            assert counted == selected.shape[1] * X.shape[1]
        else:
            assert (kernel <= 0.0).all()
            assert counted < selected.shape[1] * X.shape[1]
            assert counted == (16 if method == "mrmr" else 8) * X.shape[1]

    def test_cache_runs_follow_insertion_order(self):
        rng = np.random.default_rng(67)
        holed = rng.normal(size=20)
        holed[::3] = np.nan
        columns = [rng.normal(size=20) for _ in range(kernels._RUN_ROWS + 5)]
        columns[3] = holed  # splits the first run; the rest overflow one
        cache = _cache_for(np.column_stack(columns), np.arange(20.0))
        runs = [codes for __, codes in cache.runs]
        assert [len(r) for r in runs] == [3, 1, kernels._RUN_ROWS, 1]
        stacked = np.concatenate(runs)
        expected = np.stack([discretize(c) for c in columns])
        assert stacked.tolist() == expected.tolist()
        for mask, codes in cache.runs:
            assert ((codes >= 0) == mask).all()

    def test_unknown_method_rejected(self):
        with pytest.raises(SelectionError):
            batch_redundancy_scores(
                np.zeros((4, 1)), _cache_for(None, np.zeros(4)), method="nope"
            )

    def test_row_mismatch_rejected(self):
        with pytest.raises(SelectionError):
            batch_redundancy_scores(
                np.zeros((4, 1)), _cache_for(None, np.zeros(5)), method="mrmr"
            )

    def test_reuse_counted_per_cached_code(self):
        rng = np.random.default_rng(17)
        selected = rng.normal(size=(20, 3))
        y = np.arange(20.0)
        counters = SelectionStats()
        batch_redundancy_scores(
            rng.normal(size=(20, 2)),
            _cache_for(selected, y),
            method="mrmr",
            counters=counters,
        )
        assert counters.codes_reused == 3


def _picks_while_positive(picks):
    """The columns of ``naive_greedy``'s picks up to its first step whose
    best J is ≤ 0 — the kernel greedy's stop rule."""
    kept = []
    for j, score in picks:
        if not score > 0.0:
            break
        kept.append(j)
    return kept


@st.composite
def greedy_problems(draw):
    """(X, y, κ) with NaN in features and label and κ from 1 to d."""
    X, y = draw(feature_matrices(max_rows=20, max_cols=5))
    return X, y, draw(st.integers(1, X.shape[1]))


class TestIncrementalGreedy:
    @given(
        feature_matrices(max_rows=20, max_cols=4),
        st.sampled_from(METHODS),
        st.integers(1, 4),
    )
    @settings(max_examples=60, deadline=None)
    def test_matches_naive_rescoring_loop(self, data, method, k):
        # The oracle's incremental greedy against its rescoring loop.
        X, y = data
        naive = [j for j, __ in naive_greedy(X, y, k, method)]
        assert oracle.greedy_select(X, y, k=k, method=method) == naive

    def test_redundant_copies_deferred(self):
        rng = np.random.default_rng(23)
        signal = rng.integers(0, 4, size=60).astype(float)
        X = np.column_stack([signal, signal, rng.normal(size=60)])
        y = signal + rng.normal(scale=0.1, size=60)
        order = greedy_select(X, y, k=3, method="mrmr")
        assert order[0] == 0  # ties broken by column index
        assert order[1] == 2  # the duplicate of column 0 goes last
        assert order == _picks_while_positive(naive_greedy(X, y, 3, "mrmr"))
        # Against its copy alone the duplicate's J is I(s;y) − 1·I(s;s) ≤ 0:
        # without the noise column the greedy stops before picking it.
        assert greedy_select(X[:, :2], y, k=2, method="mrmr") == [0]


class TestKernelGreedy:
    @given(greedy_problems(), st.sampled_from(METHODS))
    @settings(max_examples=150, deadline=None)
    def test_naive_greedy_cut_at_first_nonpositive_step(self, problem, method):
        X, y, k = problem
        expected = _picks_while_positive(naive_greedy(X, y, k, method))
        assert greedy_select(X, y, k=k, method=method) == expected


class TestSelectionStats:
    def test_snapshot_freezes_counters(self):
        """``selector.stats`` is a copy: the selector keeps counting, it does not."""
        rng = np.random.default_rng(0)
        X = rng.normal(size=(30, 3))
        selector = StreamingFeatureSelector(AutoFeatConfig(), (X[:, 0] > 0) * 1.0)
        selector.process_batch(["a", "b", "c"], X)
        stats = selector.stats
        selector.process_batch(["d", "e", "f"], X[:, ::-1])
        assert (stats.batches_scored, stats.features_ranked) == (1, 3)
        assert selector.stats.batches_scored == 2
        assert selector.stats.features_ranked == 6

    def test_merged_sums_fields(self):
        a = SelectionStats(1, 2, 3, 4, 5)
        b = SelectionStats(10, 20, 30, 40, 50)
        merged = a.merged(b)
        assert merged == SelectionStats(11, 22, 33, 44, 55)
        assert merged.as_dict()["code_reuse_rate"] == round(44 / 77, 6)

    def test_code_reuse_rate(self):
        assert SelectionStats().code_reuse_rate == 0.0
        assert SelectionStats(codes_cached=1, codes_reused=3).code_reuse_rate == 0.75

    def test_describe_mentions_every_counter(self):
        text = SelectionStats(5, 37, 12, 3, 0).describe()
        assert text == (
            "5 batches, 37 features ranked, 12 codes cached / 3 reused, "
            "0 scalar fallbacks"
        )

    def test_cache_counts_label_and_features(self):
        counters = SelectionStats()
        cache = SelectionCodeCache(np.arange(10.0), counters)
        cache.add(np.arange(10.0) % 3)
        assert counters.codes_cached == 2
        assert cache.n_selected == 1


class ScalarTwoStageSelector:
    """Reference selector: the two stages over the scalar estimators.

    Top-κ relevance, then redundancy against every column accepted so far
    (re-stacked per batch); no kernels, no code cache.  Stands in for
    :class:`StreamingFeatureSelector` with both stages enabled.
    """

    stats = SelectionStats()

    def __init__(self, config, label):
        assert config.relevance_metric and config.redundancy_method
        self._config = config
        self._label = np.asarray(label, dtype=np.float64)
        self.selected_names = []
        self._columns = []

    def seed_with(self, names, matrix):
        self.selected_names.extend(names)
        self._columns.extend(np.asarray(matrix, dtype=np.float64).T)

    def process_batch(self, names, matrix, codes=None):
        # The reference scores the matrix only: a hop's gathered rank codes
        # are the kernels' input, never the reference's.
        config = self._config
        matrix = np.asarray(matrix, dtype=np.float64)
        relevance = relevance_scores(
            matrix, self._label, metric=config.relevance_metric, seed=config.seed
        )
        order = np.argsort(-relevance, kind="stable")[: config.kappa]
        kept = [int(j) for j in order if relevance[j] > config.min_relevance]
        if not kept:
            return StageOutcome((), (), (), ())
        redundancy = redundancy_scores(
            matrix[:, kept],
            np.column_stack(self._columns) if self._columns else None,
            self._label,
            method=config.redundancy_method,
        )
        accepted = [
            (j, float(score))
            for j, score in zip(kept, redundancy)
            if score > 0.0 and names[j] not in self.selected_names
        ]
        for j, __ in accepted:
            self.selected_names.append(names[j])
            self._columns.append(matrix[:, j])
        return StageOutcome(
            relevant_names=tuple(names[j] for j in kept),
            relevance_scores=tuple(float(relevance[j]) for j in kept),
            accepted_names=tuple(names[j] for j, __ in accepted),
            redundancy_scores=tuple(score for __, score in accepted),
        )


@st.composite
def streaming_problems(draw):
    """(label, batches) whose seed batch alone spans at least three runs.

    17–22 seed features (a run holds at most eight) and three later batches
    of label-driven, redundant (a seed feature plus noise) and pure-noise
    columns; every column takes one of three validity masks, drawn per
    column, so the masks of R_sel interleave.
    """
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    n = 60
    label = rng.integers(0, 3, n).astype(float)
    masks = [np.zeros(n, dtype=bool), rng.random(n) < 0.15, rng.random(n) < 0.3]
    seed = rng.normal(size=(n, draw(st.integers(17, 22))))

    def fresh(kind):
        if kind == 0:
            return label + rng.normal(scale=0.7, size=n)
        if kind == 1:
            return seed[:, rng.integers(seed.shape[1])] + rng.normal(scale=0.05, size=n)
        return rng.normal(size=n)

    def batch(prefix, columns):
        width = len(columns)
        holes = draw(st.lists(st.integers(0, 2), min_size=width, max_size=width))
        matrix = np.column_stack(columns)
        for j, hole in enumerate(holes):
            matrix[masks[hole], j] = np.nan
        return [f"{prefix}{j}" for j in range(width)], matrix

    batches = [batch("s", list(seed.T))]
    for b in range(3):
        kinds = draw(st.lists(st.integers(0, 2), min_size=2, max_size=5))
        batches.append(batch(f"b{b}_", [fresh(kind) for kind in kinds]))
    return label, batches


def _run_selector(selector, batches):
    seed_names, seed_matrix = batches[0]
    selector.seed_with(seed_names, seed_matrix)
    outcomes = [selector.process_batch(n, m) for n, m in batches[1:]]
    return selector, outcomes


class TestStreamingParity:
    def test_kernels_on_off_identical_over_batches(self):
        rng = np.random.default_rng(29)
        n = 120
        label = (rng.normal(size=n) > 0).astype(float)
        batches = [(["seed_a", "seed_b"], rng.normal(size=(n, 2)))]
        for b in range(4):
            cols = rng.normal(size=(n, 3))
            cols[:, 0] += label  # keep some batches partially relevant
            if b == 2:
                cols[::6, 1] = np.nan  # a second validity mask
            batches.append(([f"b{b}_{j}" for j in range(3)], cols))

        config = AutoFeatConfig()
        sel_on, out_on = _run_selector(
            StreamingFeatureSelector(config, label), batches
        )
        sel_off, out_off = _run_selector(
            ScalarTwoStageSelector(config, label), batches
        )

        assert sel_on.selected_names == sel_off.selected_names
        for a, b in zip(out_on, out_off):
            assert a.relevant_names == b.relevant_names
            assert a.relevance_scores == b.relevance_scores
            assert a.accepted_names == b.accepted_names
            assert a.redundancy_scores == b.redundancy_scores

    @given(streaming_problems())
    @settings(max_examples=25, deadline=None)
    def test_identical_over_several_runs_and_interleaved_masks(self, problem):
        label, batches = problem
        config = AutoFeatConfig()
        sel_on, out_on = _run_selector(
            StreamingFeatureSelector(config, label), batches
        )
        sel_off, out_off = _run_selector(
            ScalarTwoStageSelector(config, label), batches
        )
        assert len(list(sel_on._code_cache.runs)) >= 3
        assert sel_on.selected_names == sel_off.selected_names
        assert out_on == out_off

    def test_exact_zero_score_rejected_by_both(self):
        # R_sel = {y} and a candidate equal to y: MRMR's J is
        # I(y; y) − 1.0 · I(y; y), exactly 0.0, so neither accepts it.
        rng = np.random.default_rng(71)
        label = rng.integers(0, 4, 50).astype(float)
        candidates = np.column_stack([label, rng.normal(size=50)])
        exact = redundancy_scores(candidates[:, :1], label[:, None], label)
        assert exact.tolist() == [0.0]
        batches = [(["seed"], label[:, None]), (["copy", "noise"], candidates)]
        for selector in (StreamingFeatureSelector, ScalarTwoStageSelector):
            __, (outcome,) = _run_selector(selector(AutoFeatConfig(), label), batches)
            assert "copy" in outcome.relevant_names
            assert "copy" not in outcome.accepted_names

    def test_stats_report_cache_activity(self):
        rng = np.random.default_rng(31)
        n = 80
        label = (rng.normal(size=n) > 0).astype(float)
        batches = [(["s0"], rng.normal(size=(n, 1)))]
        batches.append((["f0", "f1"], np.column_stack([label, rng.normal(size=n)])))
        selector, __ = _run_selector(
            StreamingFeatureSelector(AutoFeatConfig(), label), batches
        )
        stats = selector.stats
        assert stats.batches_scored == 1
        assert stats.features_ranked == 2
        assert stats.codes_cached >= 2  # label + seed + any accepted features
        assert stats.codes_reused >= 1
