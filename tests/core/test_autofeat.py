"""Integration-style tests for the full AutoFeat algorithm."""

from dataclasses import replace

import numpy as np
import pytest

from repro.core import AutoFeat, AutoFeatConfig
from repro.dataframe import Table
from repro.datasets import DATASETS, benchmark_drg, make_classification
from repro.datasets.splitter import SplitPlan, split_into_lake
from repro.errors import JoinError
from repro.graph import DatasetRelationGraph, KFKConstraint
from tests.conftest import cpus
from tests.selection.test_kernels import ScalarTwoStageSelector


def planted_lake(n=700, seed=7):
    """Base with weak features; the real signal sits two hops away."""
    rng = np.random.default_rng(seed)
    ids = np.arange(n)
    mid_key = rng.permutation(n) + 10_000
    deep_key = rng.permutation(n) + 50_000
    signal = rng.normal(0, 1, n)
    label = ((signal + rng.normal(0, 0.4, n)) > 0).astype(int)

    weak = rng.normal(0, 1, n)
    mid = Table(
        {"mid_key": mid_key, "deep_key": deep_key, "mid_noise": rng.normal(0, 1, n)},
        name="mid",
    )
    deep = Table({"deep_key": deep_key, "signal": signal}, name="deep")
    junk = Table({"id": ids, "junk": rng.normal(0, 1, n)}, name="junk")
    base = Table(
        {"id": ids, "weak": weak, "label": label, "mid_key": mid_key}, name="base"
    )
    drg = DatasetRelationGraph.from_constraints(
        [base, mid, deep, junk],
        [
            KFKConstraint("base", "mid_key", "mid", "mid_key"),
            KFKConstraint("mid", "deep_key", "deep", "deep_key"),
            KFKConstraint("base", "id", "junk", "id"),
        ],
    )
    return drg


@pytest.fixture(scope="module")
def drg():
    return planted_lake()


@pytest.fixture(scope="module")
def discovery(drg):
    autofeat = AutoFeat(drg, AutoFeatConfig(sample_size=500, seed=1))
    return autofeat.discover("base", "label")


class TestDiscovery:
    def test_transitive_path_ranked_first(self, discovery):
        best = discovery.ranked_paths[0]
        assert best is not None
        assert best.path.terminal == "deep"
        assert "deep.signal" in best.selected_features

    def test_all_paths_explored(self, discovery):
        # base->mid, base->junk, base->mid->deep.
        assert discovery.n_paths_explored == 3
        assert len(discovery.ranked_paths) == 3

    def test_scores_descending(self, discovery):
        scores = [r.score for r in discovery.ranked_paths]
        assert scores == sorted(scores, reverse=True)

    def test_junk_path_contributes_no_features(self, discovery):
        junk_paths = [
            r for r in discovery.ranked_paths if r.path.terminal == "junk"
        ]
        assert junk_paths
        assert junk_paths[0].selected_features == ()

    def test_feature_selection_time_recorded(self, discovery):
        assert discovery.feature_selection_seconds > 0

    def test_top_k(self, discovery):
        assert len(discovery.top(2)) == 2

    def test_missing_label_raises(self, drg, monkeypatch):
        def no_pool(*args, **kwargs):
            raise AssertionError("the label is checked before a pool is built")

        monkeypatch.setattr("repro.engine.parallel.fit_pool", no_pool)
        with cpus(2), pytest.raises(JoinError):
            AutoFeat(drg, AutoFeatConfig()).augment("base", "not_a_column")


class TestTraining:
    def test_best_path_improves_over_base(self, drg, discovery):
        from repro.ml import evaluate_accuracy

        autofeat = AutoFeat(drg, AutoFeatConfig(sample_size=500, seed=1))
        result = autofeat.train_top_k(discovery, "lightgbm")
        base_acc = evaluate_accuracy(
            drg.table("base"), "label", "lightgbm", seed=1
        )
        assert result.accuracy > base_acc + 0.05

    def test_augmented_table_has_selected_features(self, drg, discovery):
        autofeat = AutoFeat(drg, AutoFeatConfig(sample_size=500, seed=1))
        result = autofeat.train_top_k(discovery, "lightgbm")
        assert result.augmented_table is not None
        assert "deep.signal" in result.augmented_table
        assert "label" in result.augmented_table

    def test_summary_mentions_best_path(self, drg, discovery):
        autofeat = AutoFeat(drg, AutoFeatConfig(sample_size=500, seed=1))
        result = autofeat.train_top_k(discovery, "lightgbm")
        assert "best accuracy" in result.summary()
        assert result.n_joined_tables == 2

    def test_total_time_includes_selection(self, drg, discovery):
        autofeat = AutoFeat(drg, AutoFeatConfig(sample_size=500, seed=1))
        result = autofeat.train_top_k(discovery, "lightgbm")
        assert result.total_seconds >= discovery.feature_selection_seconds


class TestDeterminism:
    def test_same_seed_same_ranking(self, drg):
        config = AutoFeatConfig(sample_size=500, seed=3)
        a = AutoFeat(drg, config).discover("base", "label")
        b = AutoFeat(drg, config).discover("base", "label")
        assert [r.path.describe() for r in a.ranked_paths] == [
            r.path.describe() for r in b.ranked_paths
        ]
        assert [r.score for r in a.ranked_paths] == [
            r.score for r in b.ranked_paths
        ]


class TestCovertypeGbdtPin:
    """Per-path accuracies of the boosted models on a 600-row covertype lake.

    Frozen from the commit before the flat-bincount split kernel replaced
    the per-feature loop: the kernel is bit-identical, so a later change to
    it that moves any of these has changed a split decision.
    """

    #: model -> ((terminal table, hops, accuracy) per trained path, best terminal)
    FROZEN = {
        "lightgbm": (
            [
                ("covertype_t07", 3, 0.9083333333333333),
                ("covertype_t09", 3, 0.8916666666666667),
                ("covertype_t06", 2, 0.9),
                ("covertype_t10", 2, 0.7166666666666667),
            ],
            "covertype_t07",
        ),
        "xgboost": (
            [
                ("covertype_t07", 3, 0.9),
                ("covertype_t09", 3, 0.9),
                ("covertype_t06", 2, 0.9083333333333333),
                ("covertype_t10", 2, 0.725),
            ],
            "covertype_t06",
        ),
    }

    @pytest.fixture(scope="class")
    def covertype(self):
        spec = replace(DATASETS["covertype"], rows=600)
        bundle = split_into_lake(spec.flat(), spec.plan())
        return bundle, benchmark_drg(bundle)

    @pytest.mark.parametrize("model", sorted(FROZEN))
    def test_augment_matches_frozen_accuracies(self, covertype, model):
        bundle, drg = covertype
        result = AutoFeat(drg).augment(bundle.base_name, bundle.label_column, model)
        trained, best = self.FROZEN[model]
        assert [
            (t.ranked.path.terminal, t.ranked.path.length, t.accuracy)
            for t in result.trained
        ] == trained
        assert result.best.ranked.path.terminal == best


class TestSelectionKernelParity:
    """Kernel selector vs the scalar two-stage reference, end to end."""

    def test_ranked_paths_identical(self, drg, discovery, monkeypatch):
        monkeypatch.setattr(
            "repro.core.autofeat.StreamingFeatureSelector", ScalarTwoStageSelector
        )
        on = discovery
        off = AutoFeat(drg, AutoFeatConfig(sample_size=500, seed=1)).discover(
            "base", "label"
        )
        assert on.ranked_paths
        assert off.selection_stats.codes_cached == 0  # the reference ran
        assert [r.path.describe() for r in on.ranked_paths] == [
            r.path.describe() for r in off.ranked_paths
        ]
        for a, b in zip(on.ranked_paths, off.ranked_paths):
            assert a.score == b.score
            assert a.selected_features == b.selected_features
            assert a.relevance_scores == b.relevance_scores
            assert a.redundancy_scores == b.redundancy_scores

    def test_stats_reflect_kernel_usage(self, discovery):
        assert discovery.selection_stats.codes_cached > 0
        assert discovery.selection_stats.codes_reused > 0
        assert discovery.selection_stats.batches_scored > 0

    def test_summary_reports_selection_stats(self, drg, discovery):
        autofeat = AutoFeat(drg, AutoFeatConfig(sample_size=500, seed=1))
        result = autofeat.train_top_k(discovery, "lightgbm")
        assert "selection:" in result.summary()
        assert "codes cached" in result.summary()

    def test_partial_joins_never_fall_back_to_scalar(self):
        # Match rates < 1 on a multi-hop lake: candidates and selected
        # features both carry nulls, on different rows.
        flat = make_classification(
            n_rows=300, n_informative=6, n_redundant=2, n_noise=2,
            class_sep=1.6, seed=3,
        )
        plan = SplitPlan(
            name="holes", n_satellites=5, n_base_features=2, max_depth=3,
            match_rate_range=(0.6, 0.9), seed=3,
        )
        bundle = split_into_lake(flat, plan)
        config = AutoFeatConfig(sample_size=300, tau=0.3, seed=1)
        found = AutoFeat(bundle.benchmark_drg(), config).discover(
            bundle.base_name, bundle.label_column
        )
        assert max(r.path.length for r in found.ranked_paths) >= 2
        assert found.selection_stats.codes_reused > 0
        assert found.selection_stats.scalar_fallbacks == 0


class TestConfigEffects:
    def test_max_path_length_one_blocks_transitive(self, drg):
        config = AutoFeatConfig(sample_size=500, max_path_length=1, seed=1)
        discovery = AutoFeat(drg, config).discover("base", "label")
        assert all(r.path.length == 1 for r in discovery.ranked_paths)

    def test_dfs_traversal_finds_same_paths(self, drg):
        bfs = AutoFeat(
            drg, AutoFeatConfig(sample_size=500, seed=1)
        ).discover("base", "label")
        dfs = AutoFeat(
            drg, AutoFeatConfig(sample_size=500, traversal="dfs", seed=1)
        ).discover("base", "label")
        assert {r.path.describe() for r in bfs.ranked_paths} == {
            r.path.describe() for r in dfs.ranked_paths
        }

    def test_tau_one_prunes_imperfect_joins(self):
        # Satellite covering half the base rows: completeness ~0.5.
        rng = np.random.default_rng(0)
        n = 400
        ids = np.arange(n)
        label = rng.integers(0, 2, n)
        base = Table({"id": ids, "x": rng.normal(0, 1, n), "label": label}, name="base")
        partial = Table(
            {"id": ids[: n // 2], "y": rng.normal(0, 1, n // 2)}, name="partial"
        )
        drg = DatasetRelationGraph.from_constraints(
            [base, partial], [KFKConstraint("base", "id", "partial", "id")]
        )
        strict = AutoFeat(drg, AutoFeatConfig(tau=1.0, sample_size=300, seed=1))
        discovery = strict.discover("base", "label")
        assert discovery.n_paths_pruned_quality == 1
        assert len(discovery.ranked_paths) == 0
        lenient = AutoFeat(drg, AutoFeatConfig(tau=0.3, sample_size=300, seed=1))
        assert len(lenient.discover("base", "label").ranked_paths) == 1

    def test_no_paths_yields_empty_result(self):
        rng = np.random.default_rng(1)
        base = Table(
            {"id": [1, 2, 3, 4] * 5, "x": rng.normal(0, 1, 20), "label": [0, 1] * 10},
            name="base",
        )
        drg = DatasetRelationGraph.from_constraints([base], [])
        result = AutoFeat(drg, AutoFeatConfig(sample_size=10, seed=0)).augment(
            "base", "label"
        )
        assert result.best is None
        assert result.augmented_table is None
        assert result.accuracy == 0.0
