"""End-to-end: every pipeline result carries a consistent run manifest."""

import numpy as np
import pytest

from repro.baselines import (
    run_arda,
    run_autofeat,
    run_base,
    run_join_all,
    run_mab,
)
from repro.core import AutoFeat, AutoFeatConfig
from repro.dataframe import Table
from repro.graph import DatasetRelationGraph, KFKConstraint
from repro.obs import validate_manifest


def diamond_lake(n=300, seed=3):
    rng = np.random.default_rng(seed)
    a_key = rng.permutation(n) + 1_000
    b_key = rng.permutation(n) + 5_000
    shared = rng.permutation(n) + 9_000
    signal = rng.normal(0, 1, n)
    label = ((signal + rng.normal(0, 0.3, n)) > 0).astype(int)
    base = Table(
        {
            "id": np.arange(n),
            "a_key": a_key,
            "b_key": b_key,
            "weak": rng.normal(0, 1, n),
            "label": label,
        },
        name="base",
    )
    a = Table(
        {"a_key": a_key, "shared_key": shared, "a_noise": rng.normal(0, 1, n)},
        name="a",
    )
    b = Table(
        {"b_key": b_key, "shared_key": shared, "b_noise": rng.normal(0, 1, n)},
        name="b",
    )
    c = Table({"shared_key": shared, "signal": signal}, name="c")
    return DatasetRelationGraph.from_constraints(
        [base, a, b, c],
        [
            KFKConstraint("base", "a_key", "a", "a_key"),
            KFKConstraint("base", "b_key", "b", "b_key"),
            KFKConstraint("a", "shared_key", "c", "shared_key"),
            KFKConstraint("b", "shared_key", "c", "shared_key"),
        ],
    )


@pytest.fixture(scope="module")
def drg():
    return diamond_lake()


CONFIG = AutoFeatConfig(sample_size=100, tau=0.0, top_k=2)


def assert_valid(manifest, total_seconds, stage):
    assert manifest is not None
    assert manifest.stage == stage
    assert validate_manifest(manifest.as_dict()) == []
    # the timing tree accounts for the run's wall clock within tolerance
    assert manifest.wall_seconds == pytest.approx(total_seconds, abs=1e-6)
    assert manifest.timing_total_seconds() == pytest.approx(
        total_seconds, rel=0.05, abs=0.02
    )
    assert all(s >= 0 for s in manifest.stage_seconds().values())


class TestAutoFeatManifests:
    def test_discovery_manifest(self, drg):
        discovery = AutoFeat(drg, CONFIG).discover("base", "label")
        manifest = discovery.run_manifest
        assert_valid(manifest, discovery.discovery_seconds, "discovery")
        # span-derived timings: selection time is part of discovery time
        assert (
            0
            <= discovery.feature_selection_seconds
            <= discovery.discovery_seconds
        )
        stages = manifest.stage_seconds()
        assert stages["selection"] == pytest.approx(
            discovery.feature_selection_seconds
        )
        counters = manifest.metrics["counters"]
        assert counters["discovery.paths_explored"] == discovery.n_paths_explored
        assert counters["engine.hops_executed"] == (
            discovery.engine_stats.hops_executed
        )
        # the engine emitted cache events into the hop spans
        assert any(
            e["name"] in ("cache_hit", "cache_miss") for e in manifest.events
        )

    def test_augment_manifest_composes_phases(self, drg):
        result = AutoFeat(drg, CONFIG).augment("base", "label", "knn")
        manifest = result.run_manifest
        assert_valid(manifest, result.total_seconds, "augment")
        stages = manifest.stage_seconds()
        assert "discover" in stages and "train" in stages
        assert stages["discover"] + stages["train"] == pytest.approx(
            result.total_seconds, abs=1e-6
        )
        assert "stages:" in result.summary()

    def test_untraced_run_still_manifests(self, drg):
        config = CONFIG.with_overrides(enable_tracing=False)
        result = AutoFeat(drg, config).augment("base", "label", "knn")
        manifest = result.run_manifest
        assert validate_manifest(manifest.as_dict()) == []
        stages = manifest.stage_seconds()
        assert stages  # never empty, even untraced
        assert {"augment", "discover", "train"} <= set(stages)
        assert result.discovery.feature_selection_seconds >= 0
        assert manifest.wall_seconds == pytest.approx(
            result.total_seconds, abs=1e-6
        )

    def test_traced_and_untraced_rankings_identical(self, drg):
        traced = AutoFeat(drg, CONFIG).discover("base", "label")
        untraced = AutoFeat(
            drg, CONFIG.with_overrides(enable_tracing=False)
        ).discover("base", "label")
        assert [
            (r.path.describe(), r.score, r.selected_features)
            for r in traced.ranked_paths
        ] == [
            (r.path.describe(), r.score, r.selected_features)
            for r in untraced.ranked_paths
        ]


BASELINES = {
    # name: (runner, root stage, stage holding feature-selection time)
    "base": (lambda drg: run_base(drg.table("base"), "label", "knn"),
             "base", "selection"),
    "join_all": (lambda drg: run_join_all(drg, "base", "label", "knn"),
                 "join_all", "selection"),
    "join_all_f": (
        lambda drg: run_join_all(drg, "base", "label", "knn", with_filter=True),
        "join_all", "selection"),
    "arda": (lambda drg: run_arda(drg, "base", "label", "knn"),
             "arda", "selection"),
    "mab": (lambda drg: run_mab(drg, "base", "label", "knn", budget=4),
            "mab", "pull"),
}


TRACING = pytest.mark.parametrize("tracing", [True, False], ids=["traced", "untraced"])


class TestOneClock:
    """Result seconds and manifest stages are read off one tracer (AutoFeat's
    in both modes; the baselines always trace), so they agree to the
    nanosecond-to-float rounding (1 us here)."""

    @TRACING
    def test_discover(self, drg, tracing):
        config = CONFIG.with_overrides(enable_tracing=tracing)
        discovery = AutoFeat(drg, config).discover("base", "label")
        stages = discovery.run_manifest.stage_seconds()
        assert stages["selection"] == pytest.approx(
            discovery.feature_selection_seconds, abs=1e-6
        )
        assert stages["discover"] == pytest.approx(
            discovery.discovery_seconds, abs=1e-6
        )
        assert 0 < discovery.feature_selection_seconds < discovery.discovery_seconds

    @TRACING
    def test_augment(self, drg, tracing):
        config = CONFIG.with_overrides(enable_tracing=tracing)
        result = AutoFeat(drg, config).augment("base", "label", "knn")
        stages = result.run_manifest.stage_seconds()
        discovery = result.discovery
        assert stages["selection"] == pytest.approx(
            discovery.feature_selection_seconds, abs=1e-6
        )
        assert stages["discover"] == pytest.approx(
            discovery.discovery_seconds, abs=1e-6
        )
        assert stages["augment"] == pytest.approx(result.total_seconds, abs=1e-6)
        assert stages["train"] > 0

    # The baselines always trace.
    @pytest.mark.parametrize("name", sorted(BASELINES), ids=lambda name: f"{name}-traced")
    def test_baseline(self, drg, name):
        run, root, fs_stage = BASELINES[name]
        result = run(drg)
        stages = result.run_manifest.stage_seconds()
        assert stages.get(fs_stage, 0.0) == pytest.approx(
            result.feature_selection_seconds, abs=1e-6
        )
        assert stages[root] == pytest.approx(result.total_seconds, abs=1e-6)
        assert result.feature_selection_seconds <= result.total_seconds


def test_untraced_discover_keeps_coordinator_stages(drg):
    """Disabled tracing keeps totals, not trees: every stage discovery
    times in process is there, hop and join included."""
    config = CONFIG.with_overrides(enable_tracing=False)
    manifest = AutoFeat(drg, config).discover("base", "label").run_manifest
    assert manifest.timing["attrs"] == {"traced": False}
    assert {c["name"] for c in manifest.timing["children"]} == {
        "sample", "selection", "hop", "join",
    }
    assert all(not c["children"] for c in manifest.timing["children"])
    assert validate_manifest(manifest.as_dict()) == []


class TestBaselineManifests:
    def test_base(self, drg):
        result = run_base(drg.table("base"), "label", "knn")
        assert_valid(result.run_manifest, result.total_seconds, "base")

    def test_join_all_with_filter(self, drg):
        result = run_join_all(drg, "base", "label", "knn", with_filter=True)
        assert_valid(result.run_manifest, result.total_seconds, "join_all")
        stages = result.run_manifest.stage_seconds()
        assert stages["selection"] == pytest.approx(
            result.feature_selection_seconds
        )

    def test_arda(self, drg):
        result = run_arda(drg, "base", "label", "knn")
        assert_valid(result.run_manifest, result.total_seconds, "arda")

    def test_mab(self, drg):
        result = run_mab(drg, "base", "label", "knn", budget=4)
        assert_valid(result.run_manifest, result.total_seconds, "mab")

    def test_autofeat_adapter(self, drg):
        result = run_autofeat(drg, "base", "label", "knn", config=CONFIG)
        assert_valid(result.run_manifest, result.total_seconds, "augment")
