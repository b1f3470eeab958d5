"""JoinEngine: cache parity, exact stats, and error diagnostics.

The fixture lake is a *diamond*: the signal table ``c`` is reachable both
through ``a`` and through ``b``, so the discovery BFS must build the same
``(c, shared_key)`` join index on two different paths — exactly the
cross-path reuse the HopCache exists for.
"""

import numpy as np
import pytest

from repro.core import AutoFeat, AutoFeatConfig
from repro.dataframe import JoinIndex, Table
from repro.engine import HopCache, JoinEngine
from repro.engine.naming import qualified, source_column_name
from repro.errors import JoinError
from repro.graph import DatasetRelationGraph, JoinPath, KFKConstraint, OrientedEdge
from tests.oracle.join import index_left_join


def diamond_lake(n=400, seed=3):
    rng = np.random.default_rng(seed)
    ids = np.arange(n)
    a_key = rng.permutation(n) + 1_000
    b_key = rng.permutation(n) + 5_000
    shared = rng.permutation(n) + 9_000
    signal = rng.normal(0, 1, n)
    label = ((signal + rng.normal(0, 0.3, n)) > 0).astype(int)
    base = Table(
        {
            "id": ids,
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


def discover(drg, hop_cache=None):
    config = AutoFeatConfig(sample_size=200, seed=1)
    return AutoFeat(drg, config, hop_cache=hop_cache).discover("base", "label")


@pytest.fixture(scope="module")
def cached_discovery(drg):
    return discover(drg)


def ranking_fingerprint(discovery):
    return [
        (
            r.path.describe(),
            r.score,
            r.selected_features,
            r.relevance_scores,
            r.redundancy_scores,
            r.completeness,
        )
        for r in discovery.ranked_paths
    ]


class TestCachedUncachedParity:
    def test_identical_rankings_and_scores(self, drg, cached_discovery):
        """A run served entirely from a warm cache ranks like a cold run."""
        cache = HopCache()
        cold = discover(drg, hop_cache=cache)
        warm = discover(drg, hop_cache=cache)
        assert cold.engine_stats.cache_misses == 5
        assert (warm.engine_stats.cache_hits, warm.engine_stats.index_builds) == (6, 0)
        assert (
            ranking_fingerprint(cached_discovery)
            == ranking_fingerprint(cold)
            == ranking_fingerprint(warm)
        )

    def test_identical_materialisation(self, drg, cached_discovery):
        """Engine (cold, then all cache hits) vs per-hop build, no cache."""
        base = drg.table("base")
        path = cached_discovery.ranked_paths[0].path
        expected, expected_cols = base, []
        for edge in path.edges:
            right = drg.table(edge.target).prefixed(edge.target)
            index = JoinIndex.build(
                right, qualified(edge.target, edge.target_column), seed=1
            )
            expected = index_left_join(index, expected, source_column_name(edge, "base"))
            expected_cols.append(list(right.column_names))
        engine = JoinEngine(drg, seed=1)
        for _ in range(2):
            table, cols = engine.materialize_path(path, base)
            assert table == expected
            assert cols == expected_cols
        assert engine.stats.cache_hits == len(path.edges)

    def test_signal_found_through_diamond(self, cached_discovery):
        best = cached_discovery.ranked_paths[0]
        assert best.path.terminal == "c"
        all_selected = set()
        for ranked in cached_discovery.ranked_paths:
            all_selected.update(ranked.selected_features)
        assert "c.signal" in all_selected


class TestEngineStats:
    """Exact counter accounting over the diamond's six frontier hops.

    Hops: base->a, base->b, base->a->c, base->b->c, base->a->c->b,
    base->b->c->a.  Distinct build keys: (a, a_key), (b, b_key),
    (c, shared_key), (b, shared_key), (a, shared_key) — five builds, and
    the second arrival at (c, shared_key) is the one cache hit.
    """

    def test_cached_stats_exact(self, cached_discovery):
        stats = cached_discovery.engine_stats
        assert stats.hops_executed == 6
        assert stats.index_builds == 5
        assert stats.cache_hits == 1
        assert stats.cache_misses == 5
        assert stats.index_builds < stats.hops_executed
        assert stats.cache_hit_rate > 0
        assert stats.rows_probed == 6 * 200

    def test_explored_equals_hops(self, cached_discovery):
        assert cached_discovery.n_paths_explored == 6

    def test_training_phase_stats_on_augmentation_result(self, drg):
        config = AutoFeatConfig(sample_size=200, seed=1, top_k=2)
        result = AutoFeat(drg, config).augment("base", "label", model_name="knn")
        assert result.engine_stats.hops_executed >= 2
        assert result.combined_engine_stats.hops_executed == (
            result.discovery.engine_stats.hops_executed
            + result.engine_stats.hops_executed
        )
        assert "engine:" in result.summary()


class TestJoinErrorContext:
    """The path-context satellite: pruned-path diagnostics are actionable."""

    def test_missing_source_column_names_base_path_and_edge(self, drg):
        base = drg.table("base")
        hop1 = drg.best_join_options("base", "a")[0]
        hop2 = drg.best_join_options("a", "c")[0]
        walked = JoinPath("base").extend(hop1)
        # Apply the second hop to the *bare* base table: 'a.shared_key' is
        # not available, which is exactly the spurious-edge pruning case.
        with pytest.raises(JoinError) as excinfo:
            JoinEngine(drg, seed=1).apply_hop(base, hop2, "base", path=walked)
        message = str(excinfo.value)
        assert "'a.shared_key'" in message
        assert "base='base'" in message
        assert "base.a_key -> a.a_key" in message  # the hop sequence walked
        assert "a.shared_key -> c.shared_key" in message  # the failing edge

    def test_context_at_base_has_placeholder_path(self, drg):
        base = drg.table("base").select(["id", "label"])
        edge = drg.best_join_options("base", "a")[0]
        with pytest.raises(JoinError) as excinfo:
            JoinEngine(drg, seed=1).apply_hop(base, edge, "base")
        assert "(at base)" in str(excinfo.value)

    def test_missing_target_column_is_wrapped_with_context(self, drg):
        base = drg.table("base")
        bogus = OrientedEdge(
            source="base",
            target="a",
            source_column="a_key",
            target_column="no_such_column",
            weight=1.0,
        )
        with pytest.raises(JoinError) as excinfo:
            JoinEngine(drg, seed=1).apply_hop(base, bogus, "base")
        message = str(excinfo.value)
        assert "failing edge" in message
        assert "base.a_key -> a.no_such_column" in message
