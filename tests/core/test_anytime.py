"""Anytime budgeted navigation: parity, determinism, and regret.

The contracts under test (DESIGN.md §14):

* **No budget** — navigation is bit-identical to the reference full BFS
  on every parallel backend, whatever ``frontier_strategy`` says.
* **Hop budget** — expiry is deterministic: the same ``max_hops`` yields
  the same fingerprint on serial and processes and across
  repeat runs, explored sets nest as the budget grows, and
  :func:`ranking_regret` is monotone non-increasing in the budget.
* **Wall-clock budget** — the run returns within budget plus bounded
  slack and marks ``budget_exhausted``.
"""

import math
import time

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core import (
    AutoFeat,
    AutoFeatConfig,
    FrontierEntry,
    NavigationFrontier,
    NavigationStats,
    RunBudget,
    UcbFrontierPolicy,
    hop_reward,
    ranking_regret,
    ucb_score,
)
from repro.engine import HopLatency
from repro.errors import ConfigError
from repro.graph import JoinPath
from repro.obs import MetricsRegistry

from tests.core.driver_goldens import BACKENDS, _lake, golden_lake
from tests.engine.test_parallel_parity import _discover, discovery_fingerprint

lakes = st.tuples(
    st.integers(min_value=3, max_value=6),  # n_satellites
    st.integers(min_value=1, max_value=3),  # max_depth
    st.integers(min_value=0, max_value=2),  # lake seed
)


class TestUcbScore:
    def test_unpulled_arm_is_infinite(self):
        assert ucb_score(0, 0.0, 0, 0.5) == math.inf
        assert ucb_score(0, 0.0, 100, 2.0) == math.inf

    def test_bonus_positive_from_first_pull(self):
        # The log(max(total, 1)) cold-start bug zeroed this: with one
        # total pull the bonus collapsed to 0 and selection degenerated
        # to one-sample means.
        assert ucb_score(1, 0.0, 1, 0.5) > 0.0

    def test_mean_plus_bonus(self):
        score = ucb_score(4, 2.0, 10, 0.5)
        assert score == pytest.approx(
            0.5 + 0.5 * math.sqrt(2 * math.log(11) / 4)
        )

    def test_zero_exploration_is_pure_mean(self):
        assert ucb_score(5, 3.0, 50, 0.0) == pytest.approx(0.6)


class TestHopReward:
    def test_bounded_and_monotone(self):
        assert hop_reward(-5.0, 1.0) == 0.0
        assert hop_reward(1.0, 1.0) == 1.0
        assert hop_reward(5.0, 2.0) == 1.0  # clamped on both axes
        assert hop_reward(0.5, 0.0) == 0.0
        assert 0.0 < hop_reward(0.0, 0.5) < hop_reward(0.5, 0.5)


class TestRunBudget:
    def test_inactive_never_trips(self):
        budget = RunBudget.start(None, None)
        assert not budget.active
        assert not budget.expired()
        assert not budget.exhausted(10**9)

    def test_hop_cap(self):
        budget = RunBudget.start(None, 3)
        assert budget.active
        assert not budget.exhausted(2)
        assert budget.exhausted(3)
        assert budget.exhausted(7)

    def test_wall_clock(self):
        budget = RunBudget.start(1e-9, None)
        time.sleep(0.002)
        assert budget.expired() and budget.exhausted(0)
        relaxed = RunBudget.start(3600.0, None)
        assert not relaxed.expired()

    def test_explicit_deadline_wins_over_budget_seconds(self):
        deadline = time.monotonic() - 1.0
        budget = RunBudget.start(3600.0, None, deadline=deadline)
        assert budget.deadline == deadline
        assert budget.expired()


class TestNavigationFrontier:
    @staticmethod
    def _entry_paths(frontier):
        out = []
        while frontier:
            out.append(frontier.pop().path)
        return out

    def test_fifo_bfs_and_dfs_orders(self):
        bfs = NavigationFrontier(traversal="bfs", strategy="fifo")
        dfs = NavigationFrontier(traversal="dfs", strategy="fifo")
        for frontier in (bfs, dfs):
            for name in ("a", "b", "c"):
                frontier.push(name, None)
        assert self._entry_paths(bfs) == ["a", "b", "c"]
        assert self._entry_paths(dfs) == ["c", "b", "a"]

    def test_ucb_requires_policy_and_known_strategy(self):
        with pytest.raises(ConfigError, match="policy"):
            NavigationFrontier(strategy="ucb")
        with pytest.raises(ConfigError, match="strategy"):
            NavigationFrontier(strategy="greedy")

    def test_ucb_prefers_high_reward_then_canonical_order(self):
        policy = UcbFrontierPolicy()
        frontier = NavigationFrontier(strategy="ucb", policy=policy)
        # Two arms with history: t1 productive, t2 not.
        policy.update("t1", 0.9)
        policy.update("t2", 0.0)
        frontier.push(JoinPath("t2"), None, reward=0.0)
        frontier.push(JoinPath("t1"), None, reward=0.9)
        assert frontier.pop().path.base == "t1"
        assert frontier.pop().path.base == "t2"

    def test_ucb_ties_break_on_lowest_canonical_order(self):
        policy = UcbFrontierPolicy()
        frontier = NavigationFrontier(strategy="ucb", policy=policy)
        # No arm has been pulled: every priority is +inf, so pops must
        # come back in canonical push order, not list position noise.
        for name in ("x", "y", "z"):
            frontier.push(JoinPath(name), None)
        assert [frontier.pop().path.base for _ in range(3)] == ["x", "y", "z"]

    def test_drain_level_preserves_canonical_order(self):
        frontier = NavigationFrontier()
        for name in ("a", "b"):
            frontier.push(name, None)
        level = frontier.drain_level()
        assert [e.path for e in level] == ["a", "b"]
        assert len(frontier) == 0 and not frontier

    def test_entry_orders_are_stable_serials(self):
        frontier = NavigationFrontier()
        orders = [frontier.push(str(i), None).order for i in range(4)]
        assert orders == [0, 1, 2, 3]
        assert isinstance(frontier.drain_level()[0], FrontierEntry)


class TestNavigationStats:
    def test_publish_and_dict(self):
        stats = NavigationStats(
            strategy="ucb",
            max_hops=4,
            hops_executed=4,
            budget_exhausted=True,
            frontier_unexplored=2,
            best_score=0.25,
            arms_tracked=3,
        )
        registry = stats.publish(MetricsRegistry())
        assert registry.value("navigation.budget_exhausted") == 1
        assert registry.value("navigation.hops_executed") == 4
        assert registry.value("navigation.frontier_unexplored") == 2
        assert registry.value("navigation.max_hops") == 4
        assert stats.as_dict()["budget_exhausted"] is True
        assert "exhausted" in stats.describe()

    def test_config_validation(self):
        with pytest.raises(ConfigError, match="budget_seconds"):
            AutoFeatConfig(budget_seconds=0.0)
        with pytest.raises(ConfigError, match="max_hops"):
            AutoFeatConfig(max_hops=-1)
        with pytest.raises(ConfigError, match="frontier strategy"):
            AutoFeatConfig(frontier_strategy="greedy")


class TestRankingRegret:
    def test_zero_on_identical_runs(self):
        bundle, drg = _lake(4, 2, 0)
        full = _discover(drg, bundle, "serial")
        assert ranking_regret(full, full) == 0.0

    def test_empty_partial_is_full_regret(self):
        bundle, drg = _lake(4, 2, 0)
        full = _discover(drg, bundle, "serial")
        partial = _discover(drg, bundle, "serial", max_hops=0)
        assert partial.budget_exhausted
        assert not partial.ranked_paths
        if full.ranked_paths and max(r.score for r in full.ranked_paths) > 0:
            assert ranking_regret(full, partial) == 1.0


@settings(
    max_examples=6,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large],
)
@given(
    lake=lakes,
    strategy=st.sampled_from(["fifo", "ucb"]),
    backend=st.sampled_from(BACKENDS),
)
def test_unbudgeted_runs_bit_identical_to_reference(lake, strategy, backend):
    """No budget ⇒ canonical traversal, whatever the strategy knob says."""
    bundle, drg = _lake(*lake)
    reference = _discover(drg, bundle, "serial")
    probed = _discover(drg, bundle, backend, frontier_strategy=strategy)
    assert discovery_fingerprint(probed) == discovery_fingerprint(reference)
    assert probed.navigation.strategy == "fifo"  # degenerated, by design
    assert not probed.budget_exhausted
    assert probed.navigation.frontier_unexplored == 0


@settings(
    max_examples=5,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large],
)
@given(
    lake=lakes,
    max_hops=st.integers(min_value=1, max_value=6),
    strategy=st.sampled_from(["fifo", "ucb"]),
)
def test_hop_budget_expiry_deterministic_across_backends(
    lake, max_hops, strategy
):
    """The same hop budget executes the same prefix everywhere, twice."""
    bundle, drg = _lake(*lake)
    full = _discover(drg, bundle, "serial")
    fingerprints = {}
    for backend in BACKENDS:
        run = _discover(
            drg,
            bundle,
            backend,
            max_hops=max_hops,
            frontier_strategy=strategy,
        )
        rerun = _discover(
            drg,
            bundle,
            backend,
            max_hops=max_hops,
            frontier_strategy=strategy,
        )
        assert discovery_fingerprint(run) == discovery_fingerprint(rerun)
        assert run.navigation.as_dict() == rerun.navigation.as_dict()
        assert run.navigation.hops_executed <= max_hops
        assert run.budget_exhausted == (
            run.navigation.hops_executed < full.navigation.hops_executed
            or run.navigation.frontier_unexplored > 0
        )
        fingerprints[backend] = discovery_fingerprint(run)
    assert fingerprints["processes"] == fingerprints["serial"]


@settings(
    max_examples=4,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large],
)
@given(
    lake=st.tuples(
        st.integers(min_value=3, max_value=5),
        st.integers(min_value=1, max_value=2),
        st.integers(min_value=0, max_value=2),
    ),
    strategy=st.sampled_from(["fifo", "ucb"]),
)
def test_regret_monotone_and_explored_sets_nest(lake, strategy):
    """Growing the hop budget never loses paths and never adds regret."""
    bundle, drg = _lake(*lake)
    full = _discover(drg, bundle, "serial")
    total_hops = full.navigation.hops_executed
    previous_paths: set = set()
    previous_regret = 1.0 + 1e-9
    for max_hops in range(total_hops + 1):
        partial = _discover(
            drg, bundle, "serial", max_hops=max_hops, frontier_strategy=strategy
        )
        paths = {r.path.describe() for r in partial.ranked_paths}
        assert previous_paths <= paths
        regret = ranking_regret(full, partial)
        assert regret <= previous_regret + 1e-12
        previous_paths, previous_regret = paths, regret
    assert previous_regret == 0.0  # the full budget reproduces the best
    final = _discover(
        drg, bundle, "serial", max_hops=total_hops, frontier_strategy=strategy
    )
    assert {r.path.describe() for r in final.ranked_paths} == {
        r.path.describe() for r in full.ranked_paths
    }


class TestWallClockBudget:
    def test_immediate_deadline_returns_partial(self):
        bundle, drg = _lake(5, 3, 0)
        started = time.monotonic()
        result = _discover(drg, bundle, "serial", budget_seconds=1e-9)
        elapsed = time.monotonic() - started
        assert result.budget_exhausted
        assert result.navigation.hops_executed == 0
        assert not result.ranked_paths
        # Generous slack: the budget bounds exploration, and nothing
        # beyond per-hop work remains once it trips.
        assert elapsed < 30.0

    def test_generous_deadline_matches_reference(self):
        bundle, drg = _lake(4, 2, 1)
        reference = _discover(drg, bundle, "serial")
        budgeted = _discover(drg, bundle, "serial", budget_seconds=3600.0)
        assert not budgeted.budget_exhausted
        assert discovery_fingerprint(budgeted)["ranked"] == (
            discovery_fingerprint(reference)["ranked"]
        )

    def test_augment_propagates_shared_deadline(self):
        bundle, drg = _lake(4, 2, 0)
        config = AutoFeatConfig(
            sample_size=120,
            seed=0,
            top_k=2,
            budget_seconds=1e-9,
            parallel_backend="serial",
        )
        result = AutoFeat(drg, config).augment(
            bundle.base_name, bundle.label_column, model_name="random_forest"
        )
        assert result.budget_exhausted
        assert result.trained == ()
        assert result.discovery.budget_exhausted

    @pytest.mark.parametrize("backend", BACKENDS)
    @pytest.mark.parametrize("strategy", ["fifo", "ucb"])
    def test_only_merged_hops_are_reported(self, backend, strategy):
        # Units are counted when generated (that is what makes the
        # max_hops cut deterministic), but a unit the deadline aborted
        # was never explored: every reported hop must be accounted for
        # as ranked, pruned or failed.
        # 12 hops of 30 ms cannot fit 120 ms, even on two workers.
        bundle, drg = golden_lake("covertype")
        full = _discover(drg, bundle, backend)
        partial = _discover(
            drg,
            bundle,
            backend,
            budget_seconds=0.12,
            hop_hook=HopLatency(0.03),
            frontier_strategy=strategy,
        )
        assert partial.budget_exhausted
        assert partial.n_paths_explored < full.n_paths_explored
        for run in (full, partial):
            assert run.n_paths_explored == (
                len(run.ranked_paths)
                + run.n_paths_pruned_quality
                + len(run.failure_report.records)
            )
            assert run.navigation.hops_executed == run.n_paths_explored
            counters = run.run_manifest.metrics["counters"]
            assert counters["discovery.paths_explored"] == run.n_paths_explored

    def test_augment_unbudgeted_flags_clear(self):
        bundle, drg = _lake(3, 1, 0)
        config = AutoFeatConfig(
            sample_size=120, seed=0, top_k=1, parallel_backend="serial"
        )
        result = AutoFeat(drg, config).augment(
            bundle.base_name, bundle.label_column, model_name="random_forest"
        )
        assert not result.budget_exhausted
        assert not result.discovery.budget_exhausted


class TestManifestRecordsBudget:
    def test_discovery_manifest_gauges(self):
        bundle, drg = _lake(4, 2, 0)
        partial = _discover(drg, bundle, "serial", max_hops=1)
        metrics = partial.run_manifest.metrics
        assert metrics["gauges"]["navigation.budget_exhausted"] == 1
        assert metrics["gauges"]["navigation.hops_executed"] == 1
        assert metrics["gauges"]["navigation.max_hops"] == 1
        complete = _discover(drg, bundle, "serial")
        gauges = complete.run_manifest.metrics["gauges"]
        assert gauges["navigation.budget_exhausted"] == 0
