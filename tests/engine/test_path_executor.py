"""PathExecutor hand-off: in task order, one outcome at a time.

The coordinator merges while units execute, so *when* the executor runs a
unit is part of its contract: the ``serial`` backend must not run unit
*i+1* before outcome *i* was consumed (that is what keeps one joined table
resident instead of a BFS level of them, and what makes ``fail_fast`` stop
at the first failing unit), while the pool may run ahead but must still
hand back in task order, surface worker bugs on the coordinator and
abandon what is still queued when the consumer stops.
"""

import multiprocessing
import os
import time

import pytest

from repro.core import AutoFeat, AutoFeatConfig
from repro.core.streaming import StreamingFeatureSelector
from repro.engine import (
    FaultInjector,
    HopLatency,
    HopTask,
    JoinEngine,
    PathExecutor,
    resolve_max_workers,
)
from repro.errors import ErrorBudgetExceeded, InjectedFaultError
from repro.graph import JoinPath

from tests.core.test_parallel_faults import diamond_lake

POOLS = ("processes",)


@pytest.fixture(scope="module")
def drg():
    return diamond_lake(n=120)


def hop_tasks(drg, n=4):
    """``n`` independent first-level hops, alternating base->a / base->b."""
    base = drg.table("base")
    edges = [drg.best_join_options("base", target)[0] for target in ("a", "b")]
    return [
        HopTask(
            index=i,
            path=JoinPath("base"),
            edge=edges[i % 2],
            table=base,
            base_name="base",
        )
        for i in range(n)
    ]


@pytest.fixture
def hop_calls(monkeypatch):
    """Targets of every ``apply_hop`` call, in call order."""
    calls = []
    original = JoinEngine.apply_hop

    def counting(self, current, edge, base_name, path=None, attempt=0):
        calls.append(edge.target)
        return original(self, current, edge, base_name, path=path, attempt=attempt)

    monkeypatch.setattr(JoinEngine, "apply_hop", counting)
    return calls


class TestSerialHandOff:
    def test_next_unit_runs_only_after_outcome_consumed(self, drg, hop_calls):
        executor = PathExecutor(JoinEngine(drg), backend="serial")
        outcomes = executor.run_hops(hop_tasks(drg))
        assert hop_calls == []  # nothing runs before the first outcome is asked for
        for consumed in range(1, 5):
            outcome = next(outcomes)
            assert outcome.index == consumed - 1
            assert outcome.error is None and outcome.retries == 0
            assert len(hop_calls) == consumed
        assert list(outcomes) == []

    def test_rest_is_abandoned_when_consumer_stops(self, drg, hop_calls):
        executor = PathExecutor(JoinEngine(drg), backend="serial")
        outcomes = executor.run_hops(hop_tasks(drg))
        next(outcomes)
        outcomes.close()
        assert hop_calls == ["a"]
        # The units that did run are still accounted for.
        assert executor.busy_seconds > 0.0
        assert executor.parallel_wall_seconds >= executor.busy_seconds

    def test_accounting_excludes_the_consumers_merge_time(self, drg):
        executor = PathExecutor(JoinEngine(drg), backend="serial")
        for __ in executor.run_hops(hop_tasks(drg)):
            time.sleep(0.02)  # the coordinator's merge work
        assert 0.0 < executor.busy_seconds <= executor.parallel_wall_seconds
        assert executor.parallel_wall_seconds < 4 * 0.02

    def test_injected_fault_spends_every_attempt_before_any_join(self, drg):
        engine = JoinEngine(drg, hop_hook=FaultInjector(failure_probability=1.0))
        executor = PathExecutor(engine, backend="serial", attempts=3)
        for outcome in executor.run_hops(hop_tasks(drg, n=2)):
            assert isinstance(outcome.error, InjectedFaultError)
            assert outcome.retries == 2
            assert outcome.stats.hops_executed == 0

    def test_transient_fault_passes_at_the_attempt_it_recovers(self, drg):
        hook = FaultInjector(failure_probability=1.0, recover_after=2)
        executor = PathExecutor(
            JoinEngine(drg, hop_hook=hook), backend="serial", attempts=3
        )
        (outcome,) = executor.run_hops(hop_tasks(drg, n=1))
        assert outcome.error is None and outcome.retries == 2
        assert outcome.stats.hops_executed == 1


@pytest.mark.parametrize("backend", POOLS)
class TestPoolHandOff:
    def test_outcomes_in_task_order_whatever_finishes_first(
        self, drg, backend, monkeypatch
    ):
        original = JoinEngine.apply_hop

        def first_unit_is_slowest(self, current, edge, base_name, path=None, attempt=0):
            if edge.target == "a":
                time.sleep(0.05)
            return original(self, current, edge, base_name, path=path, attempt=attempt)

        monkeypatch.setattr(JoinEngine, "apply_hop", first_unit_is_slowest)
        tasks = hop_tasks(drg)
        with PathExecutor(JoinEngine(drg), backend=backend) as executor:
            outcomes = list(executor.run_hops(tasks))
        assert [o.index for o in outcomes] == [0, 1, 2, 3]
        for task, outcome in zip(tasks, outcomes):
            joined, contributed = outcome.value
            assert all(name.startswith(task.edge.target + ".") for name in contributed)
        assert executor.busy_seconds > 0.0 and executor.parallel_wall_seconds > 0.0

    def test_unexpected_worker_exception_reraises_on_coordinator(
        self, drg, backend, monkeypatch
    ):
        def exploding(self, current, edge, base_name, path=None, attempt=0):
            raise RuntimeError("worker bug: corrupted index")

        monkeypatch.setattr(JoinEngine, "apply_hop", exploding)
        with PathExecutor(JoinEngine(drg), backend=backend) as executor:
            with pytest.raises(RuntimeError, match="worker bug"):
                list(executor.run_hops(hop_tasks(drg)))

    def test_queued_units_are_abandoned_when_consumer_stops(
        self, drg, backend, monkeypatch, tmp_path
    ):
        # The pool twin of TestSerialHandOff.test_rest_is_abandoned_...:
        # every executed unit leaves a line in a file the forked workers
        # share, so the count is exact whatever the machine's speed.
        ran = tmp_path / "ran"
        original = JoinEngine.apply_hop

        def logged_slow_hop(self, current, edge, base_name, path=None, attempt=0):
            with ran.open("a") as log:
                log.write(edge.target + "\n")
            time.sleep(0.05)
            return original(self, current, edge, base_name, path=path, attempt=attempt)

        monkeypatch.setattr(JoinEngine, "apply_hop", logged_slow_hop)
        tasks = hop_tasks(drg, n=16)
        executor = PathExecutor(JoinEngine(drg), backend=backend)
        outcomes = executor.run_hops(tasks)
        next(outcomes)
        outcomes.close()
        executor.close()
        # Running units and the few the pool already handed to its
        # workers' call queue finish; the rest never start.
        assert len(ran.read_text().splitlines()) < len(tasks)


def test_auto_worker_count_follows_cpu_affinity(monkeypatch):
    # A container pinned to one CPU of a many-core machine must not start
    # one worker per machine core.
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0}, raising=False)
    monkeypatch.setattr(os, "cpu_count", lambda: 64)
    assert resolve_max_workers("processes") == 1
    assert resolve_max_workers("serial") == 1


class TestPoolIsGoneWhenDiscoverEnds:
    """However ``discover`` ends, it leaves no worker process behind."""

    def discover(self, drg, hop_hook=None, **overrides):
        config = AutoFeatConfig(
            sample_size=100, parallel_backend="processes", **overrides
        )
        before = set(multiprocessing.active_children())
        try:
            return AutoFeat(drg, config, hop_hook=hop_hook).discover("base", "label")
        finally:
            assert set(multiprocessing.active_children()) <= before

    def test_unexpected_worker_exception(self, drg, monkeypatch):
        def exploding(self, current, edge, base_name, path=None, attempt=0):
            raise RuntimeError("worker bug: corrupted index")

        monkeypatch.setattr(JoinEngine, "apply_hop", exploding)
        with pytest.raises(RuntimeError, match="worker bug"):
            self.discover(drg)

    def test_fail_fast_fault(self, drg):
        with pytest.raises(InjectedFaultError):
            self.discover(
                drg, FaultInjector(failure_probability=1.0), failure_policy="fail_fast"
            )

    def test_error_budget_exceeded(self, drg):
        with pytest.raises(ErrorBudgetExceeded):
            self.discover(drg, FaultInjector(failure_probability=1.0), error_budget=0)

    def test_expired_run_budget(self, drg):
        result = self.discover(drg, HopLatency(0.05), budget_seconds=0.06)
        assert result.budget_exhausted

    def test_keyboard_interrupt_in_the_merge_loop(self, drg, monkeypatch):
        def interrupted(self, names, matrix):
            raise KeyboardInterrupt

        monkeypatch.setattr(StreamingFeatureSelector, "process_batch", interrupted)
        with pytest.raises(KeyboardInterrupt):
            self.discover(drg)
