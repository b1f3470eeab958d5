"""PathExecutor hand-off: in task order, one outcome at a time.

The training wave is the executor's only client: ``train_top_k`` merges
while units execute, so *when* the executor runs a unit is part of its
contract: the ``serial`` backend must not run unit *i+1* before outcome
*i* was consumed (that is what makes ``fail_fast`` stop at the first
failing unit), while the pool may run ahead but must still hand
back in task order, surface worker bugs on the coordinator and abandon
what is still queued when the consumer stops.
"""

import multiprocessing
import os
import time
from dataclasses import replace

import pytest

from repro.core import AutoFeat, AutoFeatConfig
from repro.engine import JoinEngine, PathExecutor, PathTask, resolve_max_workers
from repro.errors import ErrorBudgetExceeded
from repro.graph import JoinPath

from tests.core.test_parallel_faults import diamond_lake
from tests.fault_hooks import FaultInjector, HopLatency, InjectedFaultError

POOLS = ("processes",)


@pytest.fixture(scope="module")
def drg():
    return diamond_lake(n=120)


def path_tasks(drg, n=4):
    """``n`` independent one-hop training units, alternating base->a / base->b."""
    edges = [drg.best_join_options("base", target)[0] for target in ("a", "b")]
    return [
        PathTask(
            index=i,
            path=JoinPath("base").extend(edges[i % 2]),
            selected_features=(),
            base_name="base",
            label_column="label",
            model_name="knn",
        )
        for i in range(n)
    ]


@pytest.fixture
def hop_calls(monkeypatch):
    """Targets of every ``probe_hop`` call (every hop enters there), in
    call order."""
    calls = []
    original = JoinEngine.probe_hop

    def counting(self, current, edge, base_name, **kwargs):
        calls.append(edge.target)
        return original(self, current, edge, base_name, **kwargs)

    monkeypatch.setattr(JoinEngine, "probe_hop", counting)
    return calls


class TestSerialHandOff:
    def test_next_unit_runs_only_after_outcome_consumed(self, drg, hop_calls):
        executor = PathExecutor(JoinEngine(drg), backend="serial")
        outcomes = executor.run_paths(path_tasks(drg))
        assert hop_calls == []  # nothing runs before the first outcome is asked for
        for consumed in range(1, 5):
            outcome = next(outcomes)
            assert outcome.index == consumed - 1
            assert outcome.error is None
            assert len(hop_calls) == consumed
        assert list(outcomes) == []

    def test_rest_is_abandoned_when_consumer_stops(self, drg, hop_calls):
        executor = PathExecutor(JoinEngine(drg), backend="serial")
        outcomes = executor.run_paths(path_tasks(drg))
        next(outcomes)
        outcomes.close()
        assert hop_calls == ["a"]
        # The units that did run are still accounted for.
        assert executor.busy_seconds > 0.0
        assert executor.parallel_wall_seconds >= executor.busy_seconds

    def test_accounting_excludes_the_consumers_merge_time(self, drg):
        executor = PathExecutor(JoinEngine(drg), backend="serial")
        started = time.perf_counter()
        for __ in executor.run_paths(path_tasks(drg)):
            time.sleep(0.02)  # the coordinator's merge work
        elapsed = time.perf_counter() - started
        assert 0.0 < executor.busy_seconds <= executor.parallel_wall_seconds
        assert executor.parallel_wall_seconds < elapsed - 4 * 0.02

    def test_injected_fault_stops_a_unit_before_any_join(self, drg):
        engine = JoinEngine(drg, hop_hook=FaultInjector(failure_probability=1.0))
        executor = PathExecutor(engine, backend="serial")
        for outcome in executor.run_paths(path_tasks(drg, n=2)):
            assert isinstance(outcome.error, InjectedFaultError)
            assert outcome.stats.hops_executed == 0


@pytest.mark.parametrize("backend", POOLS)
class TestPoolHandOff:
    def test_outcomes_in_task_order_whatever_finishes_first(
        self, drg, backend, monkeypatch
    ):
        original = JoinEngine.probe_hop

        def first_unit_is_slowest(self, current, edge, base_name, **kwargs):
            if edge.target == "a":
                time.sleep(0.05)
            return original(self, current, edge, base_name, **kwargs)

        monkeypatch.setattr(JoinEngine, "probe_hop", first_unit_is_slowest)
        tasks = path_tasks(drg)
        with PathExecutor(JoinEngine(drg), backend=backend) as executor:
            outcomes = list(executor.run_paths(tasks))
        assert [o.index for o in outcomes] == [0, 1, 2, 3]
        for task, outcome in zip(tasks, outcomes):
            table, __, __ = outcome.value
            prefix = task.path.terminal + "."
            assert any(name.startswith(prefix) for name in table.column_names)
        assert executor.busy_seconds > 0.0 and executor.parallel_wall_seconds > 0.0

    def test_unexpected_worker_exception_reraises_on_coordinator(
        self, drg, backend, monkeypatch
    ):
        def exploding(self, current, edge, base_name, **kwargs):
            raise RuntimeError("worker bug: corrupted index")

        monkeypatch.setattr(JoinEngine, "probe_hop", exploding)
        with PathExecutor(JoinEngine(drg), backend=backend) as executor:
            with pytest.raises(RuntimeError, match="worker bug"):
                list(executor.run_paths(path_tasks(drg)))

    def test_queued_units_are_abandoned_when_consumer_stops(
        self, drg, backend, monkeypatch, tmp_path
    ):
        # The pool twin of TestSerialHandOff.test_rest_is_abandoned_...:
        # every executed unit leaves a line in a file the forked workers
        # share, so the count is exact whatever the machine's speed.
        ran = tmp_path / "ran"
        original = JoinEngine.probe_hop

        def logged_slow_hop(self, current, edge, base_name, **kwargs):
            with ran.open("a") as log:
                log.write(edge.target + "\n")
            time.sleep(0.05)
            return original(self, current, edge, base_name, **kwargs)

        monkeypatch.setattr(JoinEngine, "probe_hop", logged_slow_hop)
        tasks = path_tasks(drg, n=16)
        executor = PathExecutor(JoinEngine(drg), backend=backend)
        outcomes = executor.run_paths(tasks)
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


class TestPoolIsGoneWhenTrainingEnds:
    """However the training wave ends, it leaves no worker process behind.

    Discovery runs without the hook, so every failure lands in the pool.
    """

    def train(self, drg, hop_hook=None, **overrides):
        config = AutoFeatConfig(
            sample_size=100, parallel_backend="processes", **overrides
        )
        # Without the wall-clock budget: discovery must rank paths.
        unbudgeted = replace(config, budget_seconds=None)
        discovery = AutoFeat(drg, unbudgeted).discover("base", "label")
        assert discovery.ranked_paths
        before = set(multiprocessing.active_children())
        try:
            autofeat = AutoFeat(drg, config, hop_hook=hop_hook)
            return autofeat.train_top_k(discovery, model_name="knn")
        finally:
            assert set(multiprocessing.active_children()) <= before

    def test_unexpected_worker_exception(self, drg, monkeypatch):
        def exploding(self, path, base_table):
            raise RuntimeError("worker bug: corrupted index")

        monkeypatch.setattr(JoinEngine, "materialize_path", exploding)
        with pytest.raises(RuntimeError, match="worker bug"):
            self.train(drg)

    def test_fail_fast_fault(self, drg):
        with pytest.raises(InjectedFaultError):
            self.train(
                drg, FaultInjector(failure_probability=1.0), failure_policy="fail_fast"
            )

    def test_error_budget_exceeded(self, drg):
        with pytest.raises(ErrorBudgetExceeded):
            self.train(drg, FaultInjector(failure_probability=1.0), error_budget=0)

    def test_expired_run_budget(self, drg):
        result = self.train(drg, HopLatency(0.1), budget_seconds=0.06)
        assert result.budget_exhausted

    def test_keyboard_interrupt_in_the_merge_loop(self, drg, monkeypatch):
        def interrupted(task, outcome, faults):
            raise KeyboardInterrupt

        monkeypatch.setattr("repro.core.autofeat.settle_outcome", interrupted)
        with pytest.raises(KeyboardInterrupt):
            self.train(drg)

