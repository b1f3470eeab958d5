"""Unit tests for the fault-isolation layer: injector, budgets, manager."""

import pickle

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.dataframe import Table
from repro.engine import FailureReport, FaultManager, JoinEngine
from repro.errors import ConfigError, ErrorBudgetExceeded, FaultError, JoinError
from repro.graph import DatasetRelationGraph, KFKConstraint, OrientedEdge

from tests.conftest import error_budget
from tests.fault_hooks import FaultInjector, HopBudgetExceeded, InjectedFaultError


def tiny_drg(n=50, seed=0):
    rng = np.random.default_rng(seed)
    ids = np.arange(n)
    base = Table(
        {"id": ids, "x": rng.normal(0, 1, n), "label": rng.integers(0, 2, n)},
        name="base",
    )
    sat = Table({"id": ids, "y": rng.normal(0, 1, n)}, name="sat")
    return DatasetRelationGraph.from_constraints(
        [base, sat], [KFKConstraint("base", "id", "sat", "id")]
    )


@pytest.fixture()
def drg():
    return tiny_drg()


@pytest.fixture()
def edge(drg):
    return drg.best_join_options("base", "sat")[0]


class TestFaultInjector:
    def test_deterministic_across_instances(self, edge):
        kinds = [
            FaultInjector(failure_probability=0.5, seed=s).fault_kind(edge)
            for s in range(20)
        ]
        again = [
            FaultInjector(failure_probability=0.5, seed=s).fault_kind(edge)
            for s in range(20)
        ]
        assert kinds == again
        assert any(k == "failure" for k in kinds)
        assert any(k is None for k in kinds)

    def test_probability_zero_never_fires(self, edge):
        injector = FaultInjector(failure_probability=0.0, seed=0)
        for __ in range(5):
            injector.check(edge)  # must not raise

    def test_probability_one_always_fires_typed(self, edge):
        injector = FaultInjector(failure_probability=1.0, seed=0)
        with pytest.raises(InjectedFaultError):
            injector.check(edge)

    def test_timeout_kind_raises_hop_budget_exceeded(self, edge):
        injector = FaultInjector(timeout_probability=1.0, seed=0)
        assert injector.fault_kind(edge) == "timeout"
        with pytest.raises(HopBudgetExceeded):
            injector.check(edge)

    @settings(max_examples=60, deadline=None)
    @given(
        seed=st.integers(0, 50),
        calls=st.lists(st.integers(0, 3), min_size=1, max_size=12),
        order=st.randoms(use_true_random=False),
    )
    def test_check_is_a_pure_function_of_seed_and_edge(self, seed, calls, order):
        """Call order, repeats and a pickle round trip change nothing."""
        edges = [
            OrientedEdge("base", f"t{i}", "id", "id", 1.0) for i in range(4)
        ]
        kwargs = dict(failure_probability=0.4, timeout_probability=0.2, seed=seed)

        def outcome(injector, call):
            try:
                injector(edges[call])
            except FaultError as exc:
                return type(exc).__name__, str(exc)
            return None

        fresh = {call: outcome(FaultInjector(**kwargs), call) for call in calls}
        used = FaultInjector(**kwargs)
        shuffled = calls * 2
        order.shuffle(shuffled)
        for call in shuffled:
            assert outcome(used, call) == fresh[call]
        copy = pickle.loads(pickle.dumps(used))
        assert [outcome(copy, call) for call in calls] == [fresh[c] for c in calls]

    def test_invalid_probabilities_rejected(self):
        with pytest.raises(ConfigError):
            FaultInjector(failure_probability=1.5)
        with pytest.raises(ConfigError):
            FaultInjector(failure_probability=0.7, timeout_probability=0.7)


class TestEngineHopBudgets:
    """A fault the hop hook raises reaches the caller typed, with context."""

    def test_injector_fault_carries_hop_context(self, drg, edge):
        engine = JoinEngine(
            drg,
            seed=0,
            hop_hook=FaultInjector(failure_probability=1.0, seed=0),
        )
        with pytest.raises(InjectedFaultError) as excinfo:
            engine.apply_hop(drg.table("base"), edge, "base")
        message = str(excinfo.value)
        assert "injected join failure" in message
        assert "base='base'" in message
        assert "base.id -> sat.id" in message

    def test_budget_errors_are_fault_not_join_errors(self):
        assert issubclass(HopBudgetExceeded, FaultError)
        assert issubclass(InjectedFaultError, FaultError)
        assert issubclass(ErrorBudgetExceeded, FaultError)
        assert not issubclass(FaultError, JoinError)


class TestFaultManager:
    def test_skip_and_record_returns_none_and_records(self, edge):
        manager = FaultManager("test")

        def boom():
            raise HopBudgetExceeded("too big")

        assert manager.execute(boom, base="base", edge=edge) is None
        report = manager.report()
        assert report.n_failures == 1
        record = report.records[0]
        assert record.error_kind == "HopBudgetExceeded"
        assert record.stage == "test"
        assert record.edge == "base.id->sat.id"

    def test_unmanaged_kinds_propagate(self):
        # Only the JoinError / FaultError family is recorded; a bug is not.
        manager = FaultManager()

        def boom():
            raise ValueError("a bug, not a failing hop")

        with pytest.raises(ValueError):
            manager.execute(boom)
        assert manager.n_failures == 0

    def test_successful_fn_passes_through(self):
        manager = FaultManager()
        assert manager.execute(lambda: 42) == 42
        assert manager.report().ok

    def test_unknown_policy_rejected(self):
        """Every policy is: a manager skips and records, up to the budget."""
        with pytest.raises(TypeError):
            FaultManager(policy="fail_fast")
        with pytest.raises(TypeError):
            FaultManager(error_budget=2)

    def test_error_budget_exhaustion_aborts(self):
        manager = FaultManager()

        def boom():
            raise JoinError("boom")

        with error_budget(2):
            manager.execute(boom)
            manager.execute(boom)
            with pytest.raises(ErrorBudgetExceeded, match="exceed the budget of 2"):
                manager.execute(boom)


class TestFailureReport:
    def test_empty_report_describe(self):
        report = FailureReport()
        assert report.ok
        assert report.describe() == "none"

    def test_by_kind_and_describe(self):
        manager = FaultManager("s")

        def join_boom():
            raise JoinError("a")

        def budget_boom():
            raise HopBudgetExceeded("b")

        manager.execute(join_boom)
        manager.execute(join_boom)
        manager.execute(budget_boom)
        report = manager.report()
        assert report.by_kind() == {"JoinError": 2, "HopBudgetExceeded": 1}
        assert report.describe() == (
            "3 recorded (HopBudgetExceeded x1, JoinError x2), budget 3/64"
        )

    def test_merged_concatenates_records(self):
        a = FaultManager("a")
        b = FaultManager("b")

        def boom():
            raise JoinError("x")

        a.execute(boom)
        b.execute(boom)
        merged = a.report().merged(b.report())
        assert merged.n_failures == 2
        assert [r.stage for r in merged.records] == ["a", "b"]
