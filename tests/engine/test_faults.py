"""Unit tests for the fault-isolation layer: injector, budgets, manager."""

import pickle

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.dataframe import Table
from repro.engine import (
    FailureReport,
    FaultInjector,
    FaultManager,
    JoinEngine,
)
from repro.errors import (
    ConfigError,
    ErrorBudgetExceeded,
    FaultError,
    HopBudgetExceeded,
    InjectedFaultError,
    JoinError,
)
from repro.graph import DatasetRelationGraph, KFKConstraint, OrientedEdge


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

    def test_recover_after_makes_fault_transient(self, edge):
        injector = FaultInjector(
            failure_probability=1.0, seed=0, recover_after=2
        )
        injector.check(edge, 2)  # the third attempt recovers, whenever asked
        for attempt in (1, 0, 1):
            with pytest.raises(InjectedFaultError):
                injector.check(edge, attempt)
        with pytest.raises(InjectedFaultError):
            injector(edge)  # the hop-hook spelling, attempt 0

    @settings(max_examples=60, deadline=None)
    @given(
        seed=st.integers(0, 50),
        recover_after=st.integers(0, 3),
        calls=st.lists(
            st.tuples(st.integers(0, 3), st.integers(0, 4)), min_size=1, max_size=12
        ),
        order=st.randoms(use_true_random=False),
    )
    def test_check_is_a_pure_function_of_seed_edge_attempt(
        self, seed, recover_after, calls, order
    ):
        """Call order, repeats and a pickle round trip change nothing."""
        edges = [
            OrientedEdge("base", f"t{i}", "id", "id", 1.0) for i in range(4)
        ]
        kwargs = dict(
            failure_probability=0.4,
            timeout_probability=0.2,
            seed=seed,
            recover_after=recover_after,
        )

        def outcome(injector, call):
            try:
                injector.check(edges[call[0]], call[1])
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
    def test_row_cap_raises_typed_error_with_context(self, drg, edge):
        engine = JoinEngine(drg, seed=0, max_output_rows=10)
        with pytest.raises(HopBudgetExceeded) as excinfo:
            engine.apply_hop(drg.table("base"), edge, "base")
        message = str(excinfo.value)
        assert "max_output_rows=10" in message
        assert "base.id -> sat.id" in message

    def test_row_cap_allows_bounded_hops(self, drg, edge):
        engine = JoinEngine(drg, seed=0, max_output_rows=50)
        joined, contributed = engine.apply_hop(drg.table("base"), edge, "base")
        assert "sat.y" in contributed
        assert joined.n_rows == 50

    def test_wall_clock_budget_raises_typed_error(self, drg, edge):
        # A zero budget is exceeded by any real hop: the cooperative check
        # fires after the work and raises instead of letting a run hang
        # hop after hop.
        engine = JoinEngine(drg, seed=0, hop_timeout_seconds=0.0)
        with pytest.raises(HopBudgetExceeded) as excinfo:
            engine.apply_hop(drg.table("base"), edge, "base")
        assert "wall-clock budget" in str(excinfo.value)

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

    def test_budget_errors_are_fault_not_join_errors(self):
        assert issubclass(HopBudgetExceeded, FaultError)
        assert issubclass(InjectedFaultError, FaultError)
        assert issubclass(ErrorBudgetExceeded, FaultError)
        assert not issubclass(FaultError, JoinError)


class TestFaultManager:
    def test_fail_fast_propagates(self):
        manager = FaultManager(policy="fail_fast")

        def boom(attempt):
            raise JoinError("boom")

        with pytest.raises(JoinError):
            manager.execute(boom, stage="test")
        assert manager.n_failures == 0

    def test_skip_and_record_returns_none_and_records(self, edge):
        manager = FaultManager(policy="skip_and_record", stage="test")

        def boom(attempt):
            raise HopBudgetExceeded("too big")

        assert manager.execute(boom, base="base", edge=edge) is None
        report = manager.report()
        assert report.n_failures == 1
        record = report.records[0]
        assert record.error_kind == "HopBudgetExceeded"
        assert record.stage == "test"
        assert record.edge == "base.id->sat.id"
        assert record.retries == 0

    def test_unmanaged_kinds_propagate(self):
        manager = FaultManager(policy="skip_and_record")

        def boom(attempt):
            raise JoinError("prune me instead")

        with pytest.raises(JoinError):
            manager.execute(boom, kinds=(FaultError,))
        assert manager.n_failures == 0

    def test_successful_fn_passes_through(self):
        manager = FaultManager(policy="skip_and_record")
        assert manager.execute(lambda attempt: 42) == 42
        assert manager.report().ok

    def test_error_budget_exhaustion_aborts(self):
        manager = FaultManager(policy="skip_and_record", error_budget=2)

        def boom(attempt):
            raise JoinError("boom")

        manager.execute(boom)
        manager.execute(boom)
        with pytest.raises(ErrorBudgetExceeded):
            manager.execute(boom)

    def test_retry_recovers_transient_failures(self):
        manager = FaultManager(policy="retry", max_retries=2)
        attempts = []

        def flaky(attempt):
            attempts.append(1)
            if len(attempts) < 3:
                raise JoinError("transient")
            return "ok"

        assert manager.execute(flaky) == "ok"
        assert len(attempts) == 3
        assert manager.report().ok

    def test_retry_respects_budget_then_records(self):
        manager = FaultManager(policy="retry", max_retries=2)
        attempts = []

        def always_bad(attempt):
            attempts.append(1)
            raise JoinError("permanent")

        assert manager.execute(always_bad) is None
        assert len(attempts) == 3  # 1 try + 2 retries, no more
        record = manager.report().records[0]
        assert record.retries == 2

    def test_unknown_policy_rejected(self):
        with pytest.raises(ConfigError):
            FaultManager(policy="shrug")


class TestFailureReport:
    def test_empty_report_describe(self):
        report = FailureReport(policy="skip_and_record")
        assert report.ok
        assert "none" in report.describe()

    def test_by_kind_and_describe(self):
        manager = FaultManager(policy="skip_and_record", stage="s")

        def join_boom(attempt):
            raise JoinError("a")

        def budget_boom(attempt):
            raise HopBudgetExceeded("b")

        manager.execute(join_boom)
        manager.execute(join_boom)
        manager.execute(budget_boom)
        report = manager.report()
        assert report.by_kind() == {"JoinError": 2, "HopBudgetExceeded": 1}
        assert "JoinError x2" in report.describe()

    def test_merged_concatenates_records(self):
        a = FaultManager(policy="skip_and_record", stage="a")
        b = FaultManager(policy="skip_and_record", stage="b")

        def boom(attempt):
            raise JoinError("x")

        a.execute(boom)
        b.execute(boom)
        merged = a.report().merged(b.report())
        assert merged.n_failures == 2
        assert [r.stage for r in merged.records] == ["a", "b"]
