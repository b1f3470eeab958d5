"""Cooperative run-deadline enforcement inside hop execution.

A hop checks the run-level anytime deadline at entry and again between
its build and probe phases, raising ``RunBudgetExceeded`` — graceful
exhaustion, never a recorded hop failure.
"""

import time

import pytest

from repro.engine import JoinEngine
from repro.errors import RunBudgetExceeded
from repro.graph import JoinPath

from tests.core.test_parallel_faults import diamond_lake


class TestEngineRunDeadline:
    def test_apply_hop_rejects_expired_run_deadline(self):
        drg = diamond_lake()
        engine = JoinEngine(drg, run_deadline=time.monotonic() - 1.0)
        edge = drg.best_join_options("base", "a")[0]
        with pytest.raises(RunBudgetExceeded):
            engine.apply_hop(drg.table("base"), edge, "base")

    def test_apply_hop_run_deadline_not_a_recorded_failure(self):
        # RunBudgetExceeded is not a FaultError: the fault machinery must
        # not convert graceful expiry into a failure-report record.
        from repro.errors import FaultError

        assert not issubclass(RunBudgetExceeded, FaultError)

    def test_materialize_path_respects_run_deadline(self):
        drg = diamond_lake()
        engine = JoinEngine(drg, run_deadline=time.monotonic() - 1.0)
        path = JoinPath("base").extend(drg.best_join_options("base", "a")[0])
        with pytest.raises(RunBudgetExceeded):
            engine.materialize_path(path, drg.table("base"))
