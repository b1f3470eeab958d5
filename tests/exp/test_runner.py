"""Runner semantics: execution, resume, failure policies and timeouts.

The real-trial tests run the smallest feasible matrix (credit on knn,
sample_size=300) inline; the policy tests monkeypatch the worker entry
point so every branch is exercised without touching the pipeline.
"""

import time

import pytest

from repro.engine.faults import ErrorBudgetExceeded
from repro.exp import (
    ExperimentSpec,
    ResultsStore,
    TrialFailed,
    new_run_id,
    run_experiment,
)
from repro.exp import runner as runner_module
from repro.obs import build_manifest

from .conftest import spec_dict


def ok_payload(valid_manifest: dict, *, wall: float = 0.01) -> dict:
    return {
        "status": "ok",
        "wall_seconds": wall,
        "accuracy": 0.9,
        "row": {},
        "manifest": valid_manifest,
        "stage_seconds": {"trial": wall},
    }


def sleepy_trial(payload: dict) -> dict:
    """Pool-worker stand-in for ``_execute_trial``: seed 1 overruns a 1 s
    timeout, seed 2 finishes well inside it (module level: picklable)."""
    time.sleep(2.5 if payload["trial"]["seed"] == 1 else 0.1)
    manifest = build_manifest("trial", wall_seconds=0.01, seed=1).as_dict()
    return ok_payload(manifest)


FAILED_PAYLOAD = {
    "status": "failed",
    "error_kind": "RuntimeError",
    "error": "boom",
    "wall_seconds": 0.0,
}


class TestNewRunId:
    def test_unique_and_prefixed(self):
        a, b = new_run_id(), new_run_id("exp")
        assert a != new_run_id()
        assert a.startswith("run-")
        assert b.startswith("exp-")


class TestRealTrials:
    """End-to-end on the real pipeline (smallest matrix, inline)."""

    def test_inline_run_and_resume(self, tmp_path, unit_spec):
        store = ResultsStore(tmp_path)
        result = run_experiment(unit_spec, store, run_id="first")
        assert result.ok
        assert (result.n_planned, result.n_executed, result.n_ok) == (2, 2, 2)
        assert result.n_skipped_resume == 0
        assert store.completed_fingerprints() == {
            t.fingerprint for t in unit_spec.trials()
        }
        for record in result.records:
            assert record.accuracy is not None
            assert record.stage_seconds
            assert store.load_manifest(record) is not None

        resumed = run_experiment(unit_spec, store, resume=True, run_id="second")
        assert resumed.n_skipped_resume == 2
        assert resumed.n_executed == 0

    def test_kill_and_resume_by_fingerprint(self, tmp_path, unit_spec):
        store = ResultsStore(tmp_path)
        killed = run_experiment(
            unit_spec, store, run_id="killed", max_trials=1
        )
        assert killed.n_executed == 1
        resumed = run_experiment(
            unit_spec, store, resume=True, run_id="resumed"
        )
        assert resumed.n_skipped_resume == 1
        assert resumed.n_executed == 1
        # The resumed trial is exactly the one the kill left unfinished.
        executed = {r.fingerprint for r in killed.records} | {
            r.fingerprint for r in resumed.records
        }
        assert executed == {t.fingerprint for t in unit_spec.trials()}

    def test_injection_does_not_change_fingerprints(self, tmp_path, unit_spec):
        store = ResultsStore(tmp_path)
        run_experiment(
            unit_spec,
            store,
            run_id="slow",
            max_trials=1,
            inject_hop_latency=0.01,
        )
        (record,) = store.records()
        assert record.fingerprint == unit_spec.trials()[0].fingerprint


class TestFailurePolicies:
    def spec(self, **overrides) -> ExperimentSpec:
        return ExperimentSpec.from_dict(spec_dict(**overrides))

    def test_fail_fast_raises(self, tmp_path, monkeypatch):
        monkeypatch.setattr(
            runner_module, "_execute_trial", lambda payload: dict(FAILED_PAYLOAD)
        )
        store = ResultsStore(tmp_path)
        with pytest.raises(TrialFailed, match="boom"):
            run_experiment(self.spec(failure_policy="fail_fast"), store)
        # fail_fast stops before recording the failing trial.
        assert store.records() == []

    def test_skip_and_record_keeps_going(self, tmp_path, monkeypatch):
        monkeypatch.setattr(
            runner_module, "_execute_trial", lambda payload: dict(FAILED_PAYLOAD)
        )
        store = ResultsStore(tmp_path)
        result = run_experiment(self.spec(), store)
        assert not result.ok
        assert result.n_failed == 2
        assert [r.status for r in store.records()] == ["failed", "failed"]
        assert not result.failure_report.ok
        assert len(result.failure_report.records) == 2

    def test_retry_then_success(self, tmp_path, monkeypatch, valid_manifest):
        calls = {"n": 0}

        def flaky(payload):
            calls["n"] += 1
            if calls["n"] == 1:
                return dict(FAILED_PAYLOAD)
            return ok_payload(valid_manifest)

        monkeypatch.setattr(runner_module, "_execute_trial", flaky)
        store = ResultsStore(tmp_path)
        result = run_experiment(
            self.spec(failure_policy="retry", max_retries=2, seeds=[1]), store
        )
        assert result.ok
        assert result.n_ok == 1
        (record,) = store.records()
        assert record.retries == 1

    def test_retry_exhaustion_records_failure(self, tmp_path, monkeypatch):
        calls = {"n": 0}

        def always_fails(payload):
            calls["n"] += 1
            return dict(FAILED_PAYLOAD)

        monkeypatch.setattr(runner_module, "_execute_trial", always_fails)
        store = ResultsStore(tmp_path)
        result = run_experiment(
            self.spec(failure_policy="retry", max_retries=2, seeds=[1]), store
        )
        assert calls["n"] == 3  # 1 attempt + 2 retries
        assert result.n_failed == 1
        (record,) = store.records()
        assert record.retries == 2

    def test_error_budget_bounds_degradation(self, tmp_path, monkeypatch):
        monkeypatch.setattr(
            runner_module, "_execute_trial", lambda payload: dict(FAILED_PAYLOAD)
        )
        store = ResultsStore(tmp_path)
        with pytest.raises(ErrorBudgetExceeded):
            run_experiment(
                self.spec(error_budget=1, seeds=[1, 2, 3]), store
            )
        # Every failure up to and including the budget breach was stored.
        assert len(store.records()) == 2

    def test_infeasible_recorded_and_resumable(self, tmp_path, monkeypatch):
        monkeypatch.setattr(
            runner_module,
            "_execute_trial",
            lambda payload: {"status": "infeasible", "wall_seconds": 0.0},
        )
        store = ResultsStore(tmp_path)
        spec = self.spec(seeds=[1])
        result = run_experiment(spec, store, run_id="first")
        assert result.ok
        assert result.n_infeasible == 1
        # Infeasible is deterministic: resume must not re-run it.
        resumed = run_experiment(spec, store, resume=True, run_id="again")
        assert resumed.n_skipped_resume == 1
        assert resumed.n_executed == 0


class TestTimeouts:
    def test_inline_post_hoc_timeout(self, tmp_path, monkeypatch, valid_manifest):
        monkeypatch.setattr(
            runner_module,
            "_execute_trial",
            lambda payload: ok_payload(valid_manifest, wall=5.0),
        )
        store = ResultsStore(tmp_path)
        spec = ExperimentSpec.from_dict(spec_dict(seeds=[1]))
        result = run_experiment(spec, store, timeout_seconds=0.5)
        assert result.n_timeout == 1
        assert not result.ok
        (record,) = store.records()
        assert record.status == "timeout"
        assert "exceeded 0.5s" in record.error
        assert store.load_manifest(record) is None


class TestPooledExecution:
    def test_pool_matches_inline(self, tmp_path, unit_spec):
        store = ResultsStore(tmp_path)
        result = run_experiment(unit_spec, store, workers=2, run_id="pooled")
        assert result.ok
        assert result.n_ok == 2
        assert store.completed_fingerprints() == {
            t.fingerprint for t in unit_spec.trials()
        }

    def test_timed_out_worker_still_counts_against_the_bound(
        self, tmp_path, monkeypatch
    ):
        """The abandoned seed-1 trial keeps the only worker busy; seed 2
        must wait for it rather than start its deadline in the pool queue."""
        monkeypatch.setattr(runner_module, "_execute_trial", sleepy_trial)
        store = ResultsStore(tmp_path)
        spec = ExperimentSpec.from_dict(spec_dict(seeds=[1, 2]))
        result = run_experiment(spec, store, workers=1, timeout_seconds=1)
        statuses = {r.seed: r.status for r in store.records()}
        assert statuses == {1: "timeout", 2: "ok"}
        assert (result.n_timeout, result.n_ok) == (1, 1)
