"""Resumable trial-matrix execution over a process pool.

The runner walks an :class:`~repro.exp.spec.ExperimentSpec`'s trial list
in its deterministic expansion order, executes each trial in a worker
process (or inline with ``workers=0``), and appends a
:class:`~repro.exp.store.TrialRecord` to the store **as each trial
finishes** — so a sweep killed at any point keeps everything it
completed, and ``resume`` re-executes only the fingerprints without a
completed record.

Failure isolation reuses the :mod:`repro.engine.faults` policies: one
crashed or timed-out trial is recorded on the run's
:class:`~repro.engine.FailureReport` under ``skip_and_record`` (the
default), retried under ``retry``, and raised as
:class:`~repro.exp.errors.TrialFailed` under ``fail_fast``.  The per-run
error budget bounds degradation exactly as it does for join hops.

Per-trial wall-clock timeouts are enforced by the parent against worker
futures, so they hold even when a trial wedges somewhere no cooperative
check runs.  A timed-out worker cannot be interrupted mid-task (it
occupies its slot until the trial returns, and is abandoned at shutdown);
the *run* keeps going on the remaining workers either way.  Inline
execution (``workers=0``) has no preemption, so there timeouts are
detected post-hoc and recorded, which keeps resume/report semantics
identical across backends.
"""

from __future__ import annotations

import time
import uuid
from concurrent.futures import FIRST_COMPLETED, ProcessPoolExecutor, wait
from dataclasses import dataclass, field

from ..engine.faults import FailureReport, FaultManager
from ..obs.manifest import git_revision
from .errors import TrialFailed
from .spec import ExperimentSpec, TrialSpec
from .store import ResultsStore, TrialRecord

__all__ = ["ExperimentRunResult", "run_experiment", "new_run_id"]

#: Statuses that make a fingerprint "complete" for resume purposes —
#: infeasible is deterministic (e.g. JoinAll ordering explosion), so
#: re-running it would burn the same wall-clock for the same answer.
RESUME_COMPLETE_STATUSES = ("ok", "infeasible")


def new_run_id(prefix: str = "run") -> str:
    """A unique id for one runner invocation (sortable by start time)."""
    return f"{prefix}-{time.strftime('%Y%m%d-%H%M%S')}-{uuid.uuid4().hex[:6]}"


def _execute_trial(payload: dict) -> dict:
    """Worker entry point: run one trial, return a serialisable outcome.

    Never raises — exceptions become a ``status="failed"`` payload so the
    parent can apply the failure policy uniformly for inline and pooled
    execution.
    """
    try:
        trial = TrialSpec.from_dict(payload["trial"])
        inject = float(payload.get("inject_hop_latency", 0.0))

        from ..bench.harness import BenchProfile, build_setting, run_method
        from ..bench.manifests import manifest_problems
        from ..datasets import build_dataset
        from ..engine import HopLatency

        profile = BenchProfile(
            datasets=(trial.dataset,),
            models=(trial.model,),
            methods=(trial.method,),
            seed=trial.seed,
            config=trial.build_config(),
        )
        started = time.perf_counter()
        bundle = build_dataset(trial.dataset)
        drg = build_setting(bundle, trial.setting)
        result = run_method(
            trial.method,
            drg,
            bundle,
            trial.model,
            profile,
            hop_hook=HopLatency(inject) if inject > 0 else None,
        )
        wall = time.perf_counter() - started
        if result is None:
            return {"status": "infeasible", "wall_seconds": wall}
        report = getattr(result, "failure_report", None)
        if report is not None and not report.ok:
            return {
                "status": "failed",
                "error_kind": "DegradedRun",
                "error": f"trial degraded: {report.describe()}",
                "wall_seconds": wall,
            }
        manifest = result.run_manifest
        problems = manifest_problems(manifest)
        if problems:
            return {
                "status": "failed",
                "error_kind": "InvalidManifest",
                "error": "; ".join(problems),
                "wall_seconds": wall,
            }
        return {
            "status": "ok",
            "wall_seconds": wall,
            "accuracy": result.accuracy,
            "row": result.row(),
            "manifest": manifest.as_dict(),
            "stage_seconds": {
                name: round(seconds, 6)
                for name, seconds in manifest.stage_seconds().items()
            },
        }
    except Exception as exc:  # noqa: BLE001 — policy is applied by the parent
        return {
            "status": "failed",
            "error_kind": type(exc).__name__,
            "error": str(exc),
            "wall_seconds": 0.0,
        }


@dataclass(frozen=True)
class ExperimentRunResult:
    """Outcome of one ``run_experiment`` invocation."""

    run_id: str
    experiment: str
    n_planned: int
    n_skipped_resume: int
    n_executed: int
    n_ok: int
    n_infeasible: int
    n_failed: int
    n_timeout: int
    wall_seconds: float
    failure_report: FailureReport = field(default_factory=FailureReport)
    records: tuple[TrialRecord, ...] = ()

    @property
    def ok(self) -> bool:
        return self.n_failed == 0 and self.n_timeout == 0

    def summary(self) -> str:
        return (
            f"run {self.run_id} [{self.experiment}]: "
            f"planned={self.n_planned} skipped(resume)={self.n_skipped_resume} "
            f"executed={self.n_executed} ok={self.n_ok} "
            f"infeasible={self.n_infeasible} failed={self.n_failed} "
            f"timeout={self.n_timeout} in {self.wall_seconds:.1f}s"
        )


def _record_from(
    trial: TrialSpec,
    run_id: str,
    git_rev: str,
    payload: dict,
    retries: int,
) -> TrialRecord:
    return TrialRecord(
        fingerprint=trial.fingerprint,
        run_id=run_id,
        experiment=trial.experiment,
        dataset=trial.dataset,
        setting=trial.setting,
        method=trial.method,
        model=trial.model,
        config_name=trial.config_name,
        config_hash=trial.config_hash,
        seed=trial.seed,
        status=payload["status"],
        git_rev=git_rev,
        created_at=time.strftime("%Y-%m-%dT%H:%M:%S%z"),
        created_unix=time.time(),
        wall_seconds=float(payload.get("wall_seconds", 0.0)),
        accuracy=payload.get("accuracy"),
        stage_seconds=dict(payload.get("stage_seconds", {})),
        error_kind=payload.get("error_kind", ""),
        error=payload.get("error", ""),
        retries=retries,
    )


class _TrialState:
    """Mutable bookkeeping for one pending trial (attempts used so far)."""

    __slots__ = ("trial", "attempts")

    def __init__(self, trial: TrialSpec):
        self.trial = trial
        self.attempts = 0


def run_experiment(
    spec: ExperimentSpec,
    store: ResultsStore,
    *,
    resume: bool = False,
    run_id: str | None = None,
    workers: int | None = None,
    max_trials: int | None = None,
    timeout_seconds: float | None = None,
    inject_hop_latency: float = 0.0,
    progress=None,
) -> ExperimentRunResult:
    """Execute (part of) a spec's trial matrix against a store.

    Parameters
    ----------
    resume:
        Skip every trial whose fingerprint already has a completed
        (``ok`` / ``infeasible``) record for this experiment.
    workers:
        Worker processes; ``0``/``None`` falls back to ``spec.workers``,
        and ``0`` means inline single-process execution.
    max_trials:
        Stop after executing this many trials — the deterministic stand-in
        for a mid-sweep kill that tests and ``scripts/exp_smoke.sh`` use.
    timeout_seconds:
        Per-trial wall-clock budget (``None`` = the spec's).
    inject_hop_latency:
        Extra per-hop engine latency (seconds) injected into every
        AutoFeat trial as a :class:`~repro.engine.HopLatency` hop hook,
        *without* entering its fingerprint — an execution-environment
        perturbation for exercising the regression gate.
    progress:
        Optional callable receiving one line per trial outcome.
    """
    run_id = run_id or new_run_id()
    workers = spec.workers if workers is None else workers
    timeout = spec.timeout_seconds if timeout_seconds is None else timeout_seconds
    git_rev = git_revision()
    say = progress or (lambda line: None)

    trials = spec.trials()
    done: set[str] = set()
    if resume:
        done = {
            r.fingerprint
            for r in store.query(experiment=spec.name)
            if r.status in RESUME_COMPLETE_STATUSES
        }
    pending = [t for t in trials if t.fingerprint not in done]
    n_skipped = len(trials) - len(pending)
    if max_trials is not None:
        pending = pending[:max_trials]

    manager = FaultManager(
        policy=spec.failure_policy,
        error_budget=spec.error_budget,
        max_retries=spec.max_retries,
        stage="experiment",
    )
    max_attempts = 1 + (spec.max_retries if spec.failure_policy == "retry" else 0)

    records: list[TrialRecord] = []
    counts = {"ok": 0, "infeasible": 0, "failed": 0, "timeout": 0}
    started = time.perf_counter()

    def payload_for(state: _TrialState) -> dict:
        return {
            "trial": state.trial.as_dict(),
            "inject_hop_latency": inject_hop_latency,
        }

    def settle(state: _TrialState, payload: dict) -> bool:
        """Apply the failure policy to one outcome; True = retry the trial."""
        status = payload["status"]
        if status in ("ok", "infeasible"):
            record = _record_from(
                state.trial, run_id, git_rev, payload, retries=state.attempts - 1
            )
            store.append(record, payload.get("manifest"))
            records.append(record)
            counts[status] += 1
            say(f"  {status:<10} {state.trial.label} ({record.wall_seconds:.2f}s)")
            return False
        failure = TrialFailed(
            f"trial {state.trial.label} {status}: "
            f"{payload.get('error_kind', '')} {payload.get('error', '')}".strip()
        )
        if spec.failure_policy == "fail_fast":
            raise failure
        if state.attempts < max_attempts:
            return True
        record = _record_from(
            state.trial, run_id, git_rev, payload, retries=state.attempts - 1
        )
        store.append(record, None)
        records.append(record)
        counts[status] += 1
        say(f"  {status:<10} {state.trial.label}: {payload.get('error', '')}")
        # Recorded failures count against the run's error budget exactly
        # like join-hop failures do (raises ErrorBudgetExceeded past it).
        manager.record(failure, base=state.trial.dataset, path=state.trial.label)
        return False

    say(
        f"run {run_id} [{spec.name}]: {len(pending)} of {len(trials)} trials "
        f"to execute ({n_skipped} already complete)"
        + (f", workers={workers}" if workers else ", inline")
    )

    if workers and workers > 0:
        _run_pooled(pending, payload_for, settle, workers, timeout)
    else:
        for trial in pending:
            state = _TrialState(trial)
            while True:
                state.attempts += 1
                payload = _execute_trial(payload_for(state))
                if (
                    payload["status"] == "ok"
                    and timeout
                    and payload["wall_seconds"] > timeout
                ):
                    # Inline execution cannot preempt; detect post-hoc so
                    # the record matches what the pool would have done.
                    payload = {
                        "status": "timeout",
                        "error_kind": "TrialTimeout",
                        "error": (
                            f"trial exceeded {timeout:.1f}s "
                            f"(took {payload['wall_seconds']:.1f}s)"
                        ),
                        "wall_seconds": payload["wall_seconds"],
                    }
                if not settle(state, payload):
                    break

    return ExperimentRunResult(
        run_id=run_id,
        experiment=spec.name,
        n_planned=len(trials),
        n_skipped_resume=n_skipped,
        n_executed=sum(counts.values()),
        n_ok=counts["ok"],
        n_infeasible=counts["infeasible"],
        n_failed=counts["failed"],
        n_timeout=counts["timeout"],
        wall_seconds=time.perf_counter() - started,
        failure_report=manager.report(),
        records=tuple(records),
    )


def _run_pooled(pending, payload_for, settle, workers: int, timeout: float | None):
    """Pool scheduler: bounded in-flight set with per-future deadlines.

    At most ``workers`` futures occupy a worker, so every submitted trial
    starts immediately and its deadline can be measured from submission.
    Timed-out futures are abandoned (their worker finishes the trial and
    the result is dropped) but keep counting against ``workers`` until
    they finish: a trial submitted beside them would queue inside the
    pool with its deadline already running.  Retries re-enter the queue.
    """
    queue = [_TrialState(t) for t in pending]
    pool = ProcessPoolExecutor(max_workers=workers)
    in_flight: dict = {}  # future -> (state, deadline)
    abandoned: set = set()  # timed-out futures whose worker is still busy
    try:
        while queue or in_flight:
            abandoned = {future for future in abandoned if not future.done()}
            while queue and len(in_flight) + len(abandoned) < workers:
                state = queue.pop(0)
                state.attempts += 1
                future = pool.submit(_execute_trial, payload_for(state))
                deadline = time.monotonic() + timeout if timeout else None
                in_flight[future] = (state, deadline)
            finished, _ = wait(
                in_flight, timeout=0.05, return_when=FIRST_COMPLETED
            )
            for future in finished:
                state, _ = in_flight.pop(future)
                if settle(state, future.result()):
                    queue.append(state)
            now = time.monotonic()
            for future in list(in_flight):
                state, deadline = in_flight[future]
                if deadline is not None and now > deadline and not future.done():
                    future.cancel()
                    in_flight.pop(future)
                    abandoned.add(future)
                    payload = {
                        "status": "timeout",
                        "error_kind": "TrialTimeout",
                        "error": f"trial exceeded {timeout:.1f}s",
                        "wall_seconds": float(timeout),
                    }
                    if settle(state, payload):
                        queue.append(state)
    finally:
        # Don't block the run on abandoned (timed-out) workers; they exit
        # once their current trial returns.  (No `with` block: the context
        # manager's shutdown(wait=True) would join them.)
        pool.shutdown(wait=False, cancel_futures=True)
