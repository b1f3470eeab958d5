"""The training wave's work units, backends and ordered merge.

Discovery runs no work units: :meth:`repro.core.AutoFeat.discover` runs
each hop inline, on the phase's engine, in Algorithm 1's canonical order.
Only the top-k training wave goes through a :class:`PathExecutor`:

* **units execute pure work** — a :class:`PathTask` (one top-k
  materialise + evaluate) runs on a
  :meth:`~repro.engine.JoinEngine.worker_view` of the run's engine and
  returns a :class:`UnitOutcome` carrying the value, a private stats
  delta, its span tree and any *managed* error;
* **the coordinator merges in canonical order** — :class:`PathExecutor`
  hands outcomes over in task order, one at a time, regardless of
  completion order, so trained paths, the failure policy and its shared
  error budget advance only at the merge point, on the coordinating
  thread.

A unit runs once: its joins are deterministic and in memory, and the
engine's hop hook (the test seam) is a pure function of the edge, so
the outcome carries the managed error ``task.run(view)`` raised wherever
the unit landed.  :func:`settle_outcome` is the merge-side half: it
raises or records that error at the unit's canonical position.

Backends: ``serial`` runs each unit inline, only once the previous
outcome has been consumed; ``processes`` gives each worker process its
own engine + cache via a :class:`~concurrent.futures.ProcessPoolExecutor`
initializer (results identical; cache hit counters reflect the per-worker
caches).  The pool pays for itself on the training wave only (DESIGN.md
§11 has the measured numbers), which is why discovery never uses it.

Unexpected unit exceptions (anything outside ``JoinError`` /
``FaultError``) are never swallowed: they re-raise on the coordinating
thread during the in-order hand-off.
"""

from __future__ import annotations

import os
import time
from collections import deque
from dataclasses import dataclass, field
from functools import partial
from typing import TYPE_CHECKING, Iterator

from ..dataframe import Table
from ..errors import ConfigError, FaultError, JoinError, RunBudgetExceeded
from ..graph import JoinPath
from ..obs.tracer import Tracer
from .engine import JoinEngine
from .faults import FaultManager

if TYPE_CHECKING:
    from concurrent.futures import ProcessPoolExecutor

__all__ = [
    "PARALLEL_BACKENDS",
    "PathTask",
    "UnitOutcome",
    "PathExecutor",
    "resolve_max_workers",
    "settle_outcome",
]

#: The two execution backends the training wave can use.
#:
#: * ``serial`` — work units run inline on the coordinating thread, in
#:   canonical order, each only after the previous outcome was merged;
#: * ``processes`` — per-worker engines and caches behind pickled task
#:   payloads; results are identical, cache counters are per-worker.
PARALLEL_BACKENDS = ("serial", "processes")


def resolve_max_workers(backend: str) -> int:
    """The worker count a backend uses.

    ``serial`` is always 1; ``processes`` gets one worker per CPU this
    process may run on (its affinity mask, which honours cpusets and
    ``taskset``), not one per CPU of the machine.
    """
    if backend == "serial":
        return 1
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def settle_outcome(task, outcome: "UnitOutcome", faults: FaultManager):
    """Apply the run's failure policy to one unit at its merge position.

    Returns the unit's value, or None when its failure was recorded and
    the unit must be skipped: a managed error is raised under
    ``fail_fast`` and otherwise recorded, and :meth:`FaultManager.record`
    enforces the shared error budget here, at the canonical position.
    Errors outside the task's ``managed`` family re-raise for the driver:
    :class:`~repro.errors.RunBudgetExceeded` is graceful anytime
    exhaustion.
    """
    if outcome.error is None:
        return outcome.value
    if faults.policy == "fail_fast" or not isinstance(outcome.error, task.managed):
        raise outcome.error
    faults.record(outcome.error, **task.where())
    return None


# -- work units -------------------------------------------------------------


@dataclass
class PathTask:
    """One top-k training unit: materialise ``path`` fully and evaluate."""

    index: int
    path: JoinPath
    selected_features: tuple[str, ...]
    base_name: str
    label_column: str
    model_name: str
    seed: int = 0
    #: The coordinator's :class:`~repro.core.OutcomeMemo`, or None.  A
    #: memo holds a lock and cannot be pickled, so only units that run in
    #: the coordinator's process (``serial``) ever carry one.
    memo: object | None = None

    #: Full-table materialisation failing after the sampled discovery pass
    #: succeeded is a failure, not pruning: both families are managed.
    managed = (JoinError, FaultError)

    def where(self) -> dict:
        """Where a failure of this unit is recorded."""
        return {"base": self.base_name, "path": self.path}

    def run(self, engine: JoinEngine) -> tuple[Table, float, int]:
        """Materialise and train: ``(table, accuracy, n_features_used)``.

        With a memo, a fit whose exact arguments an earlier unit trained
        on is answered from its ``train`` namespace; a unit that faults
        before the fit stores nothing.
        """
        # Lazy import: repro.ml is a heavier dependency the hop path never needs.
        from ..ml import evaluate_accuracy, fit_key

        base = engine.drg.table(self.base_name)
        base_features = [n for n in base.column_names if n != self.label_column]
        tracer = engine.tracer
        with tracer.span("path", path=self.path.describe()):
            table, __ = engine.materialize_path(self.path, base)
            features = base_features + [
                f for f in self.selected_features if f in table
            ]
            fit = (table, self.label_column, self.model_name, features, self.seed)
            with tracer.span(
                "evaluate", model=self.model_name, features=len(features)
            ) as span:
                key = accuracy = None
                if self.memo is not None:
                    key = fit_key(*fit)
                    accuracy = self.memo.get("train", key)
                    if tracer.enabled:
                        span.attrs["memo_hit"] = accuracy is not None
                if accuracy is None:
                    accuracy = evaluate_accuracy(*fit)
                    if key is not None:
                        self.memo.put("train", key, accuracy)
        return table, accuracy, len(features)


@dataclass
class UnitOutcome:
    """What one work unit produced, in its canonical slot.

    ``value`` is what the task's ``run`` returned; ``error`` carries the
    ``JoinError`` / ``FaultError`` it raised or the
    :class:`RunBudgetExceeded` that aborted it.  ``stats`` counts its join
    work, up to the failing hop when there is one.
    """

    index: int
    value: tuple | None = None
    error: Exception | None = None
    stats: object | None = None
    spans: list[dict] = field(default_factory=list)
    busy_seconds: float = 0.0


def _run_unit(engine: JoinEngine, trace_spans: bool, task) -> UnitOutcome:
    """Every backend's unit body: fresh tracer + worker view per unit."""
    tracer = Tracer(enabled=trace_spans)
    view = engine.worker_view(tracer)
    started = time.perf_counter()
    value = error = None
    try:
        value = task.run(view)
    except (JoinError, FaultError, RunBudgetExceeded) as exc:
        # RunBudgetExceeded is carried back as the unit's outcome (not
        # re-raised through the pool): the coordinator decides at the
        # canonical merge point whether the run's budget has expired —
        # a unit-side trip is just an early abort of that unit's work.
        error = exc
    spans = [root.as_dict() for root in tracer.roots]
    # The unit's tracer is done: unhook its spans so the tracer <-> span
    # reference cycle does not wait for a cyclic garbage collection.
    tracer.roots.clear()
    return UnitOutcome(
        index=task.index,
        value=value,
        error=error,
        stats=view.snapshot(),
        spans=spans,
        busy_seconds=time.perf_counter() - started,
    )


# -- processes backend ------------------------------------------------------

#: ``(engine, trace_spans)`` of this worker process, installed
#: by :func:`_process_init`.  Module globals are how
#: ``ProcessPoolExecutor`` initializers hand state to worker functions;
#: the engine (and its cache) lives for the life of the worker process,
#: so repeated hops on one worker still reuse builds.
_WORKER: tuple[JoinEngine, bool] | None = None


def _process_init(drg, engine_kwargs: dict, trace_spans: bool) -> None:
    global _WORKER
    _WORKER = (JoinEngine(drg, **engine_kwargs), trace_spans)


def _process_unit(task) -> UnitOutcome:
    return _run_unit(*_WORKER, task)


# -- the executor -----------------------------------------------------------


class PathExecutor:
    """Runs work units on a configurable backend, handing back in task order.

    One executor spans one logical run, exactly like
    :class:`~repro.engine.JoinEngine`: construct it with the run's engine,
    feed it a wave of :class:`PathTask` units, and close it when the run
    ends.  Outcomes always come back in the order the
    tasks were submitted — the canonical enumeration order — no matter
    which worker finished first, which is the whole determinism contract.

    The executor also keeps the run's utilisation accounting:
    ``busy_seconds`` (summed unit durations) over
    ``parallel_wall_seconds`` (the time the coordinator spent executing
    or waiting for units, merge work excluded) is the
    :attr:`effective_speedup` the run manifest reports.
    """

    def __init__(
        self,
        engine: JoinEngine,
        backend: str = "serial",
        trace_spans: bool = False,
    ):
        if backend not in PARALLEL_BACKENDS:
            raise ConfigError(
                f"unknown parallel backend {backend!r}; "
                f"expected one of {list(PARALLEL_BACKENDS)}"
            )
        self.engine = engine
        self.backend = backend
        self.trace_spans = trace_spans
        self.workers_used = resolve_max_workers(backend)
        self.busy_seconds = 0.0
        self.parallel_wall_seconds = 0.0
        self._pool: ProcessPoolExecutor | None = None

    @property
    def rebase_spans(self) -> bool:
        """True when grafted worker spans need clock rebasing.

        ``perf_counter_ns`` stamps are only comparable within one process,
        so span trees returned by process workers must be shifted into the
        parent's clock before grafting.
        """
        return self.backend == "processes"

    @property
    def effective_speedup(self) -> float:
        """Unit-busy seconds per wall second spent executing units."""
        if self.parallel_wall_seconds <= 0.0:
            return 0.0
        return self.busy_seconds / self.parallel_wall_seconds

    def _ensure_pool(self):
        if self._pool is None:
            # Imported here, not at module level: only the opt-in
            # ``processes`` backend needs it, and it drags in
            # ``multiprocessing`` (DESIGN.md §3, the import rule).
            from concurrent.futures import ProcessPoolExecutor

            engine = self.engine
            engine_kwargs = {
                "seed": engine.seed,
                "hop_hook": engine.hop_hook,
                # monotonic deadlines are system-wide on Linux, so
                # worker processes can honour the coordinator's one.
                "run_deadline": engine.run_deadline,
            }
            self._pool = ProcessPoolExecutor(
                max_workers=self.workers_used,
                initializer=_process_init,
                initargs=(engine.drg, engine_kwargs, self.trace_spans),
            )
        return self._pool

    def run_paths(self, tasks: list[PathTask]) -> Iterator[UnitOutcome]:
        """Yield each training unit's outcome, in task order, one at a time.

        The hand-off is lazy so the coordinator's merge is interleaved
        with execution.  On ``serial`` unit *i+1* runs only after outcome
        *i* was consumed, so a consumer that stops — ``fail_fast``, an
        exhausted error budget — leaves the rest unexecuted.  The pool
        gets the whole wave submitted up front and is waited on in order
        (``future.result()`` re-raises unexpected worker exceptions
        here); what a stopped consumer leaves queued is cancelled by
        :meth:`close`.
        """
        resumed = time.perf_counter()
        pending: deque = deque()
        for task in tasks:
            if self.backend == "serial":
                pending.append(partial(_run_unit, self.engine, self.trace_spans, task))
            else:
                pending.append(self._ensure_pool().submit(_process_unit, task).result)
        while pending:
            outcome = pending.popleft()()
            self.busy_seconds += outcome.busy_seconds
            self.parallel_wall_seconds += time.perf_counter() - resumed
            yield outcome
            resumed = time.perf_counter()

    def close(self) -> None:
        """Shut the worker pool down, abandoning queued units (idempotent)."""
        if self._pool is not None:
            self._pool.shutdown(wait=True, cancel_futures=True)
            self._pool = None

    def __enter__(self) -> "PathExecutor":
        return self

    def __exit__(self, exc_type, exc, tb) -> bool:
        self.close()
        return False
