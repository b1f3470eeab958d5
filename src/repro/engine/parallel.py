"""Join-path work units, their execution backends and the deterministic merge.

Algorithm 1 has one driver (:class:`repro.core.AutoFeat`): it enumerates
work units in canonical order, hands them to a :class:`PathExecutor` and
folds the outcomes back in exactly that order.  A hop's join depends only
on its probe-side table and its DRG edge, never on selection state, so
*where* a unit runs cannot change the result.  The split is:

* **units execute pure joins** — a :class:`HopTask` (one frontier hop) or
  :class:`PathTask` (one top-k materialise + evaluate) runs on a
  :meth:`~repro.engine.JoinEngine.worker_view` of the run's engine and
  returns a :class:`UnitOutcome` carrying the value, a private stats
  delta, its span tree and any *managed* error;
* **the coordinator merges in canonical order** — :class:`PathExecutor`
  hands outcomes over in task order, one at a time, regardless of
  completion order.  All order-sensitive state — streaming feature
  selection, ranking, frontier growth, the failure policy and its shared
  error budget — advances only at the merge point, on the coordinating
  thread.

Determinism of injected faults is preserved by resolving the
:class:`~repro.engine.FaultInjector` *at work-unit generation time* in
canonical order (:func:`plan_faults` replays the
``FaultManager.execute`` attempt loop against the real injector), so a unit is either pre-resolved to failure (never dispatched)
or carries the attempt index at which the injector passed.
:func:`settle_outcome` is the merge-side half: it applies the failure
policy to a unit's outcome and, when a dispatched unit failed with a
*real* managed error, continues the attempt loop
(:func:`settle_managed_failure`).

Backends: ``serial`` runs each unit inline, only once the previous
outcome has been consumed; ``processes`` gives each worker process its
own engine + cache via a :class:`~concurrent.futures.ProcessPoolExecutor`
initializer (results identical; cache hit counters reflect the per-worker
caches).  The pool pays for itself only on the training wave (DESIGN.md
§11 has the measured numbers).

Unexpected unit exceptions (anything outside ``JoinError`` /
``FaultError``) are never swallowed: they re-raise on the coordinating
thread during the in-order hand-off.
"""

from __future__ import annotations

import os
import time
from collections import deque
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field
from functools import partial
from typing import Iterator

from ..dataframe import Table
from ..errors import ConfigError, FaultError, JoinError, RunBudgetExceeded
from ..graph import JoinPath, OrientedEdge
from ..obs.tracer import Tracer
from .engine import JoinEngine, _hop_context
from .faults import FaultManager

__all__ = [
    "PARALLEL_BACKENDS",
    "FaultPlan",
    "HopTask",
    "PathTask",
    "UnitOutcome",
    "PathExecutor",
    "resolve_max_workers",
    "plan_faults",
    "settle_managed_failure",
    "settle_outcome",
]

#: The two execution backends a run can use.
#:
#: * ``serial`` — work units run inline on the coordinating thread, in
#:   canonical order, each only after the previous outcome was merged;
#: * ``processes`` — per-worker engines and caches behind pickled task
#:   payloads; results are identical, cache counters are per-worker.
PARALLEL_BACKENDS = ("serial", "processes")


def resolve_max_workers(backend: str, max_workers: int | None = None) -> int:
    """The worker count a backend actually uses (``None`` = auto).

    ``serial`` is always 1; the automatic choice for ``processes`` is
    the CPU count.
    """
    if backend == "serial":
        return 1
    if max_workers is not None:
        return max(1, max_workers)
    return os.cpu_count() or 1


# -- fault planning ---------------------------------------------------------


@dataclass
class FaultPlan:
    """Pre-resolved injector schedule for one work unit.

    Either the injector exhausted every attempt (``exception`` is set; the
    unit is never dispatched and the coordinator records/raises it at the
    unit's canonical merge position) or it passed at attempt
    ``passed_at`` (the unit is dispatched; ``passed_at`` seeds the retry
    accounting if the dispatched work then fails for real).
    """

    exception: Exception | None = None
    retries: int = 0
    passed_at: int = 0


def walk_injected_faults(
    injector, walked: JoinPath, edges, base_name: str
) -> Exception | None:
    """Simulate one attempt's injector checks along ``edges``.

    The engine used to consult the injector per edge, in order, aborting
    the attempt at the first raise and suffixing the message with the
    prefix ``walked`` so far (:func:`~repro.engine.engine._hop_context`).
    This replays exactly that against the real injector — advancing its
    per-edge attempt counters, which is what keeps transient faults
    (``recover_after``) deterministic across backends.  Returns the
    wrapped error of the first faulting edge, or None when the walk passes.
    """
    if injector is None:
        return None
    for edge in edges:
        try:
            injector.check(edge)
        except FaultError as exc:
            return type(exc)(f"{exc}; {_hop_context(base_name, walked, edge)}")
        walked = walked.extend(edge)
    return None


def plan_faults(injector, task, attempts: int) -> FaultPlan | None:
    """Pre-resolve the injected-fault sequence of one work unit.

    Replays the ``FaultManager.execute`` attempt loop against the real
    injector, in the unit's canonical position, so recorded messages and
    the injector's per-edge attempt counters are what a unit-by-unit loop
    would produce.  Returns None when no edge of the unit is faulty (the
    common case).
    """
    if injector is None or not injector.faulty_edges(task.edges):
        return None
    last: Exception | None = None
    for attempt in range(attempts):
        last = task.injected_fault(injector)
        if last is None:
            return FaultPlan(passed_at=attempt)
    return FaultPlan(exception=last, retries=attempts - 1)


def settle_managed_failure(
    *,
    attempts: int,
    passed_at: int,
    first_exc: Exception,
    simulate,
    rerun,
    kinds: tuple[type[Exception], ...],
):
    """Continue the attempt loop after a dispatched unit failed.

    The unit's attempt ``passed_at`` was executed and raised a *managed*
    error (``first_exc``).  ``FaultManager.execute`` would keep
    attempting: each remaining attempt first consults the injector
    (``simulate`` returns a wrapped error or None) and, on pass,
    re-executes the real work (``rerun``).  Returns ``(result, None)``
    when a re-attempt succeeds, or ``(None, (last_exc, retries))`` for
    the coordinator to record.  Exceptions outside ``kinds`` raised by
    ``rerun`` propagate (a discovery ``JoinError`` is pruning input, not
    a failure).
    """
    last, retries = first_exc, passed_at
    for attempt in range(passed_at + 1, attempts):
        exc = simulate()
        if exc is not None:
            last, retries = exc, attempt
            continue
        try:
            return rerun(), None
        except kinds as exc2:
            last, retries = exc2, attempt
    return None, (last, retries)


def settle_outcome(
    task, outcome: "UnitOutcome", *, engine: JoinEngine, injector, faults: FaultManager
):
    """Apply the run's failure policy to one unit at its merge position.

    The merge-side half of ``FaultManager.execute``, shared by discovery
    and training.  Returns the unit's value, or None when its failure was
    recorded and the unit must be skipped.  A pre-resolved injected
    failure (never dispatched) and a dispatched unit's managed error are
    raised under ``fail_fast`` and otherwise recorded once the remaining
    attempts (re-executed on ``engine``, the coordinator's) are spent;
    :meth:`FaultManager.record` enforces the shared error budget here, at
    the canonical position.  Errors outside the task's ``managed`` family
    re-raise for the driver: :class:`~repro.errors.RunBudgetExceeded`
    (graceful anytime exhaustion) and, for hops, an ordinary
    :class:`~repro.errors.JoinError` (Algorithm 1's pruning input).
    """
    if not outcome.dispatched:
        error, retries = task.plan.exception, task.plan.retries
    elif outcome.error is None:
        return outcome.value
    elif faults.policy == "fail_fast" or not isinstance(outcome.error, task.managed):
        raise outcome.error
    else:
        value, failure = settle_managed_failure(
            attempts=faults.attempts,
            passed_at=task.plan.passed_at if task.plan is not None else 0,
            first_exc=outcome.error,
            simulate=lambda: task.injected_fault(injector),
            rerun=lambda: task.run(engine),
            kinds=task.managed,
        )
        if failure is None:
            return value
        error, retries = failure
    if faults.policy == "fail_fast":
        raise error
    faults.record(error, retries=retries, **task.where())
    return None


# -- work units -------------------------------------------------------------


@dataclass
class HopTask:
    """One discovery frontier hop: join ``edge`` onto ``table``."""

    index: int
    path: JoinPath
    edge: OrientedEdge
    table: Table
    base_name: str
    features: tuple[str, ...] = ()
    plan: FaultPlan | None = None

    #: The failure policy manages only the fault family here: an ordinary
    #: :class:`JoinError` is pruning input for Algorithm 1, not a failure.
    managed = (FaultError,)

    @property
    def edges(self) -> tuple[OrientedEdge, ...]:
        """The DRG edges this unit joins along."""
        return (self.edge,)

    def where(self) -> dict:
        """Where a failure of this unit is recorded."""
        return {"base": self.base_name, "path": self.path, "edge": self.edge}

    def injected_fault(self, injector) -> Exception | None:
        """One attempt's injector check, wrapped with the hop context."""
        return walk_injected_faults(injector, self.path, self.edges, self.base_name)

    def run(self, engine: JoinEngine) -> tuple[Table, list[str]]:
        """Execute the hop: ``(joined, contributed_columns)``."""
        with engine.tracer.span(
            "hop", table=self.edge.target, key=self.edge.target_column
        ):
            return engine.apply_hop(
                self.table, self.edge, self.base_name, path=self.path
            )


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
    plan: FaultPlan | None = None

    #: Full-table materialisation failing after the sampled discovery pass
    #: succeeded is a failure, not pruning: both families are managed.
    managed = (JoinError, FaultError)

    @property
    def edges(self) -> tuple[OrientedEdge, ...]:
        """The DRG edges this unit joins along."""
        return self.path.edges

    def where(self) -> dict:
        """Where a failure of this unit is recorded."""
        return {"base": self.base_name, "path": self.path}

    def injected_fault(self, injector) -> Exception | None:
        """One materialise attempt's injector checks along the path."""
        return walk_injected_faults(
            injector, JoinPath(self.path.base), self.edges, self.base_name
        )

    def run(self, engine: JoinEngine) -> tuple[Table, float, int]:
        """Materialise and train: ``(table, accuracy, n_features_used)``."""
        # Lazy import: repro.ml is a heavier dependency the hop path never needs.
        from ..ml import evaluate_accuracy

        base = engine.drg.table(self.base_name)
        base_features = [n for n in base.column_names if n != self.label_column]
        tracer = engine.tracer
        with tracer.span("path", path=self.path.describe()):
            table, __ = engine.materialize_path(self.path, base)
            features = base_features + [
                f for f in self.selected_features if f in table
            ]
            with tracer.span("evaluate", model=self.model_name, features=len(features)):
                accuracy = evaluate_accuracy(
                    table,
                    self.label_column,
                    model_name=self.model_name,
                    feature_names=features,
                    seed=self.seed,
                )
        return table, accuracy, len(features)


@dataclass
class UnitOutcome:
    """What one work unit produced, in its canonical slot.

    ``value`` is what the task's ``run`` returned; ``error`` carries the
    managed (``JoinError`` / ``FaultError``) exception or the
    :class:`RunBudgetExceeded` that aborted it.  ``dispatched`` is False
    for units whose fault plan pre-resolved to failure (they never ran, so
    ``stats`` is None and no join work was charged — an injected fault
    aborts a hop before any join executes).
    """

    index: int
    value: tuple | None = None
    error: Exception | None = None
    dispatched: bool = True
    stats: object | None = None
    spans: list[dict] = field(default_factory=list)
    busy_seconds: float = 0.0


def _run_unit(engine: JoinEngine, task, trace_spans: bool) -> UnitOutcome:
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

#: Per-worker-process engine installed by :func:`_process_init`.  Module
#: globals are how ``ProcessPoolExecutor`` initializers hand state to
#: worker functions; the engine (and its cache) lives for the life of the
#: worker process, so repeated hops on one worker still reuse builds.
_WORKER_ENGINE: JoinEngine | None = None
_WORKER_TRACE = False


def _process_init(drg, engine_kwargs: dict, trace_spans: bool) -> None:
    global _WORKER_ENGINE, _WORKER_TRACE
    _WORKER_ENGINE = JoinEngine(drg, **engine_kwargs)
    _WORKER_TRACE = trace_spans


def _process_unit(task) -> UnitOutcome:
    return _run_unit(_WORKER_ENGINE, task, _WORKER_TRACE)


# -- the executor -----------------------------------------------------------


class PathExecutor:
    """Runs work units on a configurable backend, handing back in task order.

    One executor spans one logical run, exactly like
    :class:`~repro.engine.JoinEngine`: construct it with the run's engine,
    feed it waves of :class:`HopTask` / :class:`PathTask` lists, and close
    it when the run ends.  Outcomes always come back in the order the
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
        max_workers: int | None = None,
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
        self.workers_used = resolve_max_workers(backend, max_workers)
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
            engine = self.engine
            engine_kwargs = {
                "seed": engine.seed,
                "hop_timeout_seconds": engine.hop_timeout_seconds,
                "max_output_rows": engine.max_output_rows,
                "hop_latency_seconds": engine.hop_latency_seconds,
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

    def run_hops(self, tasks: list[HopTask]) -> Iterator[UnitOutcome]:
        """Execute one wave of hop units; outcomes in task order, lazily."""
        return self._run_wave(tasks)

    def run_paths(self, tasks: list[PathTask]) -> Iterator[UnitOutcome]:
        """Execute one wave of training units; outcomes in task order, lazily."""
        return self._run_wave(tasks)

    def _run_wave(self, tasks) -> Iterator[UnitOutcome]:
        """Yield each task's outcome, in task order, one at a time.

        The hand-off is lazy so the coordinator's merge is interleaved
        with execution.  On ``serial`` unit *i+1* runs only after outcome
        *i* was consumed: a pruned hop's table is garbage before the next
        join allocates (a whole BFS level of joined tables is never
        resident at once), and a consumer that stops — ``fail_fast``, an
        exhausted error budget — leaves the rest unexecuted.  The pool
        gets the whole wave submitted up front and is waited on in order
        (``future.result()`` re-raises unexpected worker exceptions
        here); what a stopped consumer leaves queued is cancelled by
        :meth:`close`.
        """
        resumed = time.perf_counter()
        pending: deque = deque()
        for task in tasks:
            if task.plan is not None and task.plan.exception is not None:
                # Pre-resolved failure: the injector exhausted every
                # attempt at plan time, so running the unit would charge
                # join work an injected fault never performs.  The
                # coordinator raises or records it at this slot's
                # canonical merge position.
                outcome = UnitOutcome(
                    index=task.index, error=task.plan.exception, dispatched=False
                )
                pending.append(lambda outcome=outcome: outcome)
            elif self.backend == "serial":
                pending.append(partial(_run_unit, self.engine, task, self.trace_spans))
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
