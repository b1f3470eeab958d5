"""Fault isolation for the discover/train pipeline.

AutoFeat's value proposition is surviving a messy data lake, so one poison
table must not abort a whole discovery or training run.  This module holds
the three pieces that make per-path failures survivable and observable:

* :class:`FaultManager` — applies the run's failure policy (``fail_fast``,
  ``skip_and_record`` or ``retry``) to every guarded hop, enforces the
  per-run error budget, and accumulates :class:`FailureRecord` entries;
* :class:`FailureReport` — the frozen per-run failure accounting carried
  on ``DiscoveryResult`` / ``AugmentationResult`` / ``BaselineResult`` and
  rendered by ``summary()``;
* :class:`FaultInjector` — a deterministic, seeded fault-injection harness
  (per-edge probability of join failure or timeout) so graceful
  degradation is testable end to end.

The typed errors the layer manages live in :mod:`repro.errors`:
:class:`~repro.errors.FaultError` and its subclasses
:class:`~repro.errors.HopBudgetExceeded`,
:class:`~repro.errors.InjectedFaultError` and
:class:`~repro.errors.ErrorBudgetExceeded`.
"""

from __future__ import annotations

import hashlib
from collections import Counter
from dataclasses import dataclass
from typing import Callable, TypeVar

from ..errors import (
    ConfigError,
    ErrorBudgetExceeded,
    FaultError,
    HopBudgetExceeded,
    InjectedFaultError,
    JoinError,
)

__all__ = [
    "FAILURE_POLICIES",
    "DEFAULT_ERROR_BUDGET",
    "DEFAULT_MAX_RETRIES",
    "FailureRecord",
    "FailureReport",
    "FaultManager",
    "FaultInjector",
]

#: The three failure policies a run can execute under.
#:
#: * ``fail_fast`` — every managed error propagates immediately (the
#:   pre-fault-isolation behaviour);
#: * ``skip_and_record`` — the failing hop/path is skipped, the failure is
#:   recorded, and the run continues until the error budget is exhausted;
#: * ``retry`` — like ``skip_and_record``, but each failing operation is
#:   retried up to ``max_retries`` times before being recorded.
FAILURE_POLICIES = ("fail_fast", "skip_and_record", "retry")

#: Recorded failures tolerated per run before the run itself aborts.
DEFAULT_ERROR_BUDGET = 64

#: Retries per failing operation under the ``retry`` policy.
DEFAULT_MAX_RETRIES = 2

T = TypeVar("T")


@dataclass(frozen=True)
class FailureRecord:
    """One recorded failure: what failed, where, and how hard we tried."""

    #: Pipeline stage the failure occurred in (``discovery``, ``training``,
    #: or a baseline's name).
    stage: str
    #: Exception class name (``JoinError``, ``HopBudgetExceeded``, ...).
    error_kind: str
    message: str
    base_table: str = ""
    #: Description of the join path being walked, when known.
    path: str = ""
    #: ``source.column -> target.column`` of the failing edge, when known.
    edge: str = ""
    #: Retries attempted before the failure was recorded.
    retries: int = 0


@dataclass(frozen=True)
class FailureReport:
    """Immutable per-run failure accounting.

    Empty reports (``ok`` is True) are the norm; a non-empty report means
    the run degraded gracefully — paths were skipped, not computed — and
    downstream consumers (benchmarks especially) must decide whether a
    partial result is acceptable.
    """

    policy: str = "skip_and_record"
    error_budget: int = DEFAULT_ERROR_BUDGET
    records: tuple[FailureRecord, ...] = ()

    @property
    def n_failures(self) -> int:
        return len(self.records)

    @property
    def ok(self) -> bool:
        """True when nothing was skipped: the run's results are complete."""
        return not self.records

    def by_kind(self) -> dict[str, int]:
        """Failure counts grouped by exception class name."""
        return dict(Counter(record.error_kind for record in self.records))

    def merged(self, other: "FailureReport") -> "FailureReport":
        """Record-wise concatenation — e.g. discovery plus training phase."""
        return FailureReport(
            policy=self.policy,
            error_budget=self.error_budget,
            records=self.records + other.records,
        )

    @classmethod
    def merge(cls, reports) -> "FailureReport":
        """Concatenate any iterable of reports (policy/budget from the first).

        Parallel runs record failures only at the deterministic merge
        points, so per-phase reports concatenated here are already in
        canonical order; this helper exists for multi-phase and
        multi-partition aggregation.
        """
        reports = list(reports)
        if not reports:
            return cls()
        merged = reports[0]
        for report in reports[1:]:
            merged = merged.merged(report)
        return merged

    def publish(self, registry, prefix: str = "faults"):
        """Publish the failure accounting into a
        :class:`repro.obs.MetricsRegistry` (total, budget and per-kind
        counters under ``faults.*``)."""
        registry.counter(f"{prefix}.recorded").inc(self.n_failures)
        registry.gauge(f"{prefix}.error_budget").set(self.error_budget)
        for kind, count in sorted(self.by_kind().items()):
            registry.counter(f"{prefix}.kind.{kind}").inc(count)
        return registry

    def describe(self) -> str:
        """One-line human-readable rendering for summaries."""
        if not self.records:
            return f"none (policy={self.policy})"
        kinds = ", ".join(
            f"{kind} x{count}" for kind, count in sorted(self.by_kind().items())
        )
        return (
            f"{self.n_failures} recorded ({kinds}) under policy={self.policy}, "
            f"budget {self.n_failures}/{self.error_budget}"
        )


def _edge_signature(edge) -> str:
    """Stable ``source.column->target.column`` rendering of a DRG edge."""
    return f"{edge.source}.{edge.source_column}->{edge.target}.{edge.target_column}"


class FaultManager:
    """Applies one run's failure policy to every guarded operation.

    One manager spans one logical run, exactly like :class:`JoinEngine`:
    the discovery traversal, the top-k training pass and each baseline's
    join loop construct their own and thread every fallible hop through
    :meth:`execute`.

    Parameters
    ----------
    policy:
        One of :data:`FAILURE_POLICIES`.
    error_budget:
        Maximum failures recorded before the run aborts with
        :class:`~repro.errors.ErrorBudgetExceeded` (``fail_fast`` never
        records, so the budget only binds the other two policies).
    max_retries:
        Attempts added per failing operation under ``retry``.
    stage:
        Default stage label stamped onto records.
    """

    def __init__(
        self,
        policy: str = "skip_and_record",
        error_budget: int = DEFAULT_ERROR_BUDGET,
        max_retries: int = DEFAULT_MAX_RETRIES,
        stage: str = "",
    ):
        if policy not in FAILURE_POLICIES:
            raise ConfigError(
                f"unknown failure policy {policy!r}; "
                f"expected one of {list(FAILURE_POLICIES)}"
            )
        if error_budget < 0:
            raise ConfigError(f"error_budget must be >= 0, got {error_budget}")
        if max_retries < 0:
            raise ConfigError(f"max_retries must be >= 0, got {max_retries}")
        self.policy = policy
        self.error_budget = error_budget
        self.max_retries = max_retries
        self.stage = stage
        self._records: list[FailureRecord] = []

    @property
    def n_failures(self) -> int:
        return len(self._records)

    @property
    def attempts(self) -> int:
        """Attempts per guarded operation (1 unless the policy retries)."""
        return 1 + (self.max_retries if self.policy == "retry" else 0)

    @staticmethod
    def run_attempts(
        fn: Callable[[int], T], attempts: int, kinds: tuple[type[Exception], ...]
    ) -> tuple[T | None, Exception | None, int]:
        """The one attempt loop: ``(value, error, retries)`` of ``fn(attempt)``.

        ``fn`` is handed the attempt index (which the engine threads to
        its hop hook) and is re-attempted while it raises one of ``kinds``
        — the exception family the caller's policy manages: the discovery
        BFS passes ``(FaultError,)`` only, because an ordinary
        :class:`~repro.errors.JoinError` is pruning input for Algorithm 1,
        not a failure.  Everything outside ``kinds`` (and
        :class:`~repro.errors.ErrorBudgetExceeded`, always) propagates.
        Nothing is recorded here: :meth:`execute` records for the
        baselines, the Algorithm-1 driver's work units run this loop
        themselves and the driver records at its canonical merge point.
        """
        error: Exception | None = None
        for attempt in range(attempts):
            try:
                return fn(attempt), None, attempt
            except ErrorBudgetExceeded:
                raise
            except kinds as exc:
                error = exc
        return None, error, attempts - 1

    def execute(
        self,
        fn: Callable[[int], T],
        *,
        stage: str | None = None,
        base: str = "",
        path=None,
        edge=None,
        kinds: tuple[type[Exception], ...] = (JoinError, FaultError),
    ) -> T | None:
        """Run ``fn(attempt)`` under the policy; None means "recorded and skipped".

        ``kinds`` is the exception family the policy manages here (see
        :meth:`run_attempts`).  ``fail_fast`` re-raises the managed error
        instead of recording it.
        """
        value, error, retries = self.run_attempts(fn, self.attempts, kinds)
        if error is None:
            return value
        if self.policy == "fail_fast":
            raise error
        self.record(error, stage=stage, base=base, path=path, edge=edge, retries=retries)
        return None

    def record(
        self,
        exc: Exception,
        *,
        stage: str | None = None,
        base: str = "",
        path=None,
        edge=None,
        retries: int = 0,
    ) -> None:
        """Append a failure record, aborting once the budget is exhausted."""
        record = FailureRecord(
            stage=self.stage if stage is None else stage,
            error_kind=type(exc).__name__,
            message=str(exc),
            base_table=base,
            path=path.describe() if hasattr(path, "describe") else (path or ""),
            edge=_edge_signature(edge) if edge is not None else "",
            retries=retries,
        )
        self._records.append(record)
        if len(self._records) > self.error_budget:
            raise ErrorBudgetExceeded(
                f"error budget exhausted: {len(self._records)} failures exceed "
                f"the budget of {self.error_budget} "
                f"(last: {record.error_kind} on edge [{record.edge}])"
            )

    def report(self) -> FailureReport:
        """Freeze the failures recorded so far into an immutable report."""
        return FailureReport(
            policy=self.policy,
            error_budget=self.error_budget,
            records=tuple(self._records),
        )


class FaultInjector:
    """Deterministic, seeded fault injection for join hops — a hop hook.

    Whether an edge is faulty — and whether its fault manifests as a join
    failure or a timeout — is a pure function of ``(seed, edge)``: a
    SHA-256 draw over the edge signature is compared against the two
    probabilities; whether it raises is a pure function of ``(seed, edge,
    attempt)``.  The injector holds no state, so it is picklable, runs
    inside pool workers, and injects the same faults whatever the
    schedule (same seed → same :class:`FailureReport`).

    Parameters
    ----------
    failure_probability:
        Per-edge probability of an injected
        :class:`~repro.errors.InjectedFaultError` (a failing join).
    timeout_probability:
        Per-edge probability of an injected
        :class:`~repro.errors.HopBudgetExceeded` (a hop that would hang).
    seed:
        Determinism seed; part of every draw.
    recover_after:
        When positive, a faulty edge is *transient*: it fails an
        operation's first ``recover_after`` attempts and succeeds
        afterwards — the scenario the ``retry`` policy exists for.  Zero
        means faults are permanent.
    """

    def __init__(
        self,
        failure_probability: float = 0.0,
        timeout_probability: float = 0.0,
        seed: int = 0,
        recover_after: int = 0,
    ):
        for name, p in (
            ("failure_probability", failure_probability),
            ("timeout_probability", timeout_probability),
        ):
            if not 0.0 <= p <= 1.0:
                raise ConfigError(f"{name} must be in [0, 1], got {p}")
        if failure_probability + timeout_probability > 1.0:
            raise ConfigError(
                "failure_probability + timeout_probability must not exceed 1"
            )
        if recover_after < 0:
            raise ConfigError(f"recover_after must be >= 0, got {recover_after}")
        self.failure_probability = failure_probability
        self.timeout_probability = timeout_probability
        self.seed = seed
        self.recover_after = recover_after

    def _draw(self, signature: str) -> float:
        digest = hashlib.sha256(f"{self.seed}:{signature}".encode()).digest()
        return int.from_bytes(digest[:8], "big") / 2.0**64

    def fault_kind(self, edge) -> str | None:
        """``"failure"``, ``"timeout"`` or None for the given edge."""
        u = self._draw(_edge_signature(edge))
        if u < self.failure_probability:
            return "failure"
        if u < self.failure_probability + self.timeout_probability:
            return "timeout"
        return None

    def check(self, edge, attempt: int = 0) -> None:
        """Raise the edge's injected fault, if any, for this attempt.

        :class:`JoinEngine` calls it (as its ``hop_hook``) at the top of
        every hop with the operation's attempt index; a transient fault
        (``recover_after > 0``) stops raising from attempt
        ``recover_after`` on.
        """
        kind = self.fault_kind(edge)
        if kind is None or (self.recover_after and attempt >= self.recover_after):
            return
        signature = _edge_signature(edge)
        if kind == "failure":
            raise InjectedFaultError(
                f"injected join failure on edge [{signature}]"
            )
        raise HopBudgetExceeded(f"injected hop timeout on edge [{signature}]")

    __call__ = check
