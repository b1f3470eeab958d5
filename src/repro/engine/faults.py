"""Fault isolation for the discover/train pipeline.

AutoFeat's value proposition is surviving a messy data lake, so one poison
table must not abort a whole discovery or training run.  This module holds
the two pieces that make per-path failures survivable and observable:

* :class:`FaultManager` — applies the run's failure policy (``fail_fast``
  or ``skip_and_record``) to every guarded hop, enforces the per-run error
  budget, and accumulates :class:`FailureRecord` entries;
* :class:`FailureReport` — the frozen per-run failure accounting carried
  on ``DiscoveryResult`` / ``AugmentationResult`` / ``BaselineResult`` and
  rendered by ``summary()``.

A hop is a deterministic in-memory join, so a failing one fails the same
way every time: each guarded operation runs once.  The typed errors the
layer manages live in :mod:`repro.errors`: :class:`~repro.errors.JoinError`
and :class:`~repro.errors.FaultError` (the family a ``hop_hook`` raises
from), with :class:`~repro.errors.ErrorBudgetExceeded` ending the run.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from typing import Callable, TypeVar

from ..errors import ConfigError, ErrorBudgetExceeded, FaultError, JoinError

__all__ = [
    "FAILURE_POLICIES",
    "DEFAULT_ERROR_BUDGET",
    "FailureRecord",
    "FailureReport",
    "FaultManager",
]

#: The two failure policies a run can execute under.
#:
#: * ``fail_fast`` — every managed error propagates immediately (the
#:   pre-fault-isolation behaviour);
#: * ``skip_and_record`` — the failing hop/path is skipped, the failure is
#:   recorded, and the run continues until the error budget is exhausted.
FAILURE_POLICIES = ("fail_fast", "skip_and_record")

#: Recorded failures tolerated per run before the run itself aborts.
DEFAULT_ERROR_BUDGET = 64

T = TypeVar("T")


@dataclass(frozen=True)
class FailureRecord:
    """One recorded failure: what failed and where."""

    #: Pipeline stage the failure occurred in (``discovery``, ``training``,
    #: or a baseline's name).
    stage: str
    #: Exception class name (``JoinError``, or the fault a hop hook raised).
    error_kind: str
    message: str
    base_table: str = ""
    #: Description of the join path being walked, when known.
    path: str = ""
    #: ``source.column -> target.column`` of the failing edge, when known.
    edge: str = ""


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
    join loop construct their own.  A baseline and top-k training
    thread every fallible join through :meth:`execute`; discovery's
    ``AutoFeat._hop`` records its faulted hops itself.

    Parameters
    ----------
    policy:
        One of :data:`FAILURE_POLICIES`.
    error_budget:
        Maximum failures recorded before the run aborts with
        :class:`~repro.errors.ErrorBudgetExceeded` (``fail_fast`` never
        records, so the budget only binds ``skip_and_record``).
    stage:
        Default stage label stamped onto records.
    """

    def __init__(
        self,
        policy: str = "skip_and_record",
        error_budget: int = DEFAULT_ERROR_BUDGET,
        stage: str = "",
    ):
        if policy not in FAILURE_POLICIES:
            raise ConfigError(
                f"unknown failure policy {policy!r}; "
                f"expected one of {list(FAILURE_POLICIES)}"
            )
        if error_budget < 0:
            raise ConfigError(f"error_budget must be >= 0, got {error_budget}")
        self.policy = policy
        self.error_budget = error_budget
        self.stage = stage
        self._records: list[FailureRecord] = []

    @property
    def n_failures(self) -> int:
        return len(self._records)

    def execute(
        self,
        fn: Callable[[], T],
        *,
        stage: str | None = None,
        base: str = "",
        path=None,
        edge=None,
        kinds: tuple[type[Exception], ...] = (JoinError, FaultError),
    ) -> T | None:
        """Run ``fn()`` under the policy; None means "recorded and skipped".

        ``kinds`` is the exception family the policy manages here: the
        baselines pass the default, both families, because a hop they
        cannot join is a failure to account for.  ``fail_fast`` re-raises
        a managed error instead of recording it; everything outside
        ``kinds`` (and :class:`~repro.errors.ErrorBudgetExceeded`, always)
        propagates.
        """
        try:
            return fn()
        except ErrorBudgetExceeded:
            raise
        except kinds as exc:
            if self.policy == "fail_fast":
                raise
            self.record(exc, stage=stage, base=base, path=path, edge=edge)
            return None

    def record(
        self,
        exc: Exception,
        *,
        stage: str | None = None,
        base: str = "",
        path=None,
        edge=None,
    ) -> None:
        """Append a failure record, aborting once the budget is exhausted."""
        record = FailureRecord(
            stage=self.stage if stage is None else stage,
            error_kind=type(exc).__name__,
            message=str(exc),
            base_table=base,
            path=path.describe() if hasattr(path, "describe") else (path or ""),
            edge=_edge_signature(edge) if edge is not None else "",
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
