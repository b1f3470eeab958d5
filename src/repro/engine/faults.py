"""Fault isolation for the discover/train pipeline.

AutoFeat's value proposition is surviving a messy data lake, so one poison
table must not abort a whole discovery or training run.  This module holds
the two pieces that make per-path failures survivable and observable:

* :class:`FaultManager` — skips and records every managed error of one
  run, and aborts the run once more than :data:`ERROR_BUDGET` failures
  are recorded;
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

from ..errors import ErrorBudgetExceeded, FaultError, JoinError

__all__ = [
    "ERROR_BUDGET",
    "FailureRecord",
    "FailureReport",
    "FaultManager",
]

#: Recorded failures tolerated per run before the run itself aborts.
ERROR_BUDGET = 64

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
        return FailureReport(records=self.records + other.records)

    def publish(self, registry, prefix: str = "faults"):
        """Publish the failure accounting into a
        :class:`repro.obs.MetricsRegistry` (total and per-kind counters
        under ``faults.*``)."""
        registry.counter(f"{prefix}.recorded").inc(self.n_failures)
        for kind, count in sorted(self.by_kind().items()):
            registry.counter(f"{prefix}.kind.{kind}").inc(count)
        return registry

    def describe(self) -> str:
        """One-line human-readable rendering for summaries."""
        if not self.records:
            return "none"
        kinds = ", ".join(
            f"{kind} x{count}" for kind, count in sorted(self.by_kind().items())
        )
        return (
            f"{self.n_failures} recorded ({kinds}), "
            f"budget {self.n_failures}/{ERROR_BUDGET}"
        )


def _edge_signature(edge) -> str:
    """Stable ``source.column->target.column`` rendering of a DRG edge."""
    return f"{edge.source}.{edge.source_column}->{edge.target}.{edge.target_column}"


class FaultManager:
    """Skips and records the managed errors of one run.

    One manager spans one logical run, exactly like :class:`JoinEngine`:
    the discovery traversal, the top-k training pass and each baseline's
    join loop construct their own, and ``stage`` labels its records.  A
    baseline and top-k training thread every fallible join through
    :meth:`execute`; discovery's ``AutoFeat._hop`` records its faulted
    hops itself.  Once more than :data:`ERROR_BUDGET` failures are
    recorded the run aborts with :class:`~repro.errors.ErrorBudgetExceeded`.
    """

    def __init__(self, stage: str = ""):
        self.stage = stage
        self._records: list[FailureRecord] = []

    @property
    def n_failures(self) -> int:
        return len(self._records)

    def execute(
        self, fn: Callable[[], T], *, base: str = "", path=None, edge=None
    ) -> T | None:
        """Run ``fn()``; None means "recorded and skipped".

        A :class:`~repro.errors.JoinError` or
        :class:`~repro.errors.FaultError` is recorded: a hop a baseline or
        top-k training cannot join is a failure to account for.  Anything
        else, and :class:`~repro.errors.ErrorBudgetExceeded`, propagates.
        """
        try:
            return fn()
        except ErrorBudgetExceeded:
            raise
        except (JoinError, FaultError) as exc:
            self.record(exc, base=base, path=path, edge=edge)
            return None

    def record(
        self, exc: Exception, *, base: str = "", path=None, edge=None
    ) -> None:
        """Append a failure record, aborting once the budget is exhausted."""
        record = FailureRecord(
            stage=self.stage,
            error_kind=type(exc).__name__,
            message=str(exc),
            base_table=base,
            path=path.describe() if hasattr(path, "describe") else (path or ""),
            edge=_edge_signature(edge) if edge is not None else "",
        )
        self._records.append(record)
        if len(self._records) > ERROR_BUDGET:
            raise ErrorBudgetExceeded(
                f"error budget exhausted: {len(self._records)} failures exceed "
                f"the budget of {ERROR_BUDGET} "
                f"(last: {record.error_kind} on edge [{record.edge}])"
            )

    def report(self) -> FailureReport:
        """Freeze the failures recorded so far into an immutable report."""
        return FailureReport(records=tuple(self._records))
