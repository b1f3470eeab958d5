"""Hop hooks the tests perturb a run with, through ``hop_hook=``.

Every :class:`~repro.engine.JoinEngine` calls its ``hop_hook(edge)`` at
the top of each hop, in the coordinating process.  Nothing in a real run
fails or stalls a hop on its own — a hop is a deterministic in-memory
join — so the faults and delays the fault layer must survive are made
here:

* :class:`FaultInjector` raises a seeded, per-edge fault;
* :class:`HopLatency` sleeps a fixed time per hop.

Both are pure functions of ``(seed, edge)``.  The two fault classes keep
the names the frozen goldens record as ``type(exc).__name__``.
"""

from __future__ import annotations

import hashlib
import time
from dataclasses import dataclass

from repro.errors import ConfigError, FaultError


class InjectedFaultError(FaultError):
    """A deterministic join failure injected by :class:`FaultInjector`."""


class HopBudgetExceeded(FaultError):
    """A deterministic hop timeout injected by :class:`FaultInjector`."""


def edge_signature(edge) -> str:
    """``source.column->target.column``, as failure records render it."""
    return f"{edge.source}.{edge.source_column}->{edge.target}.{edge.target_column}"


class FaultInjector:
    """Seeded fault injection for join hops — a hop hook.

    Whether an edge is faulty — and whether its fault manifests as a join
    failure or a timeout — is a pure function of ``(seed, edge)``: a
    SHA-256 draw over the edge signature is compared against the two
    probabilities.  The injector holds no state, so it injects the same
    faults whatever the schedule (same seed → same failure report).
    """

    def __init__(
        self,
        failure_probability: float = 0.0,
        timeout_probability: float = 0.0,
        seed: int = 0,
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
        self.failure_probability = failure_probability
        self.timeout_probability = timeout_probability
        self.seed = seed

    def _draw(self, signature: str) -> float:
        digest = hashlib.sha256(f"{self.seed}:{signature}".encode()).digest()
        return int.from_bytes(digest[:8], "big") / 2.0**64

    def fault_kind(self, edge) -> str | None:
        """``"failure"``, ``"timeout"`` or None for the given edge."""
        u = self._draw(edge_signature(edge))
        if u < self.failure_probability:
            return "failure"
        if u < self.failure_probability + self.timeout_probability:
            return "timeout"
        return None

    def check(self, edge) -> None:
        """Raise the edge's injected fault, if any."""
        kind = self.fault_kind(edge)
        if kind is None:
            return
        signature = edge_signature(edge)
        if kind == "failure":
            raise InjectedFaultError(f"injected join failure on edge [{signature}]")
        raise HopBudgetExceeded(f"injected hop timeout on edge [{signature}]")

    __call__ = check


@dataclass(frozen=True)
class HopLatency:
    """Hop hook that sleeps ``seconds`` per hop (lands in the ``hop`` span)."""

    seconds: float

    def __call__(self, edge) -> None:
        time.sleep(self.seconds)
