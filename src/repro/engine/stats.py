"""Execution statistics for the join engine.

:class:`ExecutionStats` is the one record of how much join work a run
performed — and how much the :class:`repro.engine.HopCache` saved.  A
running :class:`repro.engine.JoinEngine` counts into its own instance and
hands result objects (``DiscoveryResult.engine_stats`` and friends) a
copy.  Summing, publishing (``engine.*`` metric names) and flattening
come from :class:`repro.obs.metrics.CounterRecord`.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..obs.metrics import CounterRecord

__all__ = ["ExecutionStats"]


@dataclass
class ExecutionStats(CounterRecord):
    """One engine's join-execution counters.

    Attributes
    ----------
    hops_executed:
        Join hops the engine actually performed (probe phases).
    index_builds:
        Build phases run: dedup + hash of a right-hand table.  Strictly
        less than ``hops_executed`` whenever any ``(table, key_column)``
        pair recurs across paths (the hop cache serves the repeats).
    cache_hits / cache_misses:
        Hop-cache lookups that found / did not find a prebuilt index.
    rows_probed:
        Total probe-side rows streamed through :meth:`JoinIndex.probe`.
    """

    hops_executed: int = 0
    index_builds: int = 0
    cache_hits: int = 0
    cache_misses: int = 0
    rows_probed: int = 0

    prefix = "engine"
    derived = ("cache_hit_rate",)

    @property
    def cache_lookups(self) -> int:
        """Total hop-cache lookups (hits + misses)."""
        return self.cache_hits + self.cache_misses

    @property
    def cache_hit_rate(self) -> float:
        """Fraction of cache lookups served from the cache (0.0 if none)."""
        lookups = self.cache_lookups
        return self.cache_hits / lookups if lookups else 0.0

    def describe(self) -> str:
        """One-line human-readable rendering for summaries."""
        return (
            f"{self.hops_executed} hops, {self.index_builds} index builds, "
            f"{self.cache_hits}/{self.cache_lookups} cache hits, "
            f"{self.rows_probed} rows probed"
        )
