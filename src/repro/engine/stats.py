"""Execution statistics for the join engine.

Two flavours of the same record: :class:`EngineStats` is the mutable
counter block a :class:`repro.engine.JoinEngine` increments while it runs,
and :class:`ExecutionStats` is the frozen snapshot threaded into result
objects (``DiscoveryResult.engine_stats`` and friends) so callers can
observe exactly how much join work a run performed — and how much the
:class:`repro.engine.HopCache` saved.

The snapshot publishes into the observability layer's
:class:`repro.obs.MetricsRegistry` (``engine.*`` metric names);
:meth:`ExecutionStats.as_dict` round-trips through a registry and
:meth:`ExecutionStats.from_dict` re-loads persisted benchmark JSON
losslessly, ignoring keys it does not know (older manifests carry
chunk/spill counters this record no longer has).
"""

from __future__ import annotations

from dataclasses import dataclass

from ..obs.metrics import MetricsRegistry

__all__ = ["EngineStats", "ExecutionStats"]

#: Counter fields of the stats record, in canonical reporting order.
#: Every field here sums under merge and publishes as a counter.
_COUNTER_FIELDS = (
    "hops_executed",
    "index_builds",
    "cache_hits",
    "cache_misses",
    "rows_probed",
)


@dataclass(frozen=True)
class ExecutionStats:
    """Immutable snapshot of one engine's join-execution counters.

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

    @property
    def cache_lookups(self) -> int:
        """Total hop-cache lookups (hits + misses)."""
        return self.cache_hits + self.cache_misses

    @property
    def cache_hit_rate(self) -> float:
        """Fraction of cache lookups served from the cache (0.0 if none)."""
        lookups = self.cache_lookups
        return self.cache_hits / lookups if lookups else 0.0

    def merged(self, other: "ExecutionStats") -> "ExecutionStats":
        """Counter-wise sum — e.g. discovery-phase + training-phase stats."""
        return ExecutionStats(
            **{
                name: getattr(self, name) + getattr(other, name)
                for name in _COUNTER_FIELDS
            }
        )

    @classmethod
    def merge(cls, stats) -> "ExecutionStats":
        """Counter-wise sum over any iterable of snapshots.

        The parallel executor's per-work-unit deltas merge through here;
        summation is order-independent, so the merged totals are
        identical no matter which worker finished first.
        """
        merged = cls()
        for snapshot in stats:
            merged = merged.merged(snapshot)
        return merged

    def publish(self, registry: MetricsRegistry, prefix: str = "engine") -> MetricsRegistry:
        """Publish the counters (and the hit-rate gauge) into ``registry``."""
        for name in _COUNTER_FIELDS:
            registry.counter(f"{prefix}.{name}").inc(getattr(self, name))
        registry.gauge(f"{prefix}.cache_hit_rate").set(round(self.cache_hit_rate, 4))
        return registry

    def as_dict(self) -> dict:
        """Flat dict for reports and the engine-cache benchmark JSON.

        Round-trips through a :class:`repro.obs.MetricsRegistry`, so the
        flat view and the registry view can never drift apart.
        """
        registry = self.publish(MetricsRegistry())
        out = {name: registry.value(f"engine.{name}") for name in _COUNTER_FIELDS}
        out["cache_hit_rate"] = registry.value("engine.cache_hit_rate")
        return out

    @classmethod
    def from_dict(cls, data: dict) -> "ExecutionStats":
        """Inverse of :meth:`as_dict` (derived fields are recomputed)."""
        return cls(**{name: int(data.get(name, 0)) for name in _COUNTER_FIELDS})

    def describe(self) -> str:
        """One-line human-readable rendering for summaries."""
        return (
            f"{self.hops_executed} hops, {self.index_builds} index builds, "
            f"{self.cache_hits}/{self.cache_lookups} cache hits, "
            f"{self.rows_probed} rows probed"
        )


@dataclass
class EngineStats:
    """Mutable counters incremented by a running engine.

    Field meanings match :class:`ExecutionStats`; call :meth:`snapshot` to
    freeze the current values into a result-friendly record.
    """

    hops_executed: int = 0
    index_builds: int = 0
    cache_hits: int = 0
    cache_misses: int = 0
    rows_probed: int = 0

    def snapshot(self) -> ExecutionStats:
        """Freeze the current counter values."""
        return ExecutionStats(
            **{name: getattr(self, name) for name in _COUNTER_FIELDS}
        )

    def absorb(self, delta: "ExecutionStats | EngineStats") -> None:
        """Add another stats record's counters into this one in place.

        The merge point of parallel runs: each work unit counts into its
        own fresh :class:`EngineStats` (no cross-worker races) and the
        coordinating thread absorbs the deltas in canonical unit order.
        """
        for name in _COUNTER_FIELDS:
            setattr(self, name, getattr(self, name) + getattr(delta, name))
