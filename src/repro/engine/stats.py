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
losslessly.

Out-of-core runs add the chunked-execution block: how many row partitions
streamed through :func:`repro.engine.chunked.chunked_left_join`, how many
were spilled to disk and how many bytes crossed the spill boundary, plus
``peak_resident_bytes`` — the high-water estimate of partition bytes held
in memory at once.  All spill fields are plain summing counters except the
peak, which merges by ``max`` (two workers that each peaked at 1 MiB did
not jointly peak at 2 MiB) and publishes as a gauge.
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
    "chunks_executed",
    "partitions_spilled",
    "spill_bytes_written",
    "spill_bytes_read",
)

#: High-water-mark fields: merge by max, publish as gauges.
_PEAK_FIELDS = ("peak_resident_bytes",)


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
    chunks_executed:
        Row partitions probed by the chunked executor.  Zero on in-core
        runs (``chunk_rows`` unset or larger than every hop's probe side).
    partitions_spilled:
        Completed partitions written to the disk-backed spill manager
        because resident partition bytes exceeded ``memory_budget_bytes``.
    spill_bytes_written / spill_bytes_read:
        Bytes serialized to / restored from spill files.
    peak_resident_bytes:
        High-water estimate of partition bytes held in memory at once by
        the chunked executor (0 when no hop ran chunked).
    """

    hops_executed: int = 0
    index_builds: int = 0
    cache_hits: int = 0
    cache_misses: int = 0
    rows_probed: int = 0
    chunks_executed: int = 0
    partitions_spilled: int = 0
    spill_bytes_written: int = 0
    spill_bytes_read: int = 0
    peak_resident_bytes: int = 0

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
        """Counter-wise sum — e.g. discovery-phase + training-phase stats.

        Summing counters add; the resident high-water mark takes the max of
        the two runs (peaks do not stack across sequential or parallel
        phases that never held their partitions simultaneously... the max
        is the honest bound either way).
        """
        fields = {
            name: getattr(self, name) + getattr(other, name)
            for name in _COUNTER_FIELDS
        }
        fields.update(
            {
                name: max(getattr(self, name), getattr(other, name))
                for name in _PEAK_FIELDS
            }
        )
        return ExecutionStats(**fields)

    @classmethod
    def merge(cls, stats) -> "ExecutionStats":
        """Counter-wise sum over any iterable of snapshots.

        The parallel executor's per-work-unit deltas merge through here;
        summation (and max, for peaks) is order-independent, so the merged
        totals are identical no matter which worker finished first.
        """
        merged = cls()
        for snapshot in stats:
            merged = merged.merged(snapshot)
        return merged

    def publish(self, registry: MetricsRegistry, prefix: str = "engine") -> MetricsRegistry:
        """Publish the counters (and the hit-rate/peak gauges) into ``registry``."""
        for name in _COUNTER_FIELDS:
            registry.counter(f"{prefix}.{name}").inc(getattr(self, name))
        registry.gauge(f"{prefix}.cache_hit_rate").set(round(self.cache_hit_rate, 4))
        for name in _PEAK_FIELDS:
            registry.gauge(f"{prefix}.{name}").set(getattr(self, name))
        return registry

    def as_dict(self) -> dict:
        """Flat dict for reports and the engine-cache benchmark JSON.

        Round-trips through a :class:`repro.obs.MetricsRegistry`, so the
        flat view and the registry view can never drift apart.
        """
        registry = self.publish(MetricsRegistry())
        out = {
            name: registry.value(f"engine.{name}")
            for name in _COUNTER_FIELDS + _PEAK_FIELDS
        }
        out["cache_hit_rate"] = registry.value("engine.cache_hit_rate")
        return out

    @classmethod
    def from_dict(cls, data: dict) -> "ExecutionStats":
        """Inverse of :meth:`as_dict` (derived fields are recomputed)."""
        return cls(
            **{
                name: int(data.get(name, 0))
                for name in _COUNTER_FIELDS + _PEAK_FIELDS
            }
        )

    def describe(self) -> str:
        """One-line human-readable rendering for summaries."""
        line = (
            f"{self.hops_executed} hops, {self.index_builds} index builds, "
            f"{self.cache_hits}/{self.cache_lookups} cache hits, "
            f"{self.rows_probed} rows probed"
        )
        if self.chunks_executed:
            line += (
                f", {self.chunks_executed} chunks "
                f"({self.partitions_spilled} spilled, "
                f"{self.spill_bytes_written} bytes to disk)"
            )
        return line


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
    chunks_executed: int = 0
    partitions_spilled: int = 0
    spill_bytes_written: int = 0
    spill_bytes_read: int = 0
    peak_resident_bytes: int = 0

    def snapshot(self) -> ExecutionStats:
        """Freeze the current counter values."""
        return ExecutionStats(
            **{
                name: getattr(self, name)
                for name in _COUNTER_FIELDS + _PEAK_FIELDS
            }
        )

    def absorb(self, delta: "ExecutionStats | EngineStats") -> None:
        """Add another stats record's counters into this one in place.

        The merge point of parallel runs: each work unit counts into its
        own fresh :class:`EngineStats` (no cross-worker races) and the
        coordinating thread absorbs the deltas in canonical unit order.
        Peaks absorb by max, like :meth:`ExecutionStats.merged`.
        """
        for name in _COUNTER_FIELDS:
            setattr(self, name, getattr(self, name) + getattr(delta, name))
        for name in _PEAK_FIELDS:
            setattr(self, name, max(getattr(self, name), getattr(delta, name)))

    def record_peak(self, resident_bytes: int) -> None:
        """Raise the resident high-water mark if ``resident_bytes`` tops it."""
        if resident_bytes > self.peak_resident_bytes:
            self.peak_resident_bytes = resident_bytes
