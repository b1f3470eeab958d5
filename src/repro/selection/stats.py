"""Scoring statistics for the selection-kernel layer.

Two flavours of the same record, mirroring :mod:`repro.engine.stats`:
:class:`SelectionCounters` is the mutable block a running
:class:`repro.core.StreamingFeatureSelector` (and the kernels in
:mod:`repro.selection.kernels`) increment, and :class:`SelectionStats` is
the frozen snapshot threaded into ``DiscoveryResult.selection_stats`` so
callers can observe how much scoring work a run performed — and how much
the persistent code cache saved.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..obs.metrics import MetricsRegistry

__all__ = ["SelectionCounters", "SelectionStats"]

#: Counter fields of the stats record, in canonical reporting order.
_COUNTER_FIELDS = (
    "batches_scored",
    "features_ranked",
    "codes_cached",
    "codes_reused",
    "scalar_fallbacks",
)


@dataclass(frozen=True)
class SelectionStats:
    """Immutable snapshot of one run's feature-scoring counters.

    Attributes
    ----------
    batches_scored:
        Feature batches pushed through the two-stage selector (one per
        surviving join hop).
    features_ranked:
        Candidate columns scored by the relevance stage across all batches.
    codes_cached:
        Discretised code vectors stored in the persistent code cache (the
        label plus every accepted feature).
    codes_reused:
        Cached code vectors served to the redundancy stage instead of being
        re-discretised.  Without the cache this is the O(|S|·n) re-binning
        the legacy path performs on every batch.
    scalar_fallbacks:
        Pair scorings that fell off every vectorised/masked fast path onto
        the per-pair scalar pairwise-complete estimators.  The kernels
        score every pair — nulls on either side or both — from mask-grouped
        contingency counts, so this is 0; the benchmark and the driver
        goldens gate on it staying there.
    """

    batches_scored: int = 0
    features_ranked: int = 0
    codes_cached: int = 0
    codes_reused: int = 0
    scalar_fallbacks: int = 0

    @property
    def code_reuse_rate(self) -> float:
        """Reused codes per cache access (0.0 when nothing was reusable)."""
        total = self.codes_cached + self.codes_reused
        return self.codes_reused / total if total else 0.0

    def merged(self, other: "SelectionStats") -> "SelectionStats":
        """Counter-wise sum — e.g. stats of several discovery runs."""
        return SelectionStats(
            batches_scored=self.batches_scored + other.batches_scored,
            features_ranked=self.features_ranked + other.features_ranked,
            codes_cached=self.codes_cached + other.codes_cached,
            codes_reused=self.codes_reused + other.codes_reused,
            scalar_fallbacks=self.scalar_fallbacks + other.scalar_fallbacks,
        )

    def publish(
        self, registry: MetricsRegistry, prefix: str = "selection"
    ) -> MetricsRegistry:
        """Publish the counters (and the reuse-rate gauge) into ``registry``."""
        for name in _COUNTER_FIELDS:
            registry.counter(f"{prefix}.{name}").inc(getattr(self, name))
        registry.gauge(f"{prefix}.code_reuse_rate").set(round(self.code_reuse_rate, 4))
        return registry

    def as_dict(self) -> dict:
        """Flat dict for reports and the selection-kernel benchmark JSON.

        Round-trips through a :class:`repro.obs.MetricsRegistry`, like
        :meth:`repro.engine.ExecutionStats.as_dict`.
        """
        registry = self.publish(MetricsRegistry())
        return {
            name: registry.value(f"selection.{name}") for name in _COUNTER_FIELDS
        }

    @classmethod
    def from_dict(cls, data: dict) -> "SelectionStats":
        """Inverse of :meth:`as_dict` (derived fields are recomputed)."""
        return cls(**{name: int(data.get(name, 0)) for name in _COUNTER_FIELDS})

    def describe(self) -> str:
        """One-line human-readable rendering for summaries."""
        return (
            f"{self.batches_scored} batches, "
            f"{self.features_ranked} features ranked, "
            f"{self.codes_cached} codes cached / {self.codes_reused} reused, "
            f"{self.scalar_fallbacks} scalar fallbacks"
        )


@dataclass
class SelectionCounters:
    """Mutable counters incremented by a running selector.

    Field meanings match :class:`SelectionStats`; call :meth:`snapshot` to
    freeze the current values into a result-friendly record.
    """

    batches_scored: int = 0
    features_ranked: int = 0
    codes_cached: int = 0
    codes_reused: int = 0
    scalar_fallbacks: int = 0

    def snapshot(self) -> SelectionStats:
        """Freeze the current counter values."""
        return SelectionStats(
            batches_scored=self.batches_scored,
            features_ranked=self.features_ranked,
            codes_cached=self.codes_cached,
            codes_reused=self.codes_reused,
            scalar_fallbacks=self.scalar_fallbacks,
        )
