"""Scoring statistics for the selection-kernel layer.

:class:`SelectionStats` is the one record of how much scoring work a run
performed — and how much the persistent code cache saved.  A running
:class:`repro.core.StreamingFeatureSelector` (and the kernels in
:mod:`repro.selection.kernels`) count into one instance;
``DiscoveryResult.selection_stats`` receives a copy.  Plumbing comes from
:class:`repro.obs.metrics.CounterRecord`, as in :mod:`repro.engine.stats`.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..obs.metrics import CounterRecord

__all__ = ["SelectionStats"]


@dataclass
class SelectionStats(CounterRecord):
    """One run's feature-scoring counters.

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

    prefix = "selection"
    derived = ("code_reuse_rate",)

    @property
    def code_reuse_rate(self) -> float:
        """Reused codes per cache access (0.0 when nothing was reusable)."""
        total = self.codes_cached + self.codes_reused
        return self.codes_reused / total if total else 0.0

    def describe(self) -> str:
        """One-line human-readable rendering for summaries."""
        return (
            f"{self.batches_scored} batches, "
            f"{self.features_ranked} features ranked, "
            f"{self.codes_cached} codes cached / {self.codes_reused} reused, "
            f"{self.scalar_fallbacks} scalar fallbacks"
        )
