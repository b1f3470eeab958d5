"""Join-path ranking score (paper Algorithm 2).

Algorithm 2 combines the relevance-analysis scores and the
redundancy-analysis scores of a join result into one number: each score
list is summed and weighted by the cardinality of its selected subset, and
the two sums are combined "weighted by their common divisor".  We read
that as cardinality-normalised means combined on a common scale:

    rank = (Σ rel / |rel|  +  Σ red / |red|) / 2

where an empty list is left out of the mean (the divisor is the number of
non-empty lists), not counted as zero.  The normalisation keeps long paths
from winning just by accumulating many weak features — the score rewards
paths whose *average* accepted feature is strong, which is the behaviour
the paper's examples exhibit.
"""

from __future__ import annotations

from typing import Sequence

__all__ = ["compute_ranking_score", "normalised_sum"]


def normalised_sum(scores: Sequence[float]) -> float:
    """Sum of ``scores`` weighted by subset cardinality (mean); 0 if empty."""
    if not scores:
        return 0.0
    return float(sum(scores)) / len(scores)


def compute_ranking_score(
    relevance_scores: Sequence[float],
    redundancy_scores: Sequence[float],
) -> float:
    """Combine relevance and redundancy analyses into one path score.

    Both inputs are the scores of the features that *survived* the
    respective analysis stage.  Higher is better.  The score is the mean
    of the non-empty lists' normalised sums: an empty list is left out of
    the mean, not counted as zero, so ``([0.4], [])`` scores 0.4, not 0.2.
    A path with both lists empty scores 0 — it is kept as a navigation
    stepping stone but will not be ranked above productive paths.
    """
    parts = []
    if relevance_scores:
        parts.append(normalised_sum(relevance_scores))
    if redundancy_scores:
        parts.append(normalised_sum(redundancy_scores))
    if not parts:
        return 0.0
    return float(sum(parts)) / len(parts)
