"""Instance-level (value-based) similarity measures.

COMA's instance matchers compare column *contents*.  Joinability is about
shared values, so the primary signals are Jaccard overlap and containment
over the profile sketches, with a MinHash estimator available when sketches
were truncated.
"""

from __future__ import annotations

import numpy as np

from ..dataframe import Table
from ..errors import DiscoveryError
from .profiles import ColumnProfile, ProfileCache, TableProfile

__all__ = [
    "sketch_jaccard",
    "sketch_containment",
    "minhash_jaccard",
    "numeric_range_overlap",
    "instance_similarity",
    "tables_may_overlap",
    "ValueOverlapMatcher",
]


def _jaccard(shared: int, size_a: int, size_b: int) -> float:
    union = size_a + size_b - shared
    return shared / union if union else 0.0


def _containment(shared: int, size_a: int, size_b: int) -> float:
    smaller = min(size_a, size_b)
    return shared / smaller if smaller else 0.0


def sketch_jaccard(a: ColumnProfile, b: ColumnProfile) -> float:
    """Exact Jaccard over the (bounded) distinct-value sketches."""
    return _jaccard(len(a.sketch & b.sketch), len(a.sketch), len(b.sketch))


def sketch_containment(a: ColumnProfile, b: ColumnProfile) -> float:
    """Max directional containment |A∩B| / min(|A|, |B|).

    Joinability cares about the smaller side being covered: a 50-value
    foreign key fully contained in a 10000-value primary key is perfectly
    joinable despite tiny Jaccard.
    """
    return _containment(len(a.sketch & b.sketch), len(a.sketch), len(b.sketch))


def minhash_jaccard(a: ColumnProfile, b: ColumnProfile) -> float:
    """MinHash estimate of Jaccard — agreement rate of the signatures."""
    if a.minhash.size == 0 or a.minhash.size != b.minhash.size:
        return 0.0
    return float(np.mean(a.minhash == b.minhash))


def numeric_range_overlap(a: ColumnProfile, b: ColumnProfile) -> float:
    """Overlap fraction of numeric [min, max] ranges (weak evidence)."""
    if a.numeric_min is None or b.numeric_min is None:
        return 0.0
    lo = max(a.numeric_min, b.numeric_min)
    hi = min(a.numeric_max, b.numeric_max)
    if hi < lo:
        return 0.0
    span = max(a.numeric_max, b.numeric_max) - min(a.numeric_min, b.numeric_min)
    if span == 0.0:
        return 1.0
    return (hi - lo) / span


def instance_similarity(a: ColumnProfile, b: ColumnProfile) -> float:
    """Composite instance score: containment-dominant, Jaccard-backed.

    Containment is the joinability signal; Jaccard tempers it so that a
    tiny sketch trivially contained in a huge one does not score 1.0
    outright.  Incompatible dtypes (string vs numeric) score 0.

    The two sketches are intersected once; both measures are quotients
    of that count and the two sketch sizes (|A∪B| = |A| + |B| − |A∩B|),
    the same integers :func:`sketch_containment` and
    :func:`sketch_jaccard` divide.
    """
    if a.dtype.is_numeric != b.dtype.is_numeric:
        return 0.0
    shared, size_a, size_b = len(a.sketch & b.sketch), len(a.sketch), len(b.sketch)
    return 0.7 * _containment(shared, size_a, size_b) + 0.3 * _jaccard(
        shared, size_a, size_b
    )


def tables_may_overlap(a: TableProfile, b: TableProfile) -> bool:
    """Whether any column of ``a`` shares a sketch token with one of ``b``.

    One ``isdisjoint`` of the tables' :attr:`TableProfile.sketch_tokens`.
    ``False`` proves every column pair's intersection empty, so its
    :func:`instance_similarity` is the exact ``0.0``; ``True`` only sends
    the pairs on to their exact intersections.
    """
    return not a.sketch_tokens.isdisjoint(b.sketch_tokens)


def check_min_score(min_score: float) -> None:
    """Reject a matcher's ``min_score`` outside the score range [0, 1]."""
    if not 0.0 <= min_score <= 1.0:
        raise DiscoveryError(f"min_score must be within [0, 1], got {min_score}")


class ValueOverlapMatcher:
    """Pure instance-level matcher: names are ignored entirely.

    Scores every column pair with :func:`instance_similarity` alone —
    the "instance-only strategy" knob of the paper's Valentine setup,
    and the adversarial counterpart to :class:`~repro.discovery.ComaMatcher`
    for candidate-filtering parity tests (no name channel can rescue a
    missed value collision).  Same ``Matcher`` protocol, same
    ``(-score, column_a, column_b)`` output order.
    """

    def __init__(self, min_score: float = 0.3):
        check_min_score(min_score)
        self._min_score = min_score
        self._profiles = ProfileCache()

    def match_profiles(
        self, profiles_a: TableProfile, profiles_b: TableProfile, floor: float = 0.0
    ) -> list[tuple[str, str, float]]:
        """Instance scores of every column pair reaching ``floor``, sorted."""
        overlap = tables_may_overlap(profiles_a, profiles_b)
        matches = []
        for col_a in profiles_a.columns:
            for col_b in profiles_b.columns:
                score = instance_similarity(col_a, col_b) if overlap else 0.0
                rounded = round(float(score), 6)
                if score >= self._min_score and rounded >= floor:
                    matches.append((col_a.column_name, col_b.column_name, rounded))
        matches.sort(key=lambda t: (-t[2], t[0], t[1]))
        return matches

    def match(self, table_a: Table, table_b: Table, floor: float = 0.0):
        """Scored column pairs of two tables (profiles are cached)."""
        return self.match_profiles(*map(self._profiles, (table_a, table_b)), floor)

    def __call__(self, table_a: Table, table_b: Table, floor: float = 0.0):
        """DRG ``Matcher`` protocol adapter."""
        yield from self.match(table_a, table_b, floor)
