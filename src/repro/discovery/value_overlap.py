"""Instance-level (value-based) similarity measures.

COMA's instance matchers compare column *contents*.  Joinability is about
shared values, so the primary signals are Jaccard overlap and containment
over the profile sketches, combined from one intersection per column pair
by :func:`instance_similarity` (COMA intersects only the pairs its lake
pass finds sharing a token).  The
separate measures and the instance-only matcher the COMA goldens were cut
with are test references (``tests/oracle/overlap.py``).
"""

from __future__ import annotations

from ..errors import DiscoveryError
from .profiles import ColumnProfile

__all__ = [
    "numeric_range_overlap",
    "instance_similarity",
]


def _jaccard(shared: int, size_a: int, size_b: int) -> float:
    union = size_a + size_b - shared
    return shared / union if union else 0.0


def _containment(shared: int, size_a: int, size_b: int) -> float:
    smaller = min(size_a, size_b)
    return shared / smaller if smaller else 0.0


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

    Containment (|A∩B| / min(|A|, |B|): a 50-value foreign key fully
    inside a 10 000-value primary key is perfectly joinable despite a tiny
    Jaccard) is the joinability signal; Jaccard tempers it so that a tiny
    sketch trivially contained in a huge one does not score 1.0 outright.
    Incompatible dtypes (string vs numeric) score 0.

    The two sketches are intersected once; both measures are quotients
    of that count and the two sketch sizes (|A∪B| = |A| + |B| − |A∩B|).
    """
    if a.dtype.is_numeric != b.dtype.is_numeric:
        return 0.0
    shared, size_a, size_b = len(a.sketch & b.sketch), len(a.sketch), len(b.sketch)
    return 0.7 * _containment(shared, size_a, size_b) + 0.3 * _jaccard(
        shared, size_a, size_b
    )


def check_min_score(min_score: float) -> None:
    """Reject a matcher's ``min_score`` outside the score range [0, 1]."""
    if not 0.0 <= min_score <= 1.0:
        raise DiscoveryError(f"min_score must be within [0, 1], got {min_score}")

