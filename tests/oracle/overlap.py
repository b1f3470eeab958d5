"""Value-overlap measures one at a time, and the instance-only matcher.

COMA's instance channel (:func:`~repro.discovery.value_overlap
.instance_similarity`) intersects two sketches once and combines
containment and Jaccard from that one count.  The separate measures here
are the textbook definitions it is checked against, with the MinHash
estimate of Jaccard beside them.  :class:`ValueOverlapMatcher` scores
every column pair on that instance channel alone, behind the table-pair
overlap gate COMA used before its lake pass; the ``value_overlap`` rows of
``tests/discovery/goldens/coma_matches.json`` were frozen from it, so it
stays to replay them.
"""

import numpy as np

from repro.discovery.profiles import ColumnProfile, ProfileCache, TableProfile
from repro.discovery.value_overlap import (
    _containment,
    _jaccard,
    check_min_score,
    instance_similarity,
)


def sketch_jaccard(a: ColumnProfile, b: ColumnProfile) -> float:
    """Exact Jaccard over the (bounded) distinct-value sketches."""
    return _jaccard(len(a.sketch & b.sketch), len(a.sketch), len(b.sketch))


def sketch_containment(a: ColumnProfile, b: ColumnProfile) -> float:
    """|A∩B| / min(|A|, |B|): a small key fully inside a large one scores 1."""
    return _containment(len(a.sketch & b.sketch), len(a.sketch), len(b.sketch))


def tables_may_overlap(a: TableProfile, b: TableProfile) -> bool:
    """Whether any column of ``a`` shares a sketch token with one of ``b``.

    ``False`` proves every column pair's :func:`instance_similarity` the
    exact ``0.0``; ``True`` only sends the pairs on to their intersections.
    """
    tokens_a = frozenset().union(*(c.sketch for c in a.columns))
    return any(not tokens_a.isdisjoint(c.sketch) for c in b.columns)


def minhash_jaccard(a: ColumnProfile, b: ColumnProfile) -> float:
    """MinHash estimate of Jaccard — agreement rate of the signatures."""
    if a.minhash.size == 0 or a.minhash.size != b.minhash.size:
        return 0.0
    return float(np.mean(a.minhash == b.minhash))


class ValueOverlapMatcher:
    """Pure instance-level matcher: names are ignored entirely.

    Scores every column pair with ``instance_similarity`` alone, in the
    ``Matcher`` protocol and the ``(-score, column_a, column_b)`` output
    order of :class:`~repro.discovery.ComaMatcher`.
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

    def match(self, table_a, table_b, floor: float = 0.0):
        """Scored column pairs of two tables (profiles are cached)."""
        return self.match_profiles(*map(self._profiles, (table_a, table_b)), floor)

    def __call__(self, table_a, table_b, floor: float = 0.0):
        """DRG ``Matcher`` protocol adapter."""
        yield from self.match(table_a, table_b, floor)
