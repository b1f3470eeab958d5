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

from itertools import combinations

import numpy as np

from repro.discovery.coma import ColumnMatch, LakeMatches
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

    Scores every column pair of every table pair with
    ``instance_similarity`` alone, through the lake pass every matcher
    exposes and in the ``(-score, column_a, column_b)`` output order of
    :class:`~repro.discovery.ComaMatcher`.
    """

    def __init__(self, min_score: float = 0.3):
        check_min_score(min_score)
        self._min_score = min_score
        self._profiles = ProfileCache()

    def _pair(self, profiles_a: TableProfile, profiles_b: TableProfile, floor: float):
        """Instance scores of one table pair's column pairs reaching ``floor``."""
        overlap = tables_may_overlap(profiles_a, profiles_b)
        matches = []
        for col_a in profiles_a.columns:
            for col_b in profiles_b.columns:
                score = instance_similarity(col_a, col_b) if overlap else 0.0
                rounded = round(float(score), 6)
                if score >= self._min_score and rounded >= floor:
                    matches.append(
                        ColumnMatch(
                            profiles_a.table_name, col_a.column_name,
                            profiles_b.table_name, col_b.column_name, rounded,
                        )
                    )
        matches.sort(key=lambda m: (-m.score, m.column_a, m.column_b))
        return matches

    def match_lake_profiles(self, profiles, floor: float = 0.0, focus=None):
        """Every table pair (only ``focus``'s) scored one by one."""
        pairs = {}
        for i, j in combinations(range(len(profiles)), 2):
            if focus is None or focus in (i, j):
                matches = self._pair(profiles[i], profiles[j], floor)
                if matches:
                    pairs[i, j] = matches
        return LakeMatches(pairs)

    def match_lake(self, tables, floor: float = 0.0):
        """Score every table pair of a lake (profiles are cached)."""
        return self.match_lake_profiles([self._profiles.get(t) for t in tables], floor)
