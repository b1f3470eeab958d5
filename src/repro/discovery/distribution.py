"""Distribution-based schema matching for numeric columns.

Value-overlap matchers miss joinable numeric columns whose representations
differ (floats rounded differently, unit-scaled copies).  Distribution
matchers compare column *shapes* instead: here, the L1 distance between
min-max-normalised quantile sketches, combined with raw range overlap.

This family is deliberately weaker evidence than overlap — two unrelated
uniform columns look alike — which makes it a realistic generator of the
spurious lake edges the paper's pruning is designed to absorb.  It is also
the right tool for *unionability*-style relatedness, so it rounds out the
matcher menu alongside COMA (composite) and Lazo (overlap/LSH).
"""

from __future__ import annotations

from collections.abc import Sequence
from itertools import combinations

import numpy as np

from ..dataframe import Table
from .coma import ColumnMatch, LakeMatches
from .name_similarity import token_similarity
from .profiles import ColumnProfile, ProfileCache, QuantileSketch, TableProfile
from .value_overlap import check_min_score, numeric_range_overlap

__all__ = ["QuantileSketch", "quantile_similarity", "DistributionMatcher"]


def quantile_similarity(a: QuantileSketch, b: QuantileSketch) -> float:
    """1 - mean L1 distance between normalised quantile vectors, in [0, 1]."""
    if a.n_values == 0 or b.n_values == 0:
        return 0.0
    distance = float(np.mean(np.abs(a.quantiles - b.quantiles)))
    return max(0.0, 1.0 - distance)


class DistributionMatcher:
    """Shape + range + name evidence for numeric column pairs.

    score = 0.45 · quantile_similarity + 0.25 · range_overlap
          + 0.30 · token_name_similarity

    Non-numeric columns never match.  The name term keeps the matcher from
    linking every pair of similarly-shaped measurements, while still
    letting renamed copies through.
    """

    def __init__(self, min_score: float = 0.35):
        check_min_score(min_score)
        self.min_score = min_score
        self._profiles = ProfileCache()

    @staticmethod
    def _score(a: ColumnProfile, b: ColumnProfile) -> float:
        """Composite distribution score of two numeric columns."""
        shape = quantile_similarity(a.quantiles, b.quantiles)
        ranges = numeric_range_overlap(a, b)
        names = token_similarity(a.column_name, b.column_name)
        return 0.45 * shape + 0.25 * ranges + 0.30 * names

    def match_lake_profiles(
        self,
        profiles: Sequence[TableProfile],
        floor: float = 0.0,
        focus: int | None = None,
    ) -> LakeMatches:
        """Every numeric column pair of every table pair (only ``focus``'s)
        reaching ``min_score`` and ``floor``."""
        numeric = [[c for c in p.columns if c.dtype.is_numeric] for p in profiles]
        pairs: dict[tuple[int, int], list[ColumnMatch]] = {}
        for i, j in combinations(range(len(profiles)), 2):
            if focus is not None and focus not in (i, j):
                continue
            for a in numeric[i]:
                for b in numeric[j]:
                    score = self._score(a, b)
                    rounded = round(score, 6)
                    if score >= self.min_score and rounded >= floor:
                        pairs.setdefault((i, j), []).append(
                            ColumnMatch(
                                a.table_name, a.column_name,
                                b.table_name, b.column_name, rounded,
                            )
                        )
        for matches in pairs.values():
            matches.sort(key=lambda m: (-m.score, m.column_a, m.column_b))
        return LakeMatches(pairs)

    def match_lake(self, tables: Sequence[Table], floor: float = 0.0) -> LakeMatches:
        """Score every table pair of a lake (profiles are cached)."""
        return self.match_lake_profiles([self._profiles.get(t) for t in tables], floor)
