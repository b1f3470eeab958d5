"""Lazo-style joinability discovery with MinHash LSH.

COMA compares every column pair, which is quadratic in the number of
columns.  Lazo (Castro Fernandez et al., ICDE 2019) instead indexes MinHash
signatures with locality-sensitive banding so only colliding columns are
ever compared, and estimates *containment* (the joinability signal) from
the estimated Jaccard and the column cardinalities.

:class:`LazoMatcher` implements that recipe over the profile sketches
behind the lake pass every matcher exposes (``match_lake`` /
``match_lake_profiles``), so lakes can be built with either matcher
interchangeably.
"""

from __future__ import annotations

from collections import defaultdict
from collections.abc import Sequence
from itertools import combinations

import numpy as np

from ..dataframe import Table
from ..errors import DiscoveryError
from .coma import ColumnMatch, LakeMatches
from .profiles import MINHASH_PERMUTATIONS, ProfileCache, TableProfile
from .value_overlap import check_min_score

__all__ = ["LazoMatcher", "estimate_containment", "validate_banding"]


def validate_banding(bands: int, rows_per_band: int) -> None:
    """Eagerly reject banding layouts the signature cannot support.

    Called by :class:`LazoMatcher` so an oversized layout fails at
    construction with a :class:`~repro.errors.DiscoveryError` instead of
    deep inside signature slicing (where short/empty band chunks would
    silently collide everything).
    """
    if bands < 1 or rows_per_band < 1:
        raise DiscoveryError(
            f"bands and rows_per_band must be >= 1, "
            f"got {bands}x{rows_per_band}"
        )
    if bands * rows_per_band > MINHASH_PERMUTATIONS:
        raise DiscoveryError(
            f"banding {bands}x{rows_per_band} exceeds the "
            f"{MINHASH_PERMUTATIONS}-permutation signature"
        )


def estimate_containment(
    jaccard: float, n_distinct_a: int, n_distinct_b: int
) -> float:
    """Lazo's Jaccard -> containment conversion.

    With |A ∩ B| = J/(1+J) · (|A| + |B|), containment of the smaller set is
    that intersection over min(|A|, |B|), clipped to [0, 1].
    """
    smaller = min(n_distinct_a, n_distinct_b)
    if smaller == 0 or jaccard <= 0.0:
        return 0.0
    intersection = jaccard / (1.0 + jaccard) * (n_distinct_a + n_distinct_b)
    return float(min(1.0, intersection / smaller))


class LazoMatcher:
    """Banded MinHash-LSH candidate generation + containment scoring.

    Parameters
    ----------
    bands, rows_per_band:
        The LSH banding layout; ``bands * rows_per_band`` must not exceed
        the MinHash signature length.  More bands = more candidates
        (higher recall, more spurious pairs) — the paper's data-lake
        setting *wants* some spurious edges.
    min_score:
        Candidates scoring below this containment-based score are dropped.
    """

    def __init__(
        self,
        bands: int = 16,
        rows_per_band: int = 4,
        min_score: float = 0.3,
    ):
        validate_banding(bands, rows_per_band)
        check_min_score(min_score)
        self.bands = bands
        self.rows_per_band = rows_per_band
        self.min_score = min_score
        self._profiles = ProfileCache()

    def match_lake_profiles(
        self,
        profiles: Sequence[TableProfile],
        floor: float = 0.0,
        focus: int | None = None,
    ) -> LakeMatches:
        """Score every table pair of a profiled lake, down to ``floor``.

        With ``focus``, only the pairs that table ``focus`` is part of.
        Every column's band keys are bucketed once per pass; two columns of
        different tables sharing a bucket are a candidate, scored once by
        the containment estimated from their MinHash agreement.  A pair's
        list is sorted on a key unique within the pair, so the order
        candidates are found in never shows.
        """
        columns = [c for profile in profiles for c in profile.columns]
        tables = [i for i, profile in enumerate(profiles) for _ in profile.columns]
        buckets: dict[tuple[int, bytes], list[int]] = defaultdict(list)
        for g, column in enumerate(columns):
            signature = column.minhash
            for band in range(self.bands):
                lo = band * self.rows_per_band
                chunk = signature[lo : lo + self.rows_per_band]
                buckets[band, chunk.tobytes()].append(g)
        candidates = {
            (g, h)
            for members in buckets.values()
            for g, h in combinations(members, 2)
            if tables[g] != tables[h]
            and (focus is None or focus in (tables[g], tables[h]))
        }
        pairs: dict[tuple[int, int], list[ColumnMatch]] = {}
        for g, h in candidates:
            a, b = columns[g], columns[h]
            jaccard = float(np.mean(a.minhash == b.minhash))
            score = estimate_containment(jaccard, a.n_distinct, b.n_distinct)
            rounded = round(score, 6)
            if score >= self.min_score and rounded >= floor:
                match = ColumnMatch(
                    a.table_name, a.column_name, b.table_name, b.column_name, rounded
                )
                pairs.setdefault((tables[g], tables[h]), []).append(match)
        for matches in pairs.values():
            matches.sort(key=lambda m: (-m.score, m.column_a, m.column_b))
        return LakeMatches(pairs)

    def match_lake(self, tables: Sequence[Table], floor: float = 0.0) -> LakeMatches:
        """Score every table pair of a lake (profiles are cached)."""
        return self.match_lake_profiles([self._profiles.get(t) for t in tables], floor)

