"""Lazo-style joinability discovery with MinHash LSH.

COMA compares every column pair, which is quadratic in the number of
columns.  Lazo (Castro Fernandez et al., ICDE 2019) instead indexes MinHash
signatures with locality-sensitive banding so only colliding columns are
ever compared, and estimates *containment* (the joinability signal) from
the estimated Jaccard and the column cardinalities.

:class:`LazoMatcher` implements that recipe over the profile sketches and
plugs into the same ``Matcher`` protocol the DRG builder accepts, so lakes
can be built with either matcher interchangeably.
"""

from __future__ import annotations

from collections import defaultdict

import numpy as np

from ..dataframe import Table
from ..errors import DiscoveryError
from .profiles import MINHASH_PERMUTATIONS, ColumnProfile, ProfileCache, TableProfile
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

    def _band_keys(self, profile: ColumnProfile) -> list[tuple[int, bytes]]:
        signature = profile.minhash
        keys = []
        for band in range(self.bands):
            lo = band * self.rows_per_band
            chunk = signature[lo : lo + self.rows_per_band]
            keys.append((band, chunk.tobytes()))
        return keys

    def candidates(
        self, profiles_a: TableProfile, profiles_b: TableProfile
    ) -> list[tuple[ColumnProfile, ColumnProfile]]:
        """Column pairs whose signatures collide in at least one band."""
        buckets: dict[tuple[int, bytes], list[ColumnProfile]] = defaultdict(list)
        for column in profiles_a.columns:
            for key in self._band_keys(column):
                buckets[key].append(column)
        seen: set[tuple[str, str]] = set()
        out = []
        for column in profiles_b.columns:
            for key in self._band_keys(column):
                for partner in buckets.get(key, ()):
                    pair_id = (partner.column_name, column.column_name)
                    if pair_id in seen:
                        continue
                    seen.add(pair_id)
                    out.append((partner, column))
        return out

    def score(self, a: ColumnProfile, b: ColumnProfile) -> float:
        """Containment estimated from the MinHash-agreement Jaccard."""
        if a.minhash.size != b.minhash.size or a.minhash.size == 0:
            return 0.0
        jaccard = float(np.mean(a.minhash == b.minhash))
        return estimate_containment(jaccard, a.n_distinct, b.n_distinct)

    def match_profiles(
        self, profiles_a: TableProfile, profiles_b: TableProfile, floor: float = 0.0
    ) -> list[tuple[str, str, float]]:
        """Candidate pairs of two pre-profiled tables reaching ``floor``, sorted.

        The profile-level entry point the incremental re-matcher
        (:mod:`repro.discovery.incremental`) drives, so a mutated table
        is re-profiled once and matched against stored profiles instead
        of re-reading every partner table.
        """
        pairs = self.candidates(profiles_a, profiles_b)
        scored = []
        for col_a, col_b in pairs:
            score = self.score(col_a, col_b)
            rounded = round(score, 6)
            if score >= self.min_score and rounded >= floor:
                scored.append((col_a.column_name, col_b.column_name, rounded))
        scored.sort(key=lambda t: (-t[2], t[0], t[1]))
        return scored

    def match(self, table_a: Table, table_b: Table, floor: float = 0.0):
        """All candidate pairs with their containment scores, sorted."""
        return self.match_profiles(*map(self._profiles, (table_a, table_b)), floor)

    def __call__(self, table_a: Table, table_b: Table, floor: float = 0.0):
        """DRG ``Matcher`` protocol adapter."""
        yield from self.match(table_a, table_b, floor)
