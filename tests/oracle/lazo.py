"""Lazo's per-pair scan: the reference its lake banding pass is checked against.

``LazoMatcher`` buckets every column's band keys once per lake
(:meth:`~repro.discovery.LazoMatcher.match_lake_profiles`).  Before that
pass, each table pair was banded on its own: the first table's band keys
bucketed, the second table's columns looked up in them, each colliding
column pair scored once by the containment its MinHash agreement
estimates, then sorted.  That scan is kept here so the pass is pinned to
what it returns and not to itself.
"""

from collections import defaultdict
from itertools import combinations

import numpy as np

from repro.discovery import LazoMatcher, estimate_containment


def _band_keys(matcher: LazoMatcher, column) -> list[tuple[int, bytes]]:
    signature = column.minhash
    keys = []
    for band in range(matcher.bands):
        lo = band * matcher.rows_per_band
        keys.append((band, signature[lo : lo + matcher.rows_per_band].tobytes()))
    return keys


def candidates(matcher: LazoMatcher, profiles_a, profiles_b) -> list[tuple]:
    """Column pairs of two tables whose signatures collide in at least one band."""
    buckets = defaultdict(list)
    for column in profiles_a.columns:
        for key in _band_keys(matcher, column):
            buckets[key].append(column)
    seen, out = set(), []
    for column in profiles_b.columns:
        for key in _band_keys(matcher, column):
            for partner in buckets.get(key, ()):
                pair_id = (partner.column_name, column.column_name)
                if pair_id not in seen:
                    seen.add(pair_id)
                    out.append((partner, column))
    return out


def score(a, b) -> float:
    """Containment estimated from the MinHash-agreement Jaccard."""
    if a.minhash.size != b.minhash.size or a.minhash.size == 0:
        return 0.0
    jaccard = float(np.mean(a.minhash == b.minhash))
    return estimate_containment(jaccard, a.n_distinct, b.n_distinct)


def pair_scan(matcher: LazoMatcher, profiles_a, profiles_b, floor: float = 0.0):
    """``(column_a, column_b, score)`` of one table pair's candidates reaching
    ``min_score`` and ``floor``, sorted by ``(-score, column_a, column_b)``."""
    scored = []
    for col_a, col_b in candidates(matcher, profiles_a, profiles_b):
        value = score(col_a, col_b)
        rounded = round(value, 6)
        if value >= matcher.min_score and rounded >= floor:
            scored.append((col_a.column_name, col_b.column_name, rounded))
    scored.sort(key=lambda t: (-t[2], t[0], t[1]))
    return scored


def lake_scan(matcher: LazoMatcher, profiles, floor: float = 0.0, focus=None):
    """``{(i, j): rows}`` of every table pair with a match (only ``focus``'s)."""
    out = {}
    for i, j in combinations(range(len(profiles)), 2):
        if focus is None or focus in (i, j):
            rows = pair_scan(matcher, profiles[i], profiles[j], floor)
            if rows:
                out[i, j] = rows
    return out
