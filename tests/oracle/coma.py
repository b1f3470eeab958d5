"""COMA's per-pair scan: the reference the lake pass is checked against.

``ComaMatcher`` scores a whole lake in one pass that visits only the
column pairs able to clear the floor
(:meth:`~repro.discovery.ComaMatcher.match_lake_profiles`).  Before that
pass, every table pair was scanned on its own: a table-pair overlap gate,
then every key-like column pair's instance score, name bound and name
score.  That scan is kept here, with the name measured from fresh
:class:`NameFeatures` (no memo), so the pass is pinned to what the scan
returns and not to itself.
"""

from itertools import combinations

from repro.discovery import ColumnMatch, ComaMatcher
from repro.discovery.coma import ROUNDING_MARGIN, _name_bound, _name_score
from repro.discovery.name_similarity import NameFeatures
from repro.discovery.value_overlap import instance_similarity
from tests.oracle.overlap import tables_may_overlap


def pair_scan(matcher: ComaMatcher, profiles_a, profiles_b, floor: float = 0.0):
    """``matcher``'s matches of one table pair, column pair by column pair."""
    columns_a, columns_b = profiles_a.columns, profiles_b.columns
    if matcher._key_like_only:
        columns_a = [c for c in columns_a if matcher._key_like(c)]
        columns_b = [c for c in columns_b if matcher._key_like(c)]
    overlap = tables_may_overlap(profiles_a, profiles_b)
    name_weight, instance_weight = matcher._name_weight, matcher._instance_weight
    cutoff = floor - ROUNDING_MARGIN
    matches = []
    for col_a in columns_a:
        for col_b in columns_b:
            features_a = NameFeatures(col_a.column_name)
            features_b = NameFeatures(col_b.column_name)
            instance = instance_similarity(col_a, col_b) if overlap else 0.0
            bound = _name_bound(features_a, features_b) if cutoff > 0.0 else 1.0
            if name_weight * bound + instance_weight * instance < cutoff:
                continue
            name = _name_score(features_a, features_b)
            score = name_weight * name + instance_weight * instance
            rounded = round(float(score), 6)
            if score >= matcher._min_score and rounded >= floor:
                matches.append(
                    ColumnMatch(
                        table_a=profiles_a.table_name,
                        column_a=col_a.column_name,
                        table_b=profiles_b.table_name,
                        column_b=col_b.column_name,
                        score=rounded,
                        name_score=round(float(name), 6),
                        instance_score=round(float(instance), 6),
                    )
                )
    matches.sort(key=lambda m: (-m.score, m.column_a, m.column_b))
    return matches


def lake_scan(matcher: ComaMatcher, profiles, floor: float = 0.0, focus=None):
    """``{(i, j): matches}`` of every table pair with one (only ``focus``'s)."""
    out = {}
    for i, j in combinations(range(len(profiles)), 2):
        if focus is None or focus in (i, j):
            matches = pair_scan(matcher, profiles[i], profiles[j], floor)
            if matches:
                out[i, j] = matches
    return out
