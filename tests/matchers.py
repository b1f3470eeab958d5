"""Test helpers around the one matcher protocol, the lake pass.

Every matcher scores a whole lake in one call — ``match_lake(tables,
floor)``, or ``match_lake_profiles(profiles, floor, focus)`` on profiles —
and returns a :class:`~repro.discovery.coma.LakeMatches`.
:func:`pair_matches` reads one table pair off that pass, and
:class:`PairFake` is a lake-shaped fake built from a per-pair rule.
"""

from itertools import combinations

from repro.discovery import ColumnMatch, TableProfile, profile_table
from repro.discovery.coma import LakeMatches


def pair_matches(matcher, a, b, floor: float = 0.0) -> list[ColumnMatch]:
    """The matches of one table pair: the lake of ``a`` and ``b``, which are
    two tables or two profiles."""
    if isinstance(a, TableProfile):
        return matcher.match_lake_profiles([a, b], floor)[0, 1]
    return matcher.match_lake([a, b], floor)[0, 1]


class PairFake:
    """A lake-shaped fake matcher: ``rule(profile_a, profile_b)`` gives one
    table pair's ``(column_a, column_b, score)`` rows, in order.

    It ignores the floor, as a matcher may: the DRG builders filter by
    their threshold themselves.
    """

    def __init__(self, rule):
        self.rule = rule

    def match_lake(self, tables, floor: float = 0.0) -> LakeMatches:
        return self.match_lake_profiles([profile_table(t) for t in tables], floor)

    def match_lake_profiles(self, profiles, floor: float = 0.0, focus=None):
        pairs = {}
        for i, j in combinations(range(len(profiles)), 2):
            if focus is None or focus in (i, j):
                a, b = profiles[i], profiles[j]
                rows = list(self.rule(a, b))
                if rows:
                    pairs[i, j] = [
                        ColumnMatch(a.table_name, x, b.table_name, y, score)
                        for x, y, score in rows
                    ]
        return LakeMatches(pairs)
