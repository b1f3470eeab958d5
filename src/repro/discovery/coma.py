"""A COMA-style composite schema matcher.

COMA (Do & Rahm, VLDB 2002) combines multiple independent matchers and
aggregates their scores.  Our instantiation combines four name matchers
(Levenshtein, Jaro-Winkler, trigram, token overlap) and one instance
matcher (value containment/Jaccard), aggregated as a weighted average — the
"default schema matching strategy" knob of the paper's Valentine setup.

The matcher deliberately produces *spurious but not absurd* matches at the
paper's 0.55 threshold: similarly-named columns with disjoint values, or
value-overlapping columns with unrelated names, can clear the bar.  That is
the noise regime AutoFeat's pruning is evaluated against.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..dataframe import Table
from ..errors import DiscoveryError
from .name_similarity import NameFeatures, _jaro_winkler, _levenshtein, set_jaccard
from .profiles import ColumnProfile, ProfileCache, TableProfile
from .value_overlap import check_min_score, instance_similarity, tables_may_overlap

__all__ = ["ColumnMatch", "ComaMatcher"]


@dataclass(frozen=True)
class ColumnMatch:
    """One scored correspondence between columns of two tables."""

    table_a: str
    column_a: str
    table_b: str
    column_b: str
    score: float
    name_score: float
    instance_score: float


#: Ordered name pairs one matcher remembers (~0.2 MB at the bound): four
#: times the most any measured run scores — 66 pairs on a cold
#: ``wide_match`` build, 26 over 24 ``service_mixed`` blocks, at most 30 in
#: a ``python -m repro.bench`` artefact at default size, 18 on
#: ``make_wide_lake(16)``.  A larger lake restarts the memo, which costs
#: time only.
NAME_MEMO_PAIRS = 512

#: How far below a floor a pair's score bound must fall to skip the pair:
#: ``ColumnMatch.score`` is ``round(score, 6)``, which moves a score by at
#: most 5e-7, and the floor is compared with that rounded value.
ROUNDING_MARGIN = 1e-6


def _symmetric_measures(a: NameFeatures, b: NameFeatures) -> tuple[float, ...]:
    """Levenshtein, trigram Jaccard and token Jaccard — equal for ``(b, a)``."""
    return (
        _levenshtein(a.lowered, a.positions, b.lowered, b.positions),
        set_jaccard(a.trigrams, b.trigrams),
        set_jaccard(a.tokens, b.tokens),
    )


def _name_score(
    a: NameFeatures, b: NameFeatures, symmetric: tuple[float, ...] | None = None
) -> float:
    """Aggregate of the four name matchers (max of avg and token score).

    Taking the max lets a strong token match (``credit_id`` vs
    ``CreditID``) win even when character-level metrics disagree, which is
    COMA's "max" aggregation applied to its linguistic matcher group.
    ``symmetric`` is :func:`_symmetric_measures` of the pair, if known.
    """
    if a.name == b.name:
        # Every measure scores an identical pair 1.0.
        return 1.0
    levenshtein, trigram, token = symmetric or _symmetric_measures(a, b)
    jaro = _jaro_winkler(a.lowered, b.lowered, b.positions)
    return max((levenshtein + jaro + trigram) / 3.0, token)


def _name_bound(a: NameFeatures, b: NameFeatures) -> float:
    """An upper bound on :func:`_name_score` from lengths and sets alone.

    Edit distance is at least the length gap of the lowered names and
    Jaro-Winkler is at most 1; both Jaccards are exact.  ``1 - gap / longer``
    is the form ``_levenshtein`` computes, so rounding keeps the bound sound.
    """
    if a.name == b.name:
        return 1.0
    len_a, len_b = len(a.lowered), len(b.lowered)
    longer = max(len_a, len_b)
    levenshtein = 1.0 - abs(len_a - len_b) / longer if longer else 1.0
    return max(
        (levenshtein + 1.0 + set_jaccard(a.trigrams, b.trigrams)) / 3.0,
        set_jaccard(a.tokens, b.tokens),
    )


class _NameScoreMemo:
    """Bounded memo of :func:`_name_score` over *ordered* name pairs.

    A lake has far fewer distinct column names than column pairs, so the
    per-name features are derived once, the symmetric measures once per
    *unordered* pair, and Jaro-Winkler and the aggregate once per ordered
    pair: ``(a, b)`` and ``(b, a)`` are separate entries because Jaro's
    greedy character matching is not symmetric by construction.  At the
    bound the memo starts over — results never depend on what is
    remembered.
    """

    def __init__(self, max_pairs: int = NAME_MEMO_PAIRS):
        if max_pairs < 1:
            raise DiscoveryError(f"max_pairs must be >= 1, got {max_pairs}")
        self._max_pairs = max_pairs
        self._features: dict[str, NameFeatures] = {}
        self._symmetric: dict[tuple[str, str], tuple[float, ...]] = {}
        self._scores: dict[tuple[str, str], float] = {}

    def __len__(self) -> int:
        return len(self._scores)

    def features(self, name: str) -> NameFeatures:
        features = self._features.get(name)
        if features is None:
            if len(self._features) >= self._max_pairs:
                self._features.clear()  # skipped pairs add features, not scores
            features = self._features[name] = NameFeatures(name)
        return features

    def score(self, a: str, b: str) -> float:
        score = self._scores.get((a, b))
        if score is None:
            if len(self._scores) >= self._max_pairs:
                self._scores.clear()
                self._symmetric.clear()
                self._features.clear()
            features_a, features_b = self.features(a), self.features(b)
            unordered = (a, b) if a < b else (b, a)
            symmetric = self._symmetric.get(unordered)
            if symmetric is None:
                symmetric = _symmetric_measures(features_a, features_b)
                self._symmetric[unordered] = symmetric
            score = _name_score(features_a, features_b, symmetric)
            self._scores[a, b] = score
        return score


class ComaMatcher:
    """Composite name+instance matcher with COMA-style aggregation.

    Parameters
    ----------
    name_weight, instance_weight:
        Convex combination weights for the two matcher groups.  The default
        60/40 mix reflects COMA's emphasis on schema-level evidence with
        instance evidence as corroboration.
    min_score:
        Matches scoring below this are not even reported (they would be
        discarded by any realistic threshold anyway).
    key_like_only:
        When True, only column pairs where at least one side looks like a
        join column (key or low-cardinality category) are reported —
        full-feature columns rarely make sense as join keys and skipping
        them keeps the lake graph from drowning in noise.

    A matcher instance owns two memos with the same lifetime: table
    profiles (:class:`~repro.discovery.profiles.ProfileCache`) and the
    name score of every ordered name pair it has seen (bounded at
    :data:`NAME_MEMO_PAIRS`).  Both only save work — a fresh matcher
    starts empty and scores every pair to the same floats.  Instance
    scores run only for table pairs that
    :func:`~repro.discovery.value_overlap.tables_may_overlap`; every other
    pair's instance score is the exact ``0.0`` the computation returns.
    """

    def __init__(
        self,
        name_weight: float = 0.6,
        instance_weight: float = 0.4,
        min_score: float = 0.3,
        key_like_only: bool = True,
    ):
        total = name_weight + instance_weight
        if not (name_weight >= 0 and instance_weight >= 0 and total > 0):
            raise DiscoveryError(
                "matcher weights must be >= 0 and sum to a positive value, "
                f"got {name_weight} and {instance_weight}"
            )
        check_min_score(min_score)
        self._name_weight = name_weight / total
        self._instance_weight = instance_weight / total
        self._min_score = min_score
        self._key_like_only = key_like_only
        self._profiles = ProfileCache()
        self._name_scores = _NameScoreMemo()

    @staticmethod
    def _key_like(profile: ColumnProfile) -> bool:
        if profile.n_distinct <= 1:
            return False
        if profile.uniqueness >= 0.5:
            return True
        return profile.n_distinct <= 64

    def match_profiles(
        self, profiles_a: TableProfile, profiles_b: TableProfile, floor: float = 0.0
    ) -> list[ColumnMatch]:
        """Score every column pair of two profiled tables, down to ``floor``.

        A pair whose name-score bound cannot reach ``floor`` (the DRG
        builders pass their threshold) skips the costly name measures.
        """
        columns_a, columns_b = profiles_a.columns, profiles_b.columns
        if self._key_like_only:
            columns_a = [c for c in columns_a if self._key_like(c)]
            columns_b = [c for c in columns_b if self._key_like(c)]
        overlap = tables_may_overlap(profiles_a, profiles_b)
        name_score, features = self._name_scores.score, self._name_scores.features
        name_weight, instance_weight = self._name_weight, self._instance_weight
        cutoff = floor - ROUNDING_MARGIN
        named_b = [(col_b, features(col_b.column_name)) for col_b in columns_b]
        matches = []
        for col_a in columns_a:
            features_a = features(col_a.column_name)
            for col_b, features_b in named_b:
                a, b = col_a.column_name, col_b.column_name
                instance = instance_similarity(col_a, col_b) if overlap else 0.0
                bound = _name_bound(features_a, features_b) if cutoff > 0.0 else 1.0
                if name_weight * bound + instance_weight * instance < cutoff:
                    continue
                name = name_score(a, b)
                score = name_weight * name + instance_weight * instance
                rounded = round(float(score), 6)
                if score >= self._min_score and rounded >= floor:
                    matches.append(
                        ColumnMatch(
                            table_a=profiles_a.table_name,
                            column_a=a,
                            table_b=profiles_b.table_name,
                            column_b=b,
                            score=rounded,
                            name_score=round(float(name), 6),
                            instance_score=round(float(instance), 6),
                        )
                    )
        matches.sort(key=lambda m: (-m.score, m.column_a, m.column_b))
        return matches

    def match(
        self, table_a: Table, table_b: Table, floor: float = 0.0
    ) -> list[ColumnMatch]:
        """Score every column pair of two tables (profiles are cached)."""
        return self.match_profiles(*map(self._profiles, (table_a, table_b)), floor)

    def __call__(self, table_a: Table, table_b: Table, floor: float = 0.0):
        """Adapter to the DRG ``Matcher`` protocol: yields score tuples."""
        for match in self.match(table_a, table_b, floor):
            yield match.column_a, match.column_b, match.score
