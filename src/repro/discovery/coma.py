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

from collections.abc import Collection, Sequence
from dataclasses import dataclass
from itertools import chain

import numpy as np

from ..dataframe import Table
from ..errors import DiscoveryError
from .name_similarity import NameFeatures, _jaro_winkler, _levenshtein, set_jaccard
from .profiles import ColumnProfile, ProfileCache, TableProfile
from .value_overlap import check_min_score, instance_similarity

__all__ = ["ColumnMatch", "ComaMatcher", "LakeMatches"]


@dataclass(frozen=True)
class ColumnMatch:
    """One scored correspondence between columns of two tables.

    Every matcher's lake pass emits these.  ``name_score`` and
    ``instance_score`` are COMA's two channels; a matcher that does not
    split its score that way leaves them ``None``.
    """

    table_a: str
    column_a: str
    table_b: str
    column_b: str
    score: float
    name_score: float | None = None
    instance_score: float | None = None


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

#: The largest :func:`_name_bound` of two names sharing no trigram and no
#: token: both Jaccards are ``0.0`` and the Levenshtein bound is at most
#: 1, so ``(lev + 1.0 + 0.0) / 3.0 <= 2.0 / 3.0`` — in floats too, since
#: float addition and division round monotonically.
_UNSHARED_NAME_BOUND = 2.0 / 3.0

#: Entry pairs :func:`_sharing_pairs` makes at a time before tallying
#: them, so its memory follows the distinct pairs, not the shared items.
PAIR_BLOCK = 1 << 20


@dataclass(frozen=True)
class LakeMatches:
    """One lake pass: every table pair's matches, and the work it took.

    What every matcher's ``match_lake_profiles(profiles, floor, focus)``
    returns.  ``pairs`` maps positions ``(i, j)``, ``i < j``, in the
    profiled sequence to the pair's matches, sorted by ``(-score,
    column_a, column_b)``; a pair without one is absent (``lake[i, j]``
    reads it as ``[]``).  The work counts are COMA's; other matchers
    leave them 0.
    """

    pairs: dict[tuple[int, int], list[ColumnMatch]]
    #: Table pairs with a column pair in ``column_pairs_intersected``.
    table_pairs_sharing: int = 0
    #: Column pairs whose sketches share a token hash, intersected exactly.
    column_pairs_intersected: int = 0
    #: Distinct unordered name pairs whose ``_name_bound`` was taken.
    name_pairs_bounded: int = 0
    #: Column pairs whose bound reached the floor, so their name was scored.
    column_pairs_name_scored: int = 0

    def __getitem__(self, pair: tuple[int, int]) -> list[ColumnMatch]:
        return self.pairs.get(pair, [])


def _sharing_pairs(
    item_sets: Sequence[Collection[str]], group: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Pairs of sets in different groups that may share an item, and how many.

    ``group`` holds one integer per set; two sets of one group are never
    paired.  Returns the pairs ``(g, h)``, ``g < h``, as sorted codes
    ``g * n + h`` (``n = len(item_sets)``), a superset of the sharing
    pairs, and per pair a count never below the number of items shared.

    The items are hashed in-process (``str`` caches its hash) and sorted,
    and every run of equal hashes pairs up its sets: equal items hash
    equally, so no sharing pair is missed, and a hash collision can only
    add a pair or a count.  The hashes live for one call and never leave
    the process.
    """
    n = len(item_sets)
    sizes = np.fromiter(map(len, item_sets), dtype=np.int64, count=n)
    items = chain.from_iterable(item_sets)
    hashes = np.fromiter(map(hash, items), dtype=np.int64, count=int(sizes.sum()))
    order = np.argsort(hashes)
    owner = np.repeat(np.arange(n), sizes)[order]
    hashes = hashes[order]
    # Entry k pairs with the later[k] entries after it in its run of equal
    # hashes; the pairs are made and tallied PAIR_BLOCK at a time.
    starts = np.flatnonzero(np.concatenate(([True], hashes[1:] != hashes[:-1])))
    del order, hashes  # a lake's worth of tokens: free them before pairing
    ends = np.append(starts[1:], len(owner))
    later = np.repeat(ends, ends - starts) - np.arange(len(owner)) - 1
    made = np.cumsum(later)  # pairs made by the entries up to k
    tallies = []
    lo = done = 0
    while done < (made[-1] if len(made) else 0):
        hi = max(int(np.searchsorted(made, done + PAIR_BLOCK, side="right")), lo + 1)
        span = later[lo:hi]
        first = np.repeat(np.arange(lo, hi), span)
        offset = np.arange(len(first)) - np.repeat(made[lo:hi] - span - done, span)
        a, b = owner[first], owner[first + 1 + offset]
        apart = group[a] != group[b]
        a, b = a[apart], b[apart]
        codes = np.minimum(a, b) * n + np.maximum(a, b)
        tallies.append(np.unique(codes, return_counts=True))
        lo, done = hi, int(made[hi - 1])
    if len(tallies) == 1:
        return tallies[0]
    codes, inverse = np.unique(
        np.concatenate([np.empty(0, dtype=np.int64), *(c for c, _ in tallies)]),
        return_inverse=True,
    )
    counts = np.concatenate([np.empty(0), *(k for _, k in tallies)])
    return codes, np.bincount(inverse, counts, minlength=len(codes)).astype(np.int64)


def _sharing_columns(
    columns: Sequence[ColumnProfile], tables: Sequence[int], focus: int | None
) -> list[tuple[int, int]]:
    """Index pairs ``(g, h)``, ``g < h``, of columns of two tables whose
    sketches may share a token (every pair that does).

    With ``focus``, a column of another table that shares no token with the
    focus table is left out before hashing: it can pair with no focus column.
    """
    sketches = [c.sketch for c in columns]
    if focus is not None:
        focal = frozenset().union(*(s for s, t in zip(sketches, tables) if t == focus))
        sketches = [
            s if t == focus or not focal.isdisjoint(s) else ()
            for s, t in zip(sketches, tables)
        ]
    codes, _ = _sharing_pairs(sketches, np.asarray(tables, dtype=np.int64))
    first, second = np.divmod(codes, max(len(columns), 1))
    return list(zip(first.tolist(), second.tolist()))


def _counts_at(codes: np.ndarray, keys: np.ndarray, counts: np.ndarray) -> np.ndarray:
    """The count of each code among the sorted ``keys``, 0 where absent."""
    if not len(keys):
        return np.zeros(len(codes), dtype=np.int64)
    at = np.minimum(np.searchsorted(keys, codes), len(keys) - 1)
    return np.where(keys[at] == codes, counts[at], 0)


def _jaccards(shared: np.ndarray, size_a: np.ndarray, size_b: np.ndarray) -> np.ndarray:
    """:func:`set_jaccard` from counts, with a shared count capped at the
    smaller size (so an over-count still gives at most 1)."""
    shared = np.minimum(shared, np.minimum(size_a, size_b))
    union = size_a + size_b - shared
    return np.where(union > 0, shared / np.maximum(union, 1), 0.0)


def _name_bound_ceilings(
    features: Sequence[NameFeatures],
    n: np.ndarray,
    m: np.ndarray,
    shared_trigrams: np.ndarray,
    shared_tokens: np.ndarray,
) -> np.ndarray:
    """:func:`_name_bound` of the name pairs ``(features[n], features[m])``
    at once, from shared trigram and token counts that may be too high.

    The same float operations in the same order as ``_name_bound``, each
    monotone in the shared counts: a ceiling is never below the pair's
    bound, and equals it when the counts are exact.
    """
    length = np.array([len(f.lowered) for f in features], dtype=np.int64)
    trigrams = np.array([len(f.trigrams) for f in features], dtype=np.int64)
    tokens = np.array([len(f.tokens) for f in features], dtype=np.int64)
    longer = np.maximum(length[n], length[m])
    levenshtein = 1.0 - np.abs(length[n] - length[m]) / np.maximum(longer, 1)
    trigram = _jaccards(shared_trigrams, trigrams[n], trigrams[m])
    ceilings = np.maximum(
        (levenshtein + 1.0 + trigram) / 3.0,
        _jaccards(shared_tokens, tokens[n], tokens[m]),
    )
    ceilings[n == m] = 1.0
    return ceilings


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
    :data:`NAME_MEMO_PAIRS`); it also keeps the shared trigram and token
    counts of the last pass's names.  All only save work — a fresh matcher
    starts empty and scores every pair to the same floats.  A lake is
    scored in one pass (:meth:`match_lake_profiles`); a table pair is the
    lake of two.
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
        #: The last pass's names and their shared trigram / token counts.
        self._name_sharing: tuple = (None,)

    @staticmethod
    def _key_like(profile: ColumnProfile) -> bool:
        if profile.n_distinct <= 1:
            return False
        if profile.uniqueness >= 0.5:
            return True
        return profile.n_distinct <= 64

    def match_lake_profiles(
        self,
        profiles: Sequence[TableProfile],
        floor: float = 0.0,
        focus: int | None = None,
    ) -> LakeMatches:
        """Score every table pair of a profiled lake, down to ``floor``.

        With ``focus``, only the pairs that table ``focus`` is part of.
        Each pair's list is what scoring its column pairs one by one gives:
        the instance score, then ``_name_bound`` against the floor, then
        the name score, weighted sum, floor and rounding.  Only two kinds
        of column pair can get past the bound, and only they are scored:

        (a) pairs whose sketches share a token — every other pair's
            instance score is the exact ``0.0`` (no shared token makes
            containment, Jaccard and their sum ``0.0``);
        (b) pairs whose *name pair* clears the floor at instance ``0.0``,
            each distinct name pair bounded once.  Names sharing no
            trigram and no token have a bound of at most ``2/3``, so above
            a floor of ``name_weight · 2/3`` only names sharing one are
            bounded.

        (a) come from :func:`_sharing_columns`, (b) from :meth:`_name_pairs`.
        A pair's list is sorted on a key unique within the pair, so the
        order candidates are found in never shows.
        """
        keep = self._key_like if self._key_like_only else None
        columns: list[ColumnProfile] = []
        tables: list[int] = []
        for i, profile in enumerate(profiles):
            kept = list(filter(keep, profile.columns)) if keep else profile.columns
            columns.extend(kept)
            tables.extend([i] * len(kept))

        def touches_focus(g: int, h: int) -> bool:
            return focus is None or focus in (tables[g], tables[h])

        instances = {
            (g, h): instance_similarity(columns[g], columns[h])
            for g, h in _sharing_columns(columns, tables, focus)
            if touches_focus(g, h)
        }
        occurrences: dict[str, list[int]] = {}
        for g, column in enumerate(columns):
            occurrences.setdefault(column.column_name, []).append(g)
        features = {name: self._name_scores.features(name) for name in occurrences}
        name_weight, instance_weight = self._name_weight, self._instance_weight
        cutoff = floor - ROUNDING_MARGIN
        bounds: dict[tuple[str, str], float] = {}

        def clears(a: str, b: str, instance: float) -> bool:
            """The pair scan's bound test (it skips a pair failing it)."""
            if not cutoff > 0.0:
                return True
            key = (a, b) if a <= b else (b, a)
            bound = bounds.get(key)
            if bound is None:
                bound = bounds[key] = _name_bound(features[a], features[b])
            return name_weight * bound + instance_weight * instance >= cutoff

        # (a) with their instance scores, then (b) at instance 0.0.
        candidates = dict(instances)
        name_pairs, bounded = self._name_pairs(
            features, occurrences, tables, focus, cutoff
        )
        for a, b in name_pairs:
            if not clears(a, b, 0.0):
                continue
            for g in occurrences[a]:
                for h in occurrences[b]:
                    if tables[g] != tables[h] and touches_focus(g, h):
                        if g < h:
                            candidates.setdefault((g, h), 0.0)
                        elif a != b:
                            candidates.setdefault((h, g), 0.0)

        name_score, min_score = self._name_scores.score, self._min_score
        pairs: dict[tuple[int, int], list[ColumnMatch]] = {}
        scored = 0
        for (g, h), instance in candidates.items():
            a, b = columns[g].column_name, columns[h].column_name
            if not clears(a, b, instance):
                continue
            scored += 1
            name = name_score(a, b)
            score = name_weight * name + instance_weight * instance
            rounded = round(float(score), 6)
            if score >= min_score and rounded >= floor:
                i, j = tables[g], tables[h]
                pairs.setdefault((i, j), []).append(
                    ColumnMatch(
                        table_a=profiles[i].table_name,
                        column_a=a,
                        table_b=profiles[j].table_name,
                        column_b=b,
                        score=rounded,
                        name_score=round(float(name), 6),
                        instance_score=round(float(instance), 6),
                    )
                )
        for matches in pairs.values():
            matches.sort(key=lambda m: (-m.score, m.column_a, m.column_b))
        return LakeMatches(
            pairs=pairs,
            table_pairs_sharing=len({(tables[g], tables[h]) for g, h in instances}),
            column_pairs_intersected=len(instances),
            name_pairs_bounded=bounded,
            column_pairs_name_scored=scored,
        )

    def _name_pairs(
        self,
        features: dict[str, NameFeatures],
        occurrences: dict[str, list[int]],
        tables: list[int],
        focus: int | None,
        cutoff: float,
    ) -> tuple[list[tuple[str, str]], int]:
        """Unordered name pairs, a name with itself included, whose bound
        may reach ``cutoff`` at instance ``0.0``; and how many were bounded.

        Above ``name_weight · 2/3`` only names sharing a trigram or token
        are candidates, else every pair is.  With ``focus``, only pairs of
        a name in that table and a name elsewhere.  The bounds are the
        vectorised ceilings, which never fall below ``_name_bound``.
        """
        names = tuple(features)
        every = np.arange(len(names))
        sharing = self._name_sharing
        if sharing[0] != names:
            # A service's passes see the same names mutation after mutation.
            sharing = self._name_sharing = (
                names,
                *_sharing_pairs([f.trigrams for f in features.values()], every),
                *_sharing_pairs([f.tokens for f in features.values()], every),
            )
        _, trigram_codes, shared_trigrams, token_codes, shared_tokens = sharing
        if self._name_weight * _UNSHARED_NAME_BOUND < cutoff:
            codes = np.union1d(trigram_codes, token_codes)
        else:
            first, second = np.triu_indices(len(names), 1)
            codes = first * len(names) + second
        codes = np.concatenate([every * (len(names) + 1), codes])
        n, m = np.divmod(codes, max(len(names), 1))
        if focus is not None:
            in_focus = np.zeros(len(names), dtype=bool)
            elsewhere = np.zeros(len(names), dtype=bool)
            for k, name in enumerate(names):
                for g in occurrences[name]:
                    (in_focus if tables[g] == focus else elsewhere)[k] = True
            keep = (in_focus[n] & elsewhere[m]) | (in_focus[m] & elsewhere[n])
            codes, n, m = codes[keep], n[keep], m[keep]
        bounded = 0
        if cutoff > 0.0:
            bounded = len(codes)
            ceilings = _name_bound_ceilings(
                list(features.values()),
                n,
                m,
                _counts_at(codes, trigram_codes, shared_trigrams),
                _counts_at(codes, token_codes, shared_tokens),
            )
            keep = ~(self._name_weight * ceilings < cutoff)
            n, m = n[keep], m[keep]
        return [(names[a], names[b]) for a, b in zip(n.tolist(), m.tolist())], bounded

    def match_lake(self, tables: Sequence[Table], floor: float = 0.0) -> LakeMatches:
        """Score every table pair of a lake (profiles are cached)."""
        return self.match_lake_profiles([self._profiles.get(t) for t in tables], floor)
