"""Sketch-accelerated exact schema matching: candidates first, COMA second.

Cold DRG construction scores every cross-table column pair with the full
exact matcher — O(n²) in the number of columns, with full value scans per
pair.  That is fine for the paper's 9-table evaluation lakes and fatal at
the thousands-of-tables scale the roadmap targets.  HyperJoin treats
joinable-table discovery as a *standing retrieval index* rather than
pairwise scoring; the existing :class:`~repro.discovery.LazoMatcher`
already shows the MinHash/banding machinery works.  This module combines
the two ideas: sketches generate **candidates**, the exact matcher stays
the **verifier**, so edge weights — and with them every paper figure —
are provably unchanged whenever candidate recall is 1.0.

Two classes:

* :class:`JoinabilityIndex` — banded MinHash sketches (reusing the
  :mod:`~repro.discovery.profiles` signatures) plus three name/value
  blocking channels per registered column, queryable for the candidate
  column pairs of any two tables and for the candidate *table* pairs of
  a whole lake;
* :class:`CandidateFilteredMatcher` — wraps any exact profile-aware
  matcher (COMA, value-overlap) and only scores the pairs the index
  surfaces, with a :meth:`~CandidateFilteredMatcher.verify_exact` recall
  gate that can replay the full quadratic scan and report exactly which
  would-be edges the candidate generator missed.

Blocking channels
-----------------
A column pair is a candidate iff it collides in at least one channel:

1. **value bands** — the column's :data:`MINHASH_PERMUTATIONS`-long
   MinHash signature split into ``bands`` bands of ``rows_per_band``
   rows; equal bands mean Jaccard-similar full value sets (the Lazo
   recipe, catching joinable keys of any cardinality);
2. **normalised name** — the identifier with case/separators removed
   (``CreditID`` ≡ ``credit_id``);
3. **token set** — the sorted identifier-token set (``id_credit`` ≡
   ``credit_id``);
4. **sketch values** — an inverted index over the (bounded) distinct
   value sketch, which catches small-domain containment pairs MinHash
   bands are blind to (``{0,1}`` inside ``{0..7}`` has Jaccard 0.25 but
   shares every value).

Determinism contract: the candidate set of a table pair is a pure
function of the two tables' profiles and the banding layout — never of
registration order or of any third table — so the incremental mutation
path (:mod:`~repro.discovery.incremental`) and a cold rebuild see
identical candidates, and at recall 1.0 the filtered matcher's output is
byte-identical (same matches, same scores, same order) to the exact
scan's.  What can still be missed, by construction, is a pair whose
exact score clears the edge threshold through *moderate* name similarity
without any shared token plus *asymmetric* containment of a large value
domain — the trade-off :meth:`verify_exact` exists to measure and
``DiscoveryService(candidate_min_recall=)`` exists to enforce.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from itertools import combinations
from typing import Iterable, Mapping, Sequence

from ..dataframe import Table
from ..errors import DiscoveryError
from ..obs.metrics import CounterRecord
from .name_similarity import tokenize_identifier
from .profiles import (
    MINHASH_PERMUTATIONS,
    ColumnProfile,
    ProfileCache,
    TableProfile,
)

__all__ = [
    "DEFAULT_BANDS",
    "DEFAULT_ROWS_PER_BAND",
    "CandidateStats",
    "RecallReport",
    "JoinabilityIndex",
    "CandidateFilteredMatcher",
]

DEFAULT_BANDS = 16
DEFAULT_ROWS_PER_BAND = 4

#: A column's bucket keys are tuples tagged by channel: ``("v", band,
#: bytes)`` for value bands, ``("n", name)`` / ``("t", tokens)`` for the
#: two name channels and ``("e", value)`` for inverted sketch values.
BucketKey = tuple


def validate_banding(bands: int, rows_per_band: int) -> None:
    """Eagerly reject banding layouts the signature cannot support.

    Shared by :class:`JoinabilityIndex` and
    :class:`~repro.discovery.LazoMatcher` so an oversized layout fails at
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


@dataclass
class CandidateStats(CounterRecord):
    """Cumulative work accounting of one filtered matcher's lifetime.

    ``pairs_considered`` counts the cross-table column pairs the
    equivalent full quadratic scan would have examined;
    ``pairs_scored`` counts the pairs actually handed to the exact
    matcher.  Their difference — :attr:`candidates_pruned` — is the work
    the sketch index saved.
    """

    pairs_considered: int = 0
    pairs_scored: int = 0
    table_pairs_probed: int = 0
    tables_registered: int = 0
    columns_registered: int = 0
    index_build_seconds: float = 0.0

    prefix = "sketch_index"
    derived = ("candidates_pruned", "prune_ratio")

    @property
    def candidates_pruned(self) -> int:
        return max(self.pairs_considered - self.pairs_scored, 0)

    @property
    def prune_ratio(self) -> float:
        """Fraction of considered pairs never exactly scored."""
        if self.pairs_considered == 0:
            return 0.0
        return self.candidates_pruned / self.pairs_considered


@dataclass(frozen=True)
class RecallReport:
    """Outcome of replaying the full quadratic scan against the index.

    ``missed`` lists the ``(table_a, column_a, table_b, column_b,
    score)`` pairs the exact scan rates at or above ``threshold`` but the
    candidate generator never surfaced — the would-be DRG edges candidate
    filtering would silently drop.
    """

    threshold: float
    table_pairs: int
    edges_expected: int
    edges_found: int
    missed: tuple[tuple[str, str, str, str, float], ...] = ()

    @property
    def recall(self) -> float:
        """Missed-edge recall; vacuously 1.0 when no edges exist."""
        if self.edges_expected == 0:
            return 1.0
        return self.edges_found / self.edges_expected

    def as_dict(self) -> dict:
        return {
            "threshold": self.threshold,
            "table_pairs": self.table_pairs,
            "edges_expected": self.edges_expected,
            "edges_found": self.edges_found,
            "recall": round(self.recall, 6),
            "missed": [list(m) for m in self.missed],
        }


def _normalised_name(name: str) -> str:
    return "".join(tokenize_identifier(name))


class JoinabilityIndex:
    """Standing multi-channel blocking index over registered columns.

    Parameters
    ----------
    bands, rows_per_band:
        The LSH banding layout over the MinHash value signatures;
        ``bands * rows_per_band`` must not exceed the signature length
        (validated eagerly).  More bands surface more candidates.
    """

    def __init__(
        self,
        bands: int = DEFAULT_BANDS,
        rows_per_band: int = DEFAULT_ROWS_PER_BAND,
    ):
        validate_banding(bands, rows_per_band)
        self.bands = bands
        self.rows_per_band = rows_per_band
        self._profiles: dict[str, TableProfile] = {}
        #: bucket key -> insertion-ordered set of (table, column) members.
        self._buckets: dict[BucketKey, dict[tuple[str, str], None]] = {}
        #: (table, column) -> that column's bucket keys, for eviction and
        #: for probing without re-hashing signatures.
        self._keys: dict[tuple[str, str], tuple[BucketKey, ...]] = {}

    # -- sketch construction -------------------------------------------------

    def column_keys(self, profile: ColumnProfile) -> tuple[BucketKey, ...]:
        """All blocking-channel bucket keys of one column profile."""
        keys: list[BucketKey] = []
        signature = profile.minhash
        for band in range(self.bands):
            lo = band * self.rows_per_band
            chunk = signature[lo : lo + self.rows_per_band]
            keys.append(("v", band, chunk.tobytes()))
        tokens = tokenize_identifier(profile.column_name)
        keys.append(("n", "".join(tokens)))
        keys.append(("t", tuple(sorted(set(tokens)))))
        for value in sorted(profile.sketch):
            keys.append(("e", value))
        return tuple(keys)

    # -- registration --------------------------------------------------------

    def __contains__(self, table_name: str) -> bool:
        return table_name in self._profiles

    @property
    def table_names(self) -> list[str]:
        return list(self._profiles.keys())

    @property
    def n_columns(self) -> int:
        return len(self._keys)

    def profile(self, table_name: str) -> TableProfile:
        try:
            return self._profiles[table_name]
        except KeyError:
            raise DiscoveryError(
                f"table {table_name!r} is not registered in the index"
            ) from None

    def register(self, profile: TableProfile) -> None:
        """Insert (or replace) one table's column sketches."""
        if not profile.table_name:
            raise DiscoveryError("indexed tables need a non-empty name")
        if profile.table_name in self._profiles:
            self.evict(profile.table_name)
        self._profiles[profile.table_name] = profile
        for column in profile.columns:
            member = (profile.table_name, column.column_name)
            keys = self.column_keys(column)
            self._keys[member] = keys
            for key in keys:
                self._buckets.setdefault(key, {})[member] = None

    def evict(self, table_name: str) -> None:
        """Remove one table's sketches from every bucket."""
        profile = self._profiles.pop(table_name, None)
        if profile is None:
            raise DiscoveryError(
                f"table {table_name!r} is not registered in the index"
            )
        for column in profile.columns:
            member = (table_name, column.column_name)
            for key in self._keys.pop(member, ()):
                bucket = self._buckets.get(key)
                if bucket is None:
                    continue
                bucket.pop(member, None)
                if not bucket:
                    del self._buckets[key]

    # -- queries -------------------------------------------------------------

    def candidate_columns(
        self, name_a: str, name_b: str
    ) -> list[tuple[str, str]]:
        """Column pairs of two registered tables colliding in any channel.

        A pure function of the two tables' profiles: membership of a
        shared bucket is decided by the columns' own keys, so the result
        never depends on registration order or on other tables.  Returned
        sorted for deterministic scoring order.
        """
        profile_b = self.profile(name_b)
        if name_a not in self._profiles:
            raise DiscoveryError(
                f"table {name_a!r} is not registered in the index"
            )
        out: set[tuple[str, str]] = set()
        for column in profile_b.columns:
            member_b = (name_b, column.column_name)
            for key in self._keys[member_b]:
                bucket = self._buckets.get(key, ())
                for table, column_a in bucket:
                    if table == name_a:
                        out.add((column_a, column.column_name))
        return sorted(out)

    def candidate_table_pairs(
        self, positions: Mapping[str, int]
    ) -> list[tuple[str, str]]:
        """Unordered table pairs sharing at least one bucket.

        ``positions`` maps table names to their canonical lake order;
        the result is sorted by ``(position_a, position_b)`` so a DRG
        built from it inserts edges in exactly the order the full
        ``combinations`` scan would.  Tables absent from ``positions``
        are ignored.  Exactly the pairs for which
        :meth:`candidate_columns` is non-empty — both derive from the
        same buckets — so skipping the rest loses nothing.
        """
        pairs: set[tuple[str, str]] = set()
        for bucket in self._buckets.values():
            tables = []
            seen: set[str] = set()
            for table, _column in bucket:
                if table not in seen and table in positions:
                    seen.add(table)
                    tables.append(table)
            for name_a, name_b in combinations(tables, 2):
                if positions[name_a] > positions[name_b]:
                    name_a, name_b = name_b, name_a
                pairs.add((name_a, name_b))
        return sorted(pairs, key=lambda p: (positions[p[0]], positions[p[1]]))


def _match_sort_key(item) -> tuple:
    """The (-score, column_a, column_b) key every exact matcher sorts by."""
    column_a = getattr(item, "column_a", None)
    if column_a is not None:
        return (-item.score, item.column_a, item.column_b)
    return (-item[2], item[0], item[1])


def _as_edge_tuple(item) -> tuple[str, str, float]:
    column_a = getattr(item, "column_a", None)
    if column_a is not None:
        return (item.column_a, item.column_b, float(item.score))
    return (item[0], item[1], float(item[2]))


class CandidateFilteredMatcher:
    """Exact matcher behind a sketch-index candidate generator.

    Plugs into every slot a plain matcher fits: the DRG ``Matcher``
    protocol (``__call__``), the profile-level protocol
    (``match_profiles``) the incremental re-matcher drives, plus the
    lake-level hooks (:meth:`begin_lake` / :meth:`candidate_table_pairs`)
    :meth:`~repro.graph.DatasetRelationGraph.from_discovery` uses to skip
    table pairs with no candidates at all.

    Parameters
    ----------
    matcher:
        The exact verifier — any matcher exposing
        ``match_profiles(profiles_a, profiles_b)``
        (:class:`~repro.discovery.ComaMatcher`,
        :class:`~repro.discovery.ValueOverlapMatcher`, …).  Defaults to
        a fresh :class:`~repro.discovery.ComaMatcher`.
    bands, rows_per_band:
        The index's banding layout (validated eagerly).
    """

    def __init__(
        self,
        matcher=None,
        bands: int = DEFAULT_BANDS,
        rows_per_band: int = DEFAULT_ROWS_PER_BAND,
    ):
        if matcher is None:
            from .coma import ComaMatcher

            matcher = ComaMatcher()
        if not hasattr(matcher, "match_profiles"):
            raise DiscoveryError(
                "CandidateFilteredMatcher needs a profile-aware exact "
                "matcher (one exposing match_profiles); "
                f"got {type(matcher).__name__}"
            )
        self.matcher = matcher
        self.index = JoinabilityIndex(bands=bands, rows_per_band=rows_per_band)
        self.stats = CandidateStats()
        self._profiles = ProfileCache()
        #: name -> id() of the registered profile object, to skip
        #: re-registration of an unchanged profile.
        self._registered_ids: dict[str, int] = {}
        #: Lake mode (set by begin_lake): name -> canonical position.
        #: Pairs inside the lake had their full-scan cost counted
        #: analytically up front, so per-pair counting skips them.
        self._lake: dict[str, int] | None = None

    # -- sketch registration -------------------------------------------------

    def register_profile(self, profile: TableProfile) -> None:
        """Insert (or replace) one table's sketches in the index.

        Idempotent for the exact same profile object — the incremental
        path registers at profiling time and then matches pair by pair.
        """
        if self._registered_ids.get(profile.table_name) == id(profile):
            return
        started = time.perf_counter()
        self.index.register(profile)
        self._registered_ids[profile.table_name] = id(profile)
        self.stats.tables_registered += 1
        self.stats.columns_registered += len(profile.columns)
        self.stats.index_build_seconds += time.perf_counter() - started

    def drop_table(self, table_name: str) -> None:
        """Evict one table's sketches (mutation bookkeeping, no hashing).

        Tolerates names the index never saw — a mutation driver may drop
        a table that predates this wrapper.
        """
        if table_name in self.index:
            self.index.evict(table_name)
        self._registered_ids.pop(table_name, None)
        if self._lake is not None:
            self._lake.pop(table_name, None)

    # -- lake mode -----------------------------------------------------------

    def begin_lake(self, tables: Sequence[Table]) -> None:
        """Synchronise the index to exactly this lake, in this order.

        Profiles each table once (cached), registers its sketches,
        evicts leftovers from earlier lakes, and charges the analytic
        full-scan pair count to ``pairs_considered`` up front — after
        this, :meth:`candidate_table_pairs` enumerates the only table
        pairs worth visiting.
        """
        profiles = [self._profiles(table) for table in tables]
        wanted = {p.table_name for p in profiles}
        for stale in [n for n in self.index.table_names if n not in wanted]:
            self.drop_table(stale)
        for profile in profiles:
            self.register_profile(profile)
        self._lake = {p.table_name: i for i, p in enumerate(profiles)}
        total = sum(len(p.columns) for p in profiles)
        squares = sum(len(p.columns) ** 2 for p in profiles)
        self.stats.pairs_considered += (total * total - squares) // 2

    def candidate_table_pairs(self) -> list[tuple[str, str]]:
        """The lake's candidate table pairs, in canonical scan order."""
        if self._lake is None:
            raise DiscoveryError(
                "candidate_table_pairs needs begin_lake(tables) first"
            )
        return self.index.candidate_table_pairs(self._lake)

    # -- matching ------------------------------------------------------------

    def _ensure_registered(self, profile: TableProfile) -> None:
        if self._registered_ids.get(profile.table_name) != id(profile):
            self.register_profile(profile)

    def match_profiles(self, profiles_a: TableProfile, profiles_b: TableProfile):
        """Exact matches of the candidate column pairs, sorted like the
        wrapped matcher sorts — byte-identical to its full scan whenever
        candidate recall over its reported matches is 1.0."""
        self._ensure_registered(profiles_a)
        self._ensure_registered(profiles_b)
        name_a = profiles_a.table_name
        name_b = profiles_b.table_name
        in_lake = (
            self._lake is not None
            and name_a in self._lake
            and name_b in self._lake
        )
        if not in_lake:
            self.stats.pairs_considered += len(profiles_a.columns) * len(
                profiles_b.columns
            )
        self.stats.table_pairs_probed += 1
        candidates = self.index.candidate_columns(name_a, name_b)
        self.stats.pairs_scored += len(candidates)
        matches = []
        for column_a, column_b in candidates:
            sub_a = TableProfile(
                table_name=name_a, columns=(profiles_a.column(column_a),)
            )
            sub_b = TableProfile(
                table_name=name_b, columns=(profiles_b.column(column_b),)
            )
            matches.extend(self.matcher.match_profiles(sub_a, sub_b))
        matches.sort(key=_match_sort_key)
        return matches

    def match(self, table_a: Table, table_b: Table):
        """Candidate-filtered exact matches of two tables."""
        return self.match_profiles(self._profiles(table_a), self._profiles(table_b))

    def __call__(self, table_a: Table, table_b: Table):
        """DRG ``Matcher`` protocol adapter: yields score tuples."""
        for item in self.match(table_a, table_b):
            yield _as_edge_tuple(item)

    # -- verification --------------------------------------------------------

    def verify_exact(
        self,
        tables: Iterable[Table | TableProfile],
        threshold: float = 0.55,
    ) -> RecallReport:
        """Replay the full quadratic scan and measure missed-edge recall.

        For every unordered table pair, the wrapped matcher's *unfiltered*
        ``match_profiles`` is the oracle; matches at or above
        ``threshold`` (the DRG edge threshold) that candidate filtering
        fails to reproduce are reported as missed.  Deliberately O(n²) —
        this is the audit that certifies a lake's DRG is bit-identical
        to the quadratic scan, not a production path.
        """
        profiles = [
            item if isinstance(item, TableProfile) else self._profiles(item)
            for item in tables
        ]
        table_pairs = 0
        expected = 0
        found = 0
        missed: list[tuple[str, str, str, str, float]] = []
        for profiles_a, profiles_b in combinations(profiles, 2):
            table_pairs += 1
            exact = {
                (t[0], t[1]): t[2]
                for t in map(
                    _as_edge_tuple,
                    self.matcher.match_profiles(profiles_a, profiles_b),
                )
                if t[2] >= threshold
            }
            if not exact:
                continue
            filtered = {
                (t[0], t[1])
                for t in map(
                    _as_edge_tuple, self.match_profiles(profiles_a, profiles_b)
                )
                if t[2] >= threshold
            }
            expected += len(exact)
            for pair, score in exact.items():
                if pair in filtered:
                    found += 1
                else:
                    missed.append(
                        (
                            profiles_a.table_name,
                            pair[0],
                            profiles_b.table_name,
                            pair[1],
                            score,
                        )
                    )
        return RecallReport(
            threshold=threshold,
            table_pairs=table_pairs,
            edges_expected=expected,
            edges_found=found,
            missed=tuple(missed),
        )
