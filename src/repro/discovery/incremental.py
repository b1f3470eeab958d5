"""Incremental schema matching: re-match only what a mutation touched.

Cold DRG construction (:meth:`repro.graph.DatasetRelationGraph
.from_discovery`) profiles every table and scores every unordered table
pair — O(n²) matcher calls — on every invocation.  A long-lived service
cannot afford that per mutation: registering one table into a 1000-table
lake only ever changes the pairs *that table participates in*.

:class:`IncrementalMatchIndex` is the standing index behind the
:class:`repro.service.DiscoveryService`: it keeps, per table, the
:class:`~repro.discovery.profiles.TableProfile` and, per unordered pair,
the matcher's scored output.  A mutation —

* :meth:`register_table` — profiles the new table once and matches it
  against the stored profiles of every existing table (n-1 pairs);
* :meth:`update_table` — re-profiles the one table and re-matches its
  n-1 pairs, reusing every other profile;
* :meth:`drop_table` — pure bookkeeping, zero matcher calls

— then replays every stored pair's thresholded matches into a fresh DRG
(:meth:`IncrementalMatchIndex._build_full`, cheap adjacency work) rather
than re-running the matcher.  The replay walks the same
``combinations(tables, 2)`` order a cold ``from_discovery`` walks, so the
graph is bit-identical to a cold build over the same table sequence; the
property suite in ``tests/service/test_incremental_equivalence.py``
drives that contract over random mutation sequences for both the COMA
and Lazo matchers.  Unchanged tables keep their identity across
snapshots, which is what the service's caches check on read.

:class:`~repro.discovery.ComaMatcher` scores the affected pairs in one
lake pass (``match_lake_profiles``: every pair at the initial build, the
mutated table against the rest per mutation).  Any matcher exposing
``match_profiles(profiles_a, profiles_b, floor)`` returning plain
``(col_a, col_b, score)`` tuples (:class:`~repro.discovery.LazoMatcher`)
is called pair by pair on the stored profiles; matchers without profile
support fall back to being called on the raw tables, still scoped to the
affected pairs only.  The index is the only
state a mutation touches: the matcher is never told about registrations
or drops, so every stored pair is exactly what a cold scan would score.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations

from ..dataframe import Table
from ..errors import DiscoveryError
from ..graph import DatasetRelationGraph
from ..obs.metrics import CounterRecord
from .coma import ComaMatcher
from .profiles import TableProfile, profile_table

__all__ = ["MatchCounters", "MutationReport", "IncrementalMatchIndex"]

#: One scored correspondence, matcher-agnostic.
PairMatches = tuple[tuple[str, str, float], ...]


@dataclass
class MatchCounters(CounterRecord):
    """Cumulative work accounting of one index's lifetime.

    ``pairs_reused`` counts pairs whose stored matches were replayed
    instead of re-scored during mutations — the work the incremental
    path saves over a cold rebuild (which would re-match them all).
    """

    profiles_built: int = 0
    pairs_matched: int = 0
    pairs_reused: int = 0
    mutations: int = 0

    prefix = "match_index"


@dataclass(frozen=True)
class MutationReport:
    """What one register/update/drop did and how much matching it saved."""

    kind: str
    table: str
    version: int
    n_pairs_rematched: int = 0
    n_pairs_reused: int = 0


class IncrementalMatchIndex:
    """Standing profile + pair-match index over a mutable lake.

    Parameters
    ----------
    tables:
        The initial lake.  Its order fixes ``nodes`` but not traversal
        or ranking: every adjacency list is kept sorted.
    matcher:
        Any DRG ``Matcher``; profile-aware matchers (``match_profiles``,
        ``match_lake_profiles``) match stored profiles.  Defaults to
        :class:`ComaMatcher`.
    threshold:
        Minimum score for a stored match to become a DRG edge — the same
        knob as :meth:`DatasetRelationGraph.from_discovery`.
    """

    def __init__(
        self,
        tables=(),
        matcher=None,
        threshold: float = 0.55,
    ):
        if not 0.0 < threshold <= 1.0:
            raise DiscoveryError(
                f"threshold must be in (0, 1], got {threshold}"
            )
        self.matcher = matcher if matcher is not None else ComaMatcher()
        self.threshold = threshold
        self.counters = MatchCounters()
        self._tables: dict[str, Table] = {}
        self._profiles: dict[str, TableProfile] = {}
        self._matches: dict[tuple[str, str], PairMatches] = {}
        self._version = 0
        for table in tables:
            self._ingest(table)
        self._rematch()
        self._drg = self._build_full()

    # -- views ---------------------------------------------------------------

    @property
    def drg(self) -> DatasetRelationGraph:
        """The current DRG snapshot (replaced, never mutated, per change)."""
        return self._drg

    @property
    def version(self) -> int:
        """Monotonic mutation counter (0 = the initial build)."""
        return self._version

    @property
    def tables(self) -> list[Table]:
        """Current tables in canonical order."""
        return list(self._tables.values())

    @property
    def table_names(self) -> list[str]:
        return list(self._tables.keys())

    def __contains__(self, name: str) -> bool:
        return name in self._tables

    # -- matching internals --------------------------------------------------

    def _ingest(self, table: Table) -> None:
        """Profile and store ``table``; :meth:`_rematch` matches it."""
        if not table.name:
            raise DiscoveryError("every lake table needs a non-empty name")
        if table.name in self._tables:
            raise DiscoveryError(f"duplicate table name {table.name!r}")
        self._profiles[table.name] = self._profile(table)
        self._tables[table.name] = table

    def _profile(self, table: Table) -> TableProfile | None:
        if not hasattr(self.matcher, "match_profiles"):
            return None
        self.counters.profiles_built += 1
        return profile_table(table)

    def _rematch(self, focus: str | None = None) -> int:
        """Match every table pair (only ``focus``'s); returns the pair count.

        A matcher with ``match_lake_profiles`` scores them in one pass;
        any other is called once per pair.
        """
        names = list(self._tables)
        at = None if focus is None else names.index(focus)
        pairs = [
            (i, j)
            for i, j in combinations(range(len(names)), 2)
            if at is None or at in (i, j)
        ]
        if hasattr(self.matcher, "match_lake_profiles"):
            lake = self.matcher.match_lake_profiles(
                [self._profiles[name] for name in names], self.threshold, at
            )
            for i, j in pairs:
                self._matches[names[i], names[j]] = tuple(
                    (m.column_a, m.column_b, float(m.score)) for m in lake[i, j]
                )
        else:
            for i, j in pairs:
                self._matches[names[i], names[j]] = self._match_pair(names[i], names[j])
        self.counters.pairs_matched += len(pairs)
        return len(pairs)

    def _match_pair(self, name_a: str, name_b: str) -> PairMatches:
        """Run a pair-at-a-time matcher over one pair, normalising its output."""
        if hasattr(self.matcher, "match_profiles"):
            raw = self.matcher.match_profiles(
                self._profiles[name_a], self._profiles[name_b], self.threshold
            )
        else:
            raw = self.matcher(
                self._tables[name_a], self._tables[name_b], self.threshold
            )
        out = []
        for match in raw:
            column_a = getattr(match, "column_a", None)
            if column_a is not None:
                out.append((match.column_a, match.column_b, float(match.score)))
            else:
                ca, cb, score = match
                out.append((ca, cb, float(score)))
        return tuple(out)

    def _build_full(self) -> DatasetRelationGraph:
        """Replay every stored pair into a fresh DRG (every build)."""
        drg = DatasetRelationGraph(self.tables)
        for name_a, name_b in combinations(self._tables, 2):
            for column_a, column_b, score in self._matches[(name_a, name_b)]:
                if score >= self.threshold:
                    drg.add_relationship(
                        name_a, column_a, name_b, column_b, weight=score
                    )
        return drg

    def rebuild(self) -> DatasetRelationGraph:
        """Cold full rebuild from scratch — the equivalence oracle.

        Re-profiles and re-matches everything with a *stateless* pass,
        exactly like :meth:`DatasetRelationGraph.from_discovery` over the
        current table sequence.  Used by tests and the benchmark parity
        gate; the service never calls this.
        """
        return DatasetRelationGraph.from_discovery(
            self.tables, self.matcher, threshold=self.threshold
        )

    # -- mutations -----------------------------------------------------------

    def _finish(self, kind: str, name: str, n_rematched: int) -> MutationReport:
        self._drg = self._build_full()
        self._version += 1
        self.counters.mutations += 1
        n_total_pairs = max(len(self._tables) * (len(self._tables) - 1) // 2, 0)
        reused = max(n_total_pairs - n_rematched, 0)
        self.counters.pairs_reused += reused
        return MutationReport(
            kind=kind,
            table=name,
            version=self._version,
            n_pairs_rematched=n_rematched,
            n_pairs_reused=reused,
        )

    def register_table(self, table: Table) -> MutationReport:
        """Add a new table: one profile, n-1 pair matches, nothing else."""
        if table.name in self._tables:
            raise DiscoveryError(
                f"table {table.name!r} already registered; "
                f"use update_table to replace it"
            )
        self._ingest(table)
        n_rematched = self._rematch(table.name)
        return self._finish("register", table.name, n_rematched=n_rematched)

    def update_table(self, table: Table) -> MutationReport:
        """Replace a table in place: re-profile it, re-match its pairs."""
        if table.name not in self._tables:
            raise DiscoveryError(
                f"unknown table {table.name!r}; "
                f"use register_table to add it"
            )
        self._profiles[table.name] = self._profile(table)
        self._tables[table.name] = table
        n_rematched = self._rematch(table.name)
        return self._finish("update", table.name, n_rematched=n_rematched)

    def drop_table(self, name: str) -> MutationReport:
        """Remove a table: pure bookkeeping, zero matcher calls."""
        if name not in self._tables:
            raise DiscoveryError(f"unknown table {name!r}; nothing to drop")
        del self._tables[name]
        del self._profiles[name]
        for pair in [pair for pair in self._matches if name in pair]:
            del self._matches[pair]
        return self._finish("drop", name, n_rematched=0)
