"""Incremental schema matching: re-match only what a mutation touched.

Cold DRG construction (:meth:`repro.graph.DatasetRelationGraph
.from_discovery`) profiles every table and scores every unordered table
pair — O(n²) pairs scored — on every invocation.  A long-lived service
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
drives that contract over random mutation sequences for the COMA, Lazo
and distribution matchers.  Unchanged tables keep their identity across
snapshots, which is what the service's caches check on read.

The matcher scores the affected pairs in one lake pass over the stored
profiles (``match_lake_profiles``: every pair at the initial build, the
mutated table against the rest, ``focus``, per mutation), whichever
matcher it is.  The index holds its own profiles, keyed by table name and
replaced on update, so a replaced table's profile is freed with it.  The
index is the only state a mutation touches: the matcher is never told
about registrations or drops, so every stored pair is exactly what a cold
scan would score.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations

from ..dataframe import Table
from ..errors import DiscoveryError
from ..graph import DatasetRelationGraph
from ..obs.metrics import CounterRecord
from .coma import ColumnMatch, ComaMatcher
from .profiles import TableProfile, profile_table

__all__ = ["MatchCounters", "MutationReport", "IncrementalMatchIndex"]

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
        Any matcher with a lake pass (``match_lake_profiles(profiles,
        floor, focus)``); it scores the stored profiles.  Defaults to
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
        self._matches: dict[tuple[str, str], tuple[ColumnMatch, ...]] = {}
        self._version = 0
        for table in tables:
            if table.name in self._tables:
                raise DiscoveryError(f"duplicate table name {table.name!r}")
            self._store(table)
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

    def _store(self, table: Table) -> None:
        """Profile ``table`` and store it under its name."""
        if not table.name:
            raise DiscoveryError("every lake table needs a non-empty name")
        self._profiles[table.name] = profile_table(table)
        self._tables[table.name] = table
        self.counters.profiles_built += 1

    def _rematch(self, focus: str | None = None) -> int:
        """Match every table pair (only ``focus``'s) in one lake pass;
        returns the pair count."""
        names = list(self._tables)
        at = None if focus is None else names.index(focus)
        lake = self.matcher.match_lake_profiles(
            [self._profiles[name] for name in names], self.threshold, at
        )
        pairs = [
            (i, j)
            for i, j in combinations(range(len(names)), 2)
            if at is None or at in (i, j)
        ]
        for i, j in pairs:
            self._matches[names[i], names[j]] = tuple(lake[i, j])
        self.counters.pairs_matched += len(pairs)
        return len(pairs)

    def _build_full(self) -> DatasetRelationGraph:
        """Replay every stored pair into a fresh DRG (every build)."""
        drg = DatasetRelationGraph(self.tables)
        for name_a, name_b in combinations(self._tables, 2):
            for match in self._matches[(name_a, name_b)]:
                if match.score >= self.threshold:
                    drg.add_relationship(
                        name_a, match.column_a, name_b, match.column_b,
                        weight=match.score,
                    )
        return drg

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
        return self._put("register", table)

    def update_table(self, table: Table) -> MutationReport:
        """Replace a table in place: re-profile it, re-match its pairs."""
        return self._put("update", table)

    def _put(self, kind: str, table: Table) -> MutationReport:
        """Store ``table`` (re-profiled) and re-match its n-1 pairs.

        ``register`` needs a new name and ``update`` a known one; that is
        all that tells them apart.
        """
        if kind == "register" and table.name in self._tables:
            raise DiscoveryError(
                f"table {table.name!r} already registered; "
                f"use update_table to replace it"
            )
        if kind == "update" and table.name not in self._tables:
            raise DiscoveryError(
                f"unknown table {table.name!r}; "
                f"use register_table to add it"
            )
        self._store(table)
        return self._finish(kind, table.name, n_rematched=self._rematch(table.name))

    def drop_table(self, name: str) -> MutationReport:
        """Remove a table: pure bookkeeping, zero matcher calls."""
        if name not in self._tables:
            raise DiscoveryError(f"unknown table {name!r}; nothing to drop")
        del self._tables[name]
        del self._profiles[name]
        for pair in [pair for pair in self._matches if name in pair]:
            del self._matches[pair]
        return self._finish("drop", name, n_rematched=0)
