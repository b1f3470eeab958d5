"""Unit tests for the incremental match index.

Covers the scoped-rematch accounting (only affected pairs hit the
matcher), equivalence of the incremental DRG against a cold
``from_discovery`` build, the MutationReport surface, and the snapshot
discipline the service's read-side checks rely on: a mutation publishes
a new DRG, leaves the old one untouched and keeps every other table's
identity.
"""

import pytest

from repro.dataframe import Table
from repro.discovery import (
    ComaMatcher,
    DistributionMatcher,
    IncrementalMatchIndex,
    LazoMatcher,
)
from repro.errors import DiscoveryError
from repro.graph import DatasetRelationGraph
from tests.matchers import PairFake

MATCHERS = [ComaMatcher, LazoMatcher, DistributionMatcher]


def _table(name, ids, feature=7):
    return Table(
        {"record_id": list(ids), f"{name}_val": [feature] * len(ids)},
        name=name,
    )


@pytest.fixture
def tables():
    return [
        _table("alpha", [1, 2, 3, 4]),
        _table("beta", [1, 2, 3, 9]),
        _table("gamma", [2, 3, 4, 5]),
    ]


class CountingMatcher(PairFake):
    """Lake-shaped fake: records each lake pass's focus table (``None`` for
    the whole lake) and every table pair it scored."""

    def __init__(self):
        super().__init__(self._record)
        self.focuses = []
        self.calls = []

    def _record(self, t1, t2):
        self.calls.append((t1.table_name, t2.table_name))
        yield "record_id", "record_id", 0.9

    def match_lake_profiles(self, profiles, floor=0.0, focus=None):
        self.focuses.append(None if focus is None else profiles[focus].table_name)
        return super().match_lake_profiles(profiles, floor, focus)


def cold_drg(index):
    """A cold ``from_discovery`` of the index's tables, through a fresh
    matcher of the index's matcher's class (no memo shared with it)."""
    return DatasetRelationGraph.from_discovery(
        index.tables, type(index.matcher)(), threshold=index.threshold
    )


def assert_matches_cold(index):
    """Same tables, edges, weights and per-node adjacency order as a cold
    ``from_discovery``: the BFS enumerates paths in adjacency order."""
    cold = cold_drg(index)
    assert index.drg.table_names == cold.table_names
    assert index.drg.edge_fingerprint() == cold.edge_fingerprint()
    for name in cold.table_names:
        assert index.drg.graph.edges_of(name) == cold.graph.edges_of(name), name


@pytest.mark.parametrize("matcher_cls", MATCHERS)
class TestEquivalence:
    def test_initial_build_matches_cold(self, tables, matcher_cls):
        index = IncrementalMatchIndex(tables, matcher=matcher_cls())
        assert_matches_cold(index)
        assert index.version == 0

    def test_register_matches_cold(self, tables, matcher_cls):
        index = IncrementalMatchIndex(tables, matcher=matcher_cls())
        index.register_table(_table("delta", [3, 4, 5]))
        assert_matches_cold(index)

    def test_update_matches_cold(self, tables, matcher_cls):
        index = IncrementalMatchIndex(tables, matcher=matcher_cls())
        index.update_table(_table("beta", [100, 200, 300]))
        assert_matches_cold(index)

    def test_drop_matches_cold(self, tables, matcher_cls):
        index = IncrementalMatchIndex(tables, matcher=matcher_cls())
        index.drop_table("beta")
        assert_matches_cold(index)
        assert "beta" not in index

    def test_mutation_sequence_matches_cold(self, tables, matcher_cls):
        index = IncrementalMatchIndex(tables, matcher=matcher_cls())
        index.register_table(_table("delta", [1, 5]))
        index.drop_table("alpha")
        index.update_table(_table("gamma", [1, 2]))
        index.register_table(_table("alpha", [2, 9]))
        assert_matches_cold(index)
        assert index.version == 4


class TestScopedWork:
    def test_register_matches_only_new_pairs(self, tables):
        matcher = CountingMatcher()
        index = IncrementalMatchIndex(tables, matcher=matcher)
        assert matcher.focuses == [None]
        matcher.calls.clear()
        index.register_table(_table("delta", [1]))
        assert matcher.focuses == [None, "delta"]
        assert matcher.calls == [
            ("alpha", "delta"), ("beta", "delta"), ("gamma", "delta")
        ]

    def test_update_rematches_only_its_pairs(self, tables):
        matcher = CountingMatcher()
        index = IncrementalMatchIndex(tables, matcher=matcher)
        matcher.calls.clear()
        index.update_table(_table("beta", [42]))
        assert matcher.focuses == [None, "beta"]
        assert sorted(matcher.calls) == [("alpha", "beta"), ("beta", "gamma")]

    def test_drop_makes_no_matcher_calls(self, tables):
        matcher = CountingMatcher()
        index = IncrementalMatchIndex(tables, matcher=matcher)
        matcher.calls.clear()
        report = index.drop_table("beta")
        assert matcher.focuses == [None]
        assert matcher.calls == []
        assert report.n_pairs_rematched == 0

    def test_counters_account_reuse(self, tables):
        index = IncrementalMatchIndex(tables, matcher=ComaMatcher())
        before = index.counters.pairs_matched
        report = index.register_table(_table("delta", [1]))
        # 3 new pairs matched; the 3 old pairs replayed, not re-scored.
        assert index.counters.pairs_matched == before + 3
        assert report.n_pairs_reused == 3
        assert index.counters.mutations == 1


class TestMutationReports:
    def test_register_report(self, tables):
        index = IncrementalMatchIndex(tables, matcher=ComaMatcher())
        report = index.register_table(_table("delta", [1, 2, 3]))
        assert report.kind == "register"
        assert report.table == "delta"
        assert report.version == 1
        assert (report.n_pairs_rematched, report.n_pairs_reused) == (3, 3)

    def test_drop_report_affects_partners_with_edges(self, tables):
        index = IncrementalMatchIndex(tables, matcher=ComaMatcher())
        before = index.drg
        assert before.neighbors("beta")  # beta has partners to lose
        report = index.drop_table("beta")
        assert report.kind == "drop"
        assert (report.n_pairs_rematched, report.n_pairs_reused) == (0, 1)
        assert all("beta" not in row[::2] for row in index.drg.edge_fingerprint())
        assert index.drg.edge_fingerprint() == cold_drg(index).edge_fingerprint()
        # The published snapshot is new; the old one is left untouched.
        assert index.drg is not before
        assert "beta" in before.table_names and before.neighbors("beta")

    def test_noop_update_affects_only_itself(self, tables):
        index = IncrementalMatchIndex(tables, matcher=ComaMatcher())
        before = index.drg
        # identical contents -> identical matches -> identical edges
        replacement = _table("beta", [1, 2, 3, 9])
        report = index.update_table(replacement)
        assert (report.n_pairs_rematched, report.n_pairs_reused) == (2, 1)
        assert index.drg.edge_fingerprint() == before.edge_fingerprint()
        assert index.drg.table_names == before.table_names
        # Only the updated table's object changed: the other tables keep
        # their identity, which is what the service's caches check.
        for name in ("alpha", "gamma"):
            assert index.drg.table(name) is before.table(name)
        assert index.drg.table("beta") is replacement


class TestValidation:
    def test_register_duplicate_raises(self, tables):
        index = IncrementalMatchIndex(tables)
        with pytest.raises(DiscoveryError):
            index.register_table(_table("beta", [1]))

    def test_update_unknown_raises(self, tables):
        index = IncrementalMatchIndex(tables)
        with pytest.raises(DiscoveryError):
            index.update_table(_table("nope", [1]))

    def test_drop_unknown_raises(self, tables):
        index = IncrementalMatchIndex(tables)
        with pytest.raises(DiscoveryError):
            index.drop_table("nope")

    def test_bad_threshold_raises(self):
        with pytest.raises(DiscoveryError):
            IncrementalMatchIndex(threshold=0.0)

    def test_unnamed_table_raises(self):
        with pytest.raises(DiscoveryError):
            IncrementalMatchIndex([Table({"x": [1]})])


class TestAnyLakeMatcher:
    def test_fake_matcher_stays_incremental(self, tables):
        # Any matcher with a lake pass works, not only the library's.
        index = IncrementalMatchIndex(tables, matcher=CountingMatcher())
        assert_matches_cold(index)
        index.update_table(_table("alpha", [5, 6]))
        assert_matches_cold(index)
