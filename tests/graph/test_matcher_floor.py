"""The DRG builders hand their threshold to the matcher as a floor.

A matcher may omit any match scoring below the floor (``ComaMatcher``
skips the name measures of pairs whose bound cannot reach it), so every
DRG must come out the same — edge for edge, weight for weight and in
adjacency insertion order — as from the same matcher asked for
everything (floor ``0.0``).
"""

import numpy as np
import pytest

from benchmarks.e2e.workloads import THRESHOLD, WORKLOADS
from repro.discovery import (
    ComaMatcher,
    DistributionMatcher,
    IncrementalMatchIndex,
    LazoMatcher,
)
from repro.graph import DatasetRelationGraph
from tests.discovery.coma_goldens import LAKES
from tests.oracle.overlap import ValueOverlapMatcher

MATCHERS = {
    "coma": ComaMatcher,
    "coma_all_columns": lambda: ComaMatcher(key_like_only=False),
    "value_overlap": ValueOverlapMatcher,
    "lazo": LazoMatcher,
    "distribution": DistributionMatcher,
}


class Unfloored:
    """``matcher``'s lake pass at floor 0.0, whatever floor it is handed."""

    def __init__(self, matcher):
        self.matcher = matcher

    def match_lake(self, tables, floor):
        return self.matcher.match_lake(tables, 0.0)

    def match_lake_profiles(self, profiles, floor, focus=None):
        return self.matcher.match_lake_profiles(profiles, 0.0, focus)


def assert_same_drg(got, want):
    assert got.table_names == want.table_names
    assert got.edge_fingerprint() == want.edge_fingerprint()
    for name in want.table_names:
        assert got.graph.edges_of(name) == want.graph.edges_of(name), name


@pytest.mark.parametrize("threshold", [0.55, 0.7])
@pytest.mark.parametrize("matcher", MATCHERS)
@pytest.mark.parametrize("lake", LAKES)
def test_golden_lakes(lake, matcher, threshold):
    tables = LAKES[lake]()
    factory = MATCHERS[matcher]
    want = DatasetRelationGraph.from_discovery(
        tables, Unfloored(factory()), threshold
    )
    got = DatasetRelationGraph.from_discovery(tables, factory(), threshold)
    assert_same_drg(got, want)


@pytest.mark.parametrize("seed", [0, 1])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_e2e_smoke_lakes(workload, seed):
    tables = list(WORKLOADS[workload].build(seed, True).tables)
    floored, unfloored = ComaMatcher(), ComaMatcher()
    want = DatasetRelationGraph.from_discovery(
        tables, Unfloored(unfloored), THRESHOLD
    )
    got = DatasetRelationGraph.from_discovery(tables, floored, THRESHOLD)
    assert_same_drg(got, want)
    assert want.n_relationships > 0
    # The floor skipped name scores; it did not just filter the output.
    assert len(floored._name_scores) < len(unfloored._name_scores)


@pytest.mark.parametrize("matcher", ["coma", "lazo", "distribution"])
def test_incremental_index(matcher):
    tables = list(WORKLOADS["wide_match"].build(0, True).tables)
    factory = MATCHERS[matcher]
    want = IncrementalMatchIndex(tables, Unfloored(factory()), THRESHOLD)
    got = IncrementalMatchIndex(tables, factory(), THRESHOLD)
    assert_same_drg(got.drg, want.drg)
    # A mutation's one-table-against-the-rest pass is handed the floor too.
    changed = tables[1].take(np.arange(tables[1].n_rows // 2))
    for index in (want, got):
        index.update_table(changed)
    assert_same_drg(got.drg, want.drg)
