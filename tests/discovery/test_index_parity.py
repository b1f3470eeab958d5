"""Property tests: candidate filtering never changes the DRG at recall 1.0.

The tentpole contract of the sketch index: wrapping an exact matcher in
the :class:`~repro.discovery.CandidateFilteredMatcher` must yield a
**byte-identical** DRG — same edges, same weights, same adjacency
insertion order — whenever ``verify_exact`` reports candidate recall
1.0.  Hypothesis drives random split lakes (both naming schemes), random
wide lakes, and random mutation sequences through the sketch-enabled
:class:`~repro.service.DiscoveryService`, for both exact matchers.
"""

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import pytest

from repro import AutoFeat, AutoFeatConfig, DiscoveryService
from repro.datasets import (
    make_classification,
    make_wide_lake,
    rename_for_lake,
    split_into_lake,
)
from repro.datasets.splitter import SplitPlan
from repro.discovery import (
    CandidateFilteredMatcher,
    ComaMatcher,
    ValueOverlapMatcher,
)
from repro.graph import DatasetRelationGraph

from tests.service.test_incremental_equivalence import (
    SATELLITE_POOL,
    apply_ops,
    discovery_fingerprint,
    make_base,
    make_satellite,
    ops_strategy,
)

MATCHERS = [ComaMatcher, ValueOverlapMatcher]

SKETCH_CONFIG = AutoFeatConfig(
    top_k=1,
    max_path_length=2,
    sample_size=16,
    seed=5,
)


def ordered_edges(drg: DatasetRelationGraph):
    """Every edge with its weight, in adjacency insertion order."""
    return [
        (e.node_a, e.column_a, e.node_b, e.column_b, e.weight)
        for e in drg.graph.all_edges()
    ]


def assert_byte_identical(reference, filtered):
    assert reference.table_names == filtered.table_names
    assert ordered_edges(reference) == ordered_edges(filtered)


def split_lake(seed: int, rename: bool):
    flat = make_classification(
        n_rows=120,
        n_informative=4,
        n_redundant=2,
        n_noise=2,
        n_categorical=1,
        seed=seed,
    )
    plan = SplitPlan(
        name=f"parity-{seed}",
        n_satellites=3 + seed % 3,
        n_base_features=2,
        seed=seed,
    )
    bundle = split_into_lake(flat, plan)
    return rename_for_lake(bundle) if rename else list(bundle.tables)


@pytest.mark.parametrize("matcher_cls", MATCHERS)
class TestDrgParity:
    @settings(
        max_examples=8,
        deadline=None,
        suppress_health_check=[HealthCheck.too_slow],
    )
    @given(seed=st.integers(min_value=0, max_value=40), rename=st.booleans())
    def test_split_lake_byte_parity(self, matcher_cls, seed, rename):
        tables = split_lake(seed, rename)
        reference = DatasetRelationGraph.from_discovery(
            tables, matcher_cls(), threshold=0.55
        )
        wrapped = CandidateFilteredMatcher(matcher_cls())
        filtered = DatasetRelationGraph.from_discovery(
            tables, wrapped, threshold=0.55
        )
        recall = wrapped.verify_exact(tables, threshold=0.55)
        assert recall.recall == 1.0, recall.missed
        assert_byte_identical(reference, filtered)

    @settings(
        max_examples=6,
        deadline=None,
        suppress_health_check=[HealthCheck.too_slow],
    )
    @given(
        seed=st.integers(min_value=0, max_value=40),
        n_tables=st.integers(min_value=4, max_value=24),
    )
    def test_wide_lake_byte_parity(self, matcher_cls, seed, n_tables):
        lake = make_wide_lake(n_tables, seed=seed)
        reference = DatasetRelationGraph.from_discovery(
            lake.tables, matcher_cls(), threshold=0.55
        )
        wrapped = CandidateFilteredMatcher(matcher_cls())
        filtered = DatasetRelationGraph.from_discovery(
            lake.tables, wrapped, threshold=0.55
        )
        recall = wrapped.verify_exact(lake.tables, threshold=0.55)
        assert recall.recall == 1.0, recall.missed
        assert_byte_identical(reference, filtered)


class TestServiceMutationParity:
    @settings(
        max_examples=8,
        deadline=None,
        suppress_health_check=[HealthCheck.too_slow],
    )
    @given(ops=ops_strategy)
    def test_sketch_service_equals_unfiltered_cold_rebuild(self, ops):
        """register/update/drop through the sketch index vs a fresh
        *unwrapped* quadratic scan of the final lake."""
        lake = [make_base(), make_satellite("s1", 0), make_satellite("s2", 1)]
        service = DiscoveryService(
            lake, CandidateFilteredMatcher(), config=SKETCH_CONFIG, n_workers=1
        )
        try:
            assert isinstance(service.index.matcher, CandidateFilteredMatcher)
            apply_ops(service, ops)

            cold_drg = DatasetRelationGraph.from_discovery(
                service.index.tables, ComaMatcher(), threshold=0.55
            )
            assert_byte_identical(cold_drg, service.drg)

            # The standing index tracks the lake exactly.
            index = service.index.matcher.index
            assert sorted(index.table_names) == sorted(
                service.index.table_names
            )
        finally:
            service.close()

    def test_discover_request_parity_end_to_end(self):
        """One discover request through the sketch-enabled service vs a
        cold AutoFeat run over the unfiltered DRG."""
        lake = [make_base(), make_satellite("s1", 2), make_satellite("s3", 4)]
        service = DiscoveryService(
            lake, CandidateFilteredMatcher(), config=SKETCH_CONFIG, n_workers=1
        )
        try:
            service.register_table(make_satellite("s2", 1))
            warm = service.discover("base", "label", use_cache=False)
            cold_drg = DatasetRelationGraph.from_discovery(
                service.index.tables, ComaMatcher(), threshold=0.55
            )
            cold = AutoFeat(cold_drg, SKETCH_CONFIG).discover("base", "label")
            assert discovery_fingerprint(warm.result) == discovery_fingerprint(
                cold
            )
        finally:
            service.close()

    def test_candidate_min_recall_gate_accepts_clean_lake(self):
        service = DiscoveryService(
            [make_base(), make_satellite("s1", 0)],
            CandidateFilteredMatcher(),
            config=SKETCH_CONFIG,
            n_workers=1,
            candidate_min_recall=1.0,
        )
        try:
            assert service.recall_report is not None
            assert service.recall_report.recall == 1.0
        finally:
            service.close()
