"""Property tests: incremental maintenance equals a cold full rebuild.

The tentpole correctness contract: after *any* sequence of
register/update/drop mutations, the service's incrementally maintained
state must be bit-identical to throwing everything away and rebuilding
from scratch — same DRG (edges and weights), same ranked paths and
scores, same failure reports, same deterministic manifest fields.
Hypothesis drives random mutation sequences over a small lake for the
COMA, Lazo and distribution matchers, once with every answer recomputed
and once with answers served from the warm result store.
"""

import dataclasses

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import pytest

from repro import AutoFeat, AutoFeatConfig, DiscoveryService
from repro.dataframe import Table
from repro.graph import DatasetRelationGraph

CONFIG = AutoFeatConfig(top_k=1, max_path_length=2, sample_size=16, seed=5)
SATELLITE_POOL = ("s1", "s2", "s3", "s4")


def make_base():
    n = 16
    return Table(
        {
            "id": list(range(n)),
            "label": [i % 2 for i in range(n)],
            "bx": [float((i * 3) % 7) for i in range(n)],
        },
        name="base",
    )


def make_satellite(name, variant):
    start = variant % 5
    ids = list(range(start, start + 12))
    return Table(
        {
            "id": ids,
            f"{name}_f": [float((i * (variant + 2)) % 9) for i in ids],
        },
        name=name,
    )


#: One op: (kind, satellite index, content variant).
ops_strategy = st.lists(
    st.tuples(
        st.sampled_from(["register", "update", "drop"]),
        st.integers(min_value=0, max_value=len(SATELLITE_POOL) - 1),
        st.integers(min_value=0, max_value=6),
    ),
    min_size=1,
    max_size=6,
)


def make_isolated(variant):
    """A table no matcher links to anything: outside every envelope."""
    return Table(
        {"colour": [f"shade{variant}-{i}" for i in range(4)]}, name="notes"
    )


def apply_ops(service, ops):
    """Interpret the op stream against the live lake; skip invalid ops."""
    applied = []
    for kind, idx, variant in ops:
        name = SATELLITE_POOL[idx]
        present = name in service.index
        if kind == "register" and not present:
            service.register_table(make_satellite(name, variant))
        elif kind == "update" and present:
            service.update_table(make_satellite(name, variant))
        elif kind == "drop" and present:
            service.drop_table(name)
        else:
            continue
        applied.append((kind, name))
    return applied


def discovery_fingerprint(discovery):
    """Everything order- or value-sensitive in a DiscoveryResult."""
    return {
        "ranked": [
            (
                r.path.describe(),
                r.score,
                r.selected_features,
                r.relevance_scores,
                r.redundancy_scores,
                r.completeness,
                r.relevant_names,
            )
            for r in discovery.ranked_paths
        ],
        "explored": discovery.n_paths_explored,
        "pruned_quality": discovery.n_paths_pruned_quality,
        "pruned_similarity": discovery.n_joins_pruned_similarity,
        "empty_contribution": discovery.n_hops_empty_contribution,
        "failures": [
            (f.stage, f.error_kind, f.message, f.base_table, f.path, f.edge)
            for f in discovery.failure_report.records
        ],
    }


def manifest_deterministic_fields(manifest):
    """The manifest fields a warm re-run must reproduce exactly.

    Timing, created_at and the engine's cache counters legitimately
    differ between a warm service and a cold rebuild; config, seed and
    the dataset fingerprint may not.
    """
    if manifest is None:
        return None
    payload = manifest.as_dict()
    return {
        "stage": payload["stage"],
        "seed": payload["seed"],
        "config": payload["config"],
        "dataset_fingerprint": payload["dataset_fingerprint"],
    }


def matcher_factories():
    from repro.discovery import ComaMatcher, DistributionMatcher, LazoMatcher

    return [ComaMatcher, LazoMatcher, DistributionMatcher]


@pytest.mark.parametrize("matcher_cls", matcher_factories())
class TestMutationEquivalence:
    @settings(
        max_examples=10,
        deadline=None,
        suppress_health_check=[HealthCheck.too_slow],
    )
    @given(ops=ops_strategy)
    def test_incremental_state_equals_cold_rebuild(self, matcher_cls, ops):
        lake = [make_base(), make_satellite("s1", 0), make_satellite("s2", 1)]
        service = DiscoveryService(lake, matcher=matcher_cls(), config=CONFIG)
        try:
            apply_ops(service, ops)

            # (1) DRG: same table order, same edges and weights.
            cold_drg = DatasetRelationGraph.from_discovery(
                service.index.tables, matcher_cls(), threshold=0.55
            )
            assert service.drg.table_names == cold_drg.table_names
            assert service.drg.edge_fingerprint() == cold_drg.edge_fingerprint()
            for name in cold_drg.table_names:
                assert service.drg.graph.edges_of(name) == cold_drg.graph.edges_of(
                    name
                )

            # (2) Ranked paths, scores, counters and failure reports.
            warm = service.discover("base", "label", use_cache=False)
            cold = AutoFeat(cold_drg, CONFIG).discover("base", "label")
            assert discovery_fingerprint(warm.result) == discovery_fingerprint(
                cold
            )

            # (3) Deterministic manifest fields of the producing runs.
            assert manifest_deterministic_fields(
                warm.result.run_manifest
            ) == manifest_deterministic_fields(cold.run_manifest)
        finally:
            service.close()

    @settings(
        max_examples=10,
        deadline=None,
        suppress_health_check=[HealthCheck.too_slow],
    )
    @given(ops=ops_strategy)
    def test_cached_answers_equal_cold_rebuild(self, matcher_cls, ops):
        """Served hits, across mutations, at three traversal radii.

        Each step applies one op, then rewrites the isolated ``notes``
        table, which lies outside every envelope: a step whose op was
        skipped changed nothing a traversal can observe, so its first
        read must be a hit.  The manifest's lake-wide dataset fingerprint
        records the producing run and is not compared.
        """
        configs = [
            dataclasses.replace(CONFIG, max_path_length=hops) for hops in (1, 2, 3)
        ]
        lake = [
            make_base(),
            make_satellite("s1", 0),
            make_satellite("s2", 1),
            make_isolated(0),
        ]
        service = DiscoveryService(lake, matcher=matcher_cls(), config=CONFIG)
        try:
            for config in configs:
                service.discover("base", "label", config=config)
            for step, op in enumerate(ops, start=1):
                applied = apply_ops(service, [op])
                service.update_table(make_isolated(step))
                cold_drg = DatasetRelationGraph.from_discovery(
                    service.index.tables, matcher_cls(), threshold=0.55
                )
                for config in configs:
                    cold = discovery_fingerprint(
                        AutoFeat(cold_drg, config).discover("base", "label")
                    )
                    first = service.discover("base", "label", config=config)
                    again = service.discover("base", "label", config=config)
                    assert first.cache_hit or applied
                    assert again.cache_hit
                    assert discovery_fingerprint(first.result) == cold
                    assert discovery_fingerprint(again.result) == cold
        finally:
            service.close()
