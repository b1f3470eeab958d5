"""Behavioural tests for the always-on DiscoveryService.

A small deterministic chain lake (base — a — b — far) driven by a
name-keyed matcher exercises the request queue, the warm result cache,
surgical invalidation on mutation, per-request manifests, and the
service-level gauges.
"""

import inspect
import threading

import pytest

from repro import AutoFeatConfig, DiscoveryService
from repro.dataframe import Table
from repro.errors import ServiceError
from repro.obs import validate_manifest
from repro.service import reachable_within


def _lake():
    n = 24
    base = Table(
        {
            "id": list(range(n)),
            "label": [i % 2 for i in range(n)],
            "bx": [float(i) for i in range(n)],
        },
        name="base",
    )
    a = Table(
        {
            "id": list(range(n)),
            "link": [i // 2 for i in range(n)],
            "af": [float(i * 3 % 7) for i in range(n)],
        },
        name="a",
    )
    b = Table(
        {
            "link": list(range(12)),
            "leaf": [i % 5 for i in range(12)],
            "bf": [float(i * i % 11) for i in range(12)],
        },
        name="b",
    )
    far = Table(
        {
            "leaf": list(range(5)),
            "ff": [float(i + 1) for i in range(5)],
        },
        name="far",
    )
    return [base, a, b, far]


def chain_matcher(t1, t2):
    """Deterministic chain edges: base—a, a—b, b—far."""
    pair = {t1.name, t2.name}
    if pair == {"base", "a"}:
        yield "id", "id", 0.9
    elif pair == {"a", "b"}:
        yield "link", "link", 0.9
    elif pair == {"b", "far"}:
        yield "leaf", "leaf", 0.9


@pytest.fixture
def config():
    return AutoFeatConfig(top_k=1, max_path_length=2, sample_size=24, seed=11)


@pytest.fixture
def service(config):
    svc = DiscoveryService(
        _lake(), matcher=chain_matcher, config=config, n_workers=2
    )
    yield svc
    svc.close()


class TestRequests:
    def test_discover_cold_then_warm(self, service):
        first = service.discover("base", "label")
        assert not first.cache_hit
        assert first.kind == "discover"
        assert first.snapshot_version == 0
        second = service.discover("base", "label")
        assert second.cache_hit
        assert second.result is first.result

    def test_use_cache_false_recomputes(self, service):
        first = service.discover("base", "label")
        bypass = service.discover("base", "label", use_cache=False)
        assert not bypass.cache_hit
        assert bypass.result is not first.result

    def test_concurrent_requests_agree(self, service):
        futures = [
            service.submit("discover", "base", "label") for _ in range(6)
        ]
        responses = [f.result(timeout=120) for f in futures]
        described = {
            tuple(
                (r.path.describe(), round(r.score, 12))
                for r in resp.result.ranked_paths
            )
            for resp in responses
        }
        assert len(described) == 1
        assert sum(not r.cache_hit for r in responses) >= 1

    def test_augment_returns_trained_result(self, service):
        response = service.augment("base", "label", timeout=300)
        assert response.kind == "augment"
        assert response.result.best is not None
        assert response.model_name == "lightgbm"

    def test_unknown_kind_rejected(self, service):
        with pytest.raises(ServiceError):
            service.submit("explain", "base", "label")

    def test_bad_worker_count_rejected(self):
        with pytest.raises(ServiceError):
            DiscoveryService(_lake(), matcher=chain_matcher, n_workers=0)

    def test_no_recall_floor_parameter(self):
        # Every pair is scored exactly, so there is no recall to audit;
        # the result cache is always on (``use_cache=False`` per request).
        assert list(inspect.signature(DiscoveryService).parameters) == [
            "tables", "matcher", "threshold", "config", "n_workers",
        ]
        for gone in ("candidate_min_" "recall", "enable_result_cache"):
            with pytest.raises(TypeError):
                DiscoveryService(_lake(), **{gone: True})

    def test_request_error_surfaces_through_future(self, service):
        with pytest.raises(Exception):
            service.discover("no_such_table", "label")

    def test_closed_service_rejects_work(self, config):
        svc = DiscoveryService(_lake(), matcher=chain_matcher, config=config)
        svc.close()
        with pytest.raises(ServiceError):
            svc.submit("discover", "base", "label")
        with pytest.raises(ServiceError):
            svc.drop_table("far")
        svc.close()  # idempotent

    def test_context_manager_closes(self, config):
        with DiscoveryService(
            _lake(), matcher=chain_matcher, config=config
        ) as svc:
            svc.discover("base", "label")
        with pytest.raises(ServiceError):
            svc.submit("discover", "base", "label")


class TestMutationInvalidation:
    def test_mutation_bumps_snapshot_version(self, service):
        assert service.version == 0
        service.drop_table("far")
        assert service.version == 1
        assert "far" not in service.drg.table_names

    def test_out_of_radius_mutation_keeps_entry_warm(self, service):
        # With a 1-hop budget base reaches only {base, a}; dropping "far"
        # affects {far, b} (the changed pair's endpoints), which misses
        # the radius entirely — the cached result must stay warm.
        short = AutoFeatConfig(
            top_k=1, max_path_length=1, sample_size=24, seed=11
        )
        warm = service.discover("base", "label", config=short)
        service.drop_table("far")
        after = service.discover("base", "label", config=short)
        assert after.cache_hit
        assert after.result is warm.result

    def test_in_radius_pair_endpoint_invalidates_conservatively(self, service):
        # Under the 2-hop budget base reaches b, and dropping "far"
        # changes the (b, far) pair — the entry is (conservatively)
        # invalidated even though no <=2-hop path used the dead edge.
        service.discover("base", "label")
        service.drop_table("far")
        after = service.discover("base", "label")
        assert not after.cache_hit

    def test_in_radius_mutation_invalidates(self, service):
        service.discover("base", "label")
        lake = {t.name: t for t in _lake()}
        service.update_table(lake["a"])  # inside the radius
        after = service.discover("base", "label")
        assert not after.cache_hit
        assert after.snapshot_version == 1

    def test_dropped_base_invalidates_its_entries(self, service):
        resp = service.discover("base", "label")
        service.drop_table("base")
        with pytest.raises(Exception):
            service.discover("base", "label")
        assert resp.result is not None  # the old handle stays usable

    def test_update_invalidates_hop_cache_for_that_table_only(self, service):
        service.discover("base", "label")
        entries_before = {key[0] for key in service.hop_cache._indexes}
        lake = {t.name: t for t in _lake()}
        service.update_table(lake["a"])
        assert all(key[0] != "a" for key in service.hop_cache._indexes)
        counters = service.hop_cache.counters()
        assert counters["invalidations"] == 1

    def test_register_does_not_touch_hop_cache(self, service):
        service.discover("base", "label")
        service.drop_table("far")
        invalidations = service.hop_cache.counters()["invalidations"]
        lake = {t.name: t for t in _lake()}
        service.register_table(lake["far"])
        assert (
            service.hop_cache.counters()["invalidations"] == invalidations
        )

    def test_mutation_report_shape(self, service):
        report = service.drop_table("far")
        assert report.kind == "drop"
        assert report.table == "far"
        assert "far" in report.affected_tables

    def test_requests_after_mutation_see_new_snapshot(self, service):
        service.drop_table("far")
        resp = service.discover("base", "label")
        assert resp.snapshot_version == 1


class TestReachability:
    def test_radius_grows_with_hops(self, service):
        drg = service.drg
        assert reachable_within(drg, "base", 0) == {"base"}
        assert reachable_within(drg, "base", 1) == {"base", "a"}
        assert reachable_within(drg, "base", 2) == {"base", "a", "b"}
        assert reachable_within(drg, "base", 3) == {"base", "a", "b", "far"}

    def test_unknown_base_is_empty(self, service):
        assert reachable_within(service.drg, "ghost", 2) == frozenset()


class TestObservability:
    def test_per_request_manifest_validates(self, service):
        resp = service.discover("base", "label")
        payload = resp.manifest.as_dict()
        validate_manifest(payload)
        assert payload["stage"] == "service.discover"
        children = {c["name"] for c in payload["timing"]["children"]}
        assert children == {"queue", "execute"}
        assert payload["metrics"]["gauges"]["service.snapshot_version"] == 0

    def test_manifest_marks_cache_hits(self, service):
        service.discover("base", "label")
        warm = service.discover("base", "label")
        metrics = warm.manifest.as_dict()["metrics"]
        assert metrics["counters"]["service.cache_hit"] == 1

    def test_service_gauges_and_counters(self, service):
        service.discover("base", "label")
        service.discover("base", "label")
        metrics = service.registry.as_dict()
        assert metrics["counters"]["service.requests_submitted"] == 2
        assert metrics["counters"]["service.result_cache_hits"] == 1
        assert metrics["counters"]["service.result_cache_misses"] == 1
        assert metrics["gauges"]["service.warm_hit_rate"] == 0.5
        assert metrics["gauges"]["service.requests_in_flight"] == 0

    def test_stats_snapshot(self, service):
        short = AutoFeatConfig(
            top_k=1, max_path_length=1, sample_size=24, seed=11
        )
        service.discover("base", "label", config=short)
        service.drop_table("far")
        stats = service.stats()
        assert set(stats) == {
            "snapshot_version", "n_tables", "n_relationships", "cached_results",
            "hop_cache", "hop_cache_entries", "hop_cache_hit_rate",
            "memo", "match_index", "metrics",
        }
        assert set(stats["memo"]) == {"selection", "train"}
        for counters in stats["memo"].values():
            assert set(counters) == {"hits", "misses", "entries", "evictions"}
        assert stats["snapshot_version"] == 1
        assert stats["n_tables"] == 3
        assert stats["cached_results"] == 1  # far is out of the 1-hop radius
        assert set(stats["hop_cache"]) == {
            "hits", "misses", "builds", "invalidations", "entries_invalidated",
        }
        assert stats["match_index"]["mutations"] == 1


class TestConcurrencyUnderMutation:
    def test_mutations_interleaved_with_requests(self, config):
        svc = DiscoveryService(
            _lake(), matcher=chain_matcher, config=config, n_workers=3
        )
        lake = {t.name: t for t in _lake()}
        errors = []

        def requester():
            for _ in range(5):
                try:
                    svc.discover("base", "label", timeout=120)
                except Exception as exc:  # pragma: no cover - diagnostic
                    errors.append(exc)

        def mutator():
            for _ in range(3):
                try:
                    svc.update_table(lake["a"])
                    svc.drop_table("far")
                    svc.register_table(lake["far"])
                except Exception as exc:  # pragma: no cover - diagnostic
                    errors.append(exc)

        threads = [threading.Thread(target=requester) for _ in range(2)]
        threads.append(threading.Thread(target=mutator))
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        svc.close()
        assert errors == []
        # Final state equals a cold rebuild of the final lake.
        assert (
            svc.drg.edge_fingerprint()
            == svc.index.rebuild().edge_fingerprint()
        )


class TestAnytimeBudgets:
    """Per-request anytime budgets (DESIGN.md §14, service scope)."""

    def test_response_flags_clear_without_budget(self, service):
        response = service.discover("base", "label")
        assert response.budget_exhausted is False

    def test_max_hops_override_returns_partial(self, service):
        response = service.discover("base", "label", max_hops=1)
        assert response.budget_exhausted
        assert response.result.navigation.hops_executed <= 1
        assert response.result.navigation.strategy == "ucb"

    def test_budget_overrides_get_distinct_cache_keys(self, service):
        full = service.discover("base", "label")
        partial = service.discover("base", "label", max_hops=1)
        assert not full.cache_hit and not partial.cache_hit
        # Replays hit their own entries — the partial never shadows the
        # full answer and vice versa.
        assert service.discover("base", "label").cache_hit
        again = service.discover("base", "label", max_hops=1)
        assert again.cache_hit and again.budget_exhausted

    def test_hop_budget_partials_are_cacheable(self, service):
        cold = service.discover("base", "label", max_hops=1)
        warm = service.discover("base", "label", max_hops=1)
        assert not cold.cache_hit and warm.cache_hit
        assert warm.result is cold.result

    def test_wall_clock_partials_are_not_cached(self, service):
        first = service.discover("base", "label", budget_seconds=1e-9)
        second = service.discover("base", "label", budget_seconds=1e-9)
        assert first.budget_exhausted and second.budget_exhausted
        assert not first.cache_hit and not second.cache_hit

    def test_invalid_budget_rejected_at_submit(self, service):
        from repro.errors import ConfigError

        with pytest.raises(ConfigError, match="budget_seconds"):
            service.submit("discover", "base", "label", budget_seconds=-1.0)
        with pytest.raises(ConfigError, match="max_hops"):
            service.submit("discover", "base", "label", max_hops=-2)

    def test_budget_exhausted_counter_increments(self, service):
        before = service.registry.counter(
            "service.requests_budget_exhausted"
        ).value
        service.discover("base", "label", max_hops=0)
        after = service.registry.counter(
            "service.requests_budget_exhausted"
        ).value
        assert after == before + 1

    def test_augment_budget_propagates(self, service):
        response = service.augment("base", "label", budget_seconds=1e-9)
        assert response.budget_exhausted
        assert response.result.trained == ()
