"""Behavioural tests for the always-on DiscoveryService.

A small deterministic chain lake (base — a — b — far) driven by a
name-keyed matcher exercises requests from concurrent callers, the warm
result store, the read-side checks that decide what a mutation made
stale, the bounds on both caches, per-request manifests, and the
service-level gauges.
"""

import dataclasses
import inspect
import sys
import threading
import time
from concurrent.futures import ThreadPoolExecutor
from concurrent.futures import TimeoutError as FutureTimeout

import pytest

from repro import AutoFeat, AutoFeatConfig, DiscoveryService
from repro.dataframe import Table
from repro.errors import GraphError, ServiceError
from repro.graph import DatasetRelationGraph, KFKConstraint
from repro.obs import validate_manifest
from repro.service import reachable_within
from repro.service import service as service_module
from repro.service.state import RESULT_ENTRIES, Envelope, ResultStore

from tests.matchers import PairFake

from .test_incremental_equivalence import discovery_fingerprint


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


def _chain(t1, t2):
    """Deterministic chain edges: base—a, a—b, b—far."""
    pair = {t1.table_name, t2.table_name}
    if pair == {"base", "a"}:
        yield "id", "id", 0.9
    elif pair == {"a", "b"}:
        yield "link", "link", 0.9
    elif pair == {"b", "far"}:
        yield "leaf", "leaf", 0.9


chain_matcher = PairFake(_chain)


@pytest.fixture
def config():
    return AutoFeatConfig(top_k=1, max_path_length=2, sample_size=24, seed=11)


@pytest.fixture
def service(config):
    svc = DiscoveryService(_lake(), matcher=chain_matcher, config=config)
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
        with ThreadPoolExecutor(3) as callers:
            responses = list(
                callers.map(lambda _: service.discover("base", "label"), range(6))
            )
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
        response = service.augment("base", "label")
        assert response.kind == "augment"
        assert response.result.best is not None
        assert response.model_name == "lightgbm"

    def test_no_recall_floor_parameter(self):
        # Every pair is scored exactly, so there is no recall to audit;
        # the result cache is always on (``use_cache=False`` per request).
        assert list(inspect.signature(DiscoveryService).parameters) == [
            "tables", "matcher", "threshold", "config",
        ]
        for gone in ("candidate_min_" "recall", "enable_result_cache", "n_workers"):
            with pytest.raises(TypeError):
                DiscoveryService(_lake(), **{gone: True})

    def test_request_error_surfaces_through_future(self, service):
        # The typed error reaches the caller, is counted once, and the
        # service answers the next request.
        with pytest.raises(GraphError, match="no_such_table"):
            service.discover("no_such_table", "label")
        assert service.registry.counter("service.requests_failed").value == 1
        assert service.discover("base", "label").result.ranked_paths
        gauges = service.registry.as_dict()["gauges"]
        assert gauges["service.requests_in_flight"] == 0

    def test_closed_service_rejects_work(self, config):
        svc = DiscoveryService(_lake(), matcher=chain_matcher, config=config)
        svc.close()
        with pytest.raises(ServiceError):
            svc.discover("base", "label")
        with pytest.raises(ServiceError):
            svc.drop_table("far")
        svc.close()  # idempotent

    def test_close_waits_for_the_request_in_flight(self, config, monkeypatch):
        # A request holds the service on another thread; close() returns
        # only once it has answered, and a request that arrives while
        # close() waits is refused.
        entered, release = threading.Event(), threading.Event()

        class Held(AutoFeat):
            def discover(self, *args, **kwargs):
                entered.set()
                assert release.wait(60)
                return super().discover(*args, **kwargs)

        monkeypatch.setattr(service_module, "AutoFeat", Held)
        svc = DiscoveryService(_lake(), matcher=chain_matcher, config=config)
        with ThreadPoolExecutor(3) as callers:
            request = callers.submit(svc.discover, "base", "label")
            assert entered.wait(60)
            closing = callers.submit(svc.close)
            with pytest.raises(FutureTimeout):
                closing.result(timeout=0.2)
            give_up = time.monotonic() + 60
            while not svc._rw._writers_waiting and time.monotonic() < give_up:
                time.sleep(0.01)
            late = callers.submit(svc.discover, "base", "label")
            release.set()
            assert request.result(60).result.ranked_paths
            closing.result(60)
            with pytest.raises(ServiceError, match="closed"):
                late.result(60)
        with pytest.raises(ServiceError, match="closed"):
            svc.discover("base", "label")

    def test_context_manager_closes(self, config):
        with DiscoveryService(
            _lake(), matcher=chain_matcher, config=config
        ) as svc:
            svc.discover("base", "label")
        with pytest.raises(ServiceError):
            svc.discover("base", "label")


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

    def test_in_radius_pair_endpoint_change_hits_and_equals_cold(
        self, service, config
    ):
        # Under the 2-hop budget base reaches b, and dropping "far"
        # removes the (b, far) edge — but far lies outside the envelope
        # and no <=2-hop path walks that edge, so the hit is exact.
        warm = service.discover("base", "label")
        service.drop_table("far")
        after = service.discover("base", "label")
        assert after.cache_hit
        assert after.result is warm.result
        cold_drg = DatasetRelationGraph.from_discovery(
            service.index.tables, chain_matcher, threshold=0.55
        )
        cold = AutoFeat(cold_drg, config).discover("base", "label")
        assert discovery_fingerprint(after.result) == discovery_fingerprint(cold)

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

    def test_update_rebuilds_hop_entries_for_that_table_only(self, service):
        service.discover("base", "label")
        before = dict(service.hop_cache._indexes)
        assert {key[0] for key in before} == {"a", "b"}
        lake = {t.name: t for t in _lake()}
        service.update_table(lake["a"])
        assert service.hop_cache._indexes == before  # a mutation touches none
        service.discover("base", "label")
        after = service.hop_cache._indexes
        assert after.keys() == before.keys()
        for key, (table, index) in after.items():
            if key[0] == "a":
                assert table is lake["a"] and index is not before[key][1]
            else:
                assert (table, index) == before[key]

    def test_register_does_not_touch_hop_cache(self, service):
        service.discover("base", "label")
        service.drop_table("far")
        entries = dict(service.hop_cache._indexes)
        lake = {t.name: t for t in _lake()}
        service.register_table(lake["far"])
        assert service.hop_cache._indexes == entries
        # A mutation only publishes the new snapshot; no cache is called.
        source = inspect.getsource(DiscoveryService._mutate)
        assert "hop_cache" not in source and "_results" not in source

    def test_mutation_report_shape(self, service):
        report = service.drop_table("far")
        assert report.kind == "drop"
        assert report.table == "far"
        assert report.version == 1
        assert (report.n_pairs_rematched, report.n_pairs_reused) == (0, 3)

    def test_requests_after_mutation_see_new_snapshot(self, service):
        service.drop_table("far")
        resp = service.discover("base", "label")
        assert resp.snapshot_version == 1


class TestBounds:
    """Both caches stay bounded however many configs and mutations pass."""

    def test_distinct_configs_stay_within_the_result_bound(self, service, config):
        responses = [
            service.discover(
                "base", "label", config=dataclasses.replace(config, tau=i / 1000)
            )
            for i in range(1000)
        ]
        assert not any(r.cache_hit for r in responses)
        assert service.stats()["cached_results"] <= RESULT_ENTRIES
        # The most recent configs are the ones still served warm.
        last = dataclasses.replace(config, tau=999 / 1000)
        assert service.discover("base", "label", config=last).cache_hit

    def test_updates_of_one_satellite_keep_one_hop_entry_per_key(self, service):
        service.discover("base", "label")
        triples = set(service.hop_cache._indexes)
        for _ in range(50):
            service.update_table(_lake()[1])  # a fresh "a" object each time
            response = service.discover("base", "label")
            assert not response.cache_hit
        assert set(service.hop_cache._indexes) == triples
        assert len(service.hop_cache) == len(triples)


    def test_store_under_contention_serves_only_matching_results(self):
        store = ResultStore()
        n_threads, n_loops, n_keys = 4, 300, RESULT_ENTRIES + 16
        envelopes = [
            Envelope(tables=(Table({"k": [i]}, name="t"),), edges=())
            for i in range(n_threads)
        ]
        wrong = []

        def client(i):
            for loop in range(n_loops):
                key = (loop % n_keys,)
                got = store.get(key, envelopes[i])
                if got is not None and got != (i, key):
                    wrong.append(got)
                store.put(key, envelopes[i], (i, key))

        threads = [threading.Thread(target=client, args=(i,)) for i in range(n_threads)]
        switch_interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)  # 4 clients on 2 cores
        try:
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(30)
        finally:
            sys.setswitchinterval(switch_interval)
        assert not any(thread.is_alive() for thread in threads)
        assert wrong == []
        assert len(store) == RESULT_ENTRIES


class TestEnvelope:
    def _drg(self, tables, constraints):
        return DatasetRelationGraph.from_constraints(
            tables, [KFKConstraint(*c) for c in constraints]
        )

    def test_radius_tables_and_edges(self):
        lake = _lake()
        drg = DatasetRelationGraph.from_discovery(lake, chain_matcher)
        envelope = Envelope.of(drg, "base", 1)
        assert [t.name for t in envelope.tables] == ["base", "a"]
        assert envelope.tables[1] is lake[1]
        assert [(e.source, e.target) for e in envelope.edges] == [
            ("base", "a"), ("a", "base"),  # a's edge to b leaves the radius
        ]
        assert Envelope.of(drg, "ghost", 2) == Envelope((), ())

    def test_equal_iff_same_table_objects_and_same_edges(self):
        lake = _lake()
        chain = [("base", "id", "a", "id"), ("a", "link", "b", "link")]
        envelope = Envelope.of(self._drg(lake, chain), "base", 2)
        assert Envelope.of(self._drg(lake, chain), "base", 2) == envelope
        # Same tables, one edge more: the traversal could walk it.
        wider = self._drg(lake, chain + [("base", "id", "b", "link")])
        assert Envelope.of(wider, "base", 2) != envelope
        # Same edges, a content-equal copy of one table: a new object.
        copy = [lake[0], Table({n: lake[1][n].to_list() for n in lake[1].column_names}, name="a"), *lake[2:]]
        assert copy[1] == lake[1]
        assert Envelope.of(self._drg(copy, chain), "base", 2) != envelope

    def test_snapshot_computes_each_envelope_once(self, service):
        snapshot = service.snapshot
        assert snapshot.envelope("base", 2) is snapshot.envelope("base", 2)
        assert snapshot.envelope("base", 2) == Envelope.of(snapshot.drg, "base", 2)


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
        assert metrics["counters"]["service.requests_received"] == 2
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
        assert stats["cached_results"] == 1
        assert stats["hop_cache"] == service.hop_cache.counters().as_dict()
        assert stats["hop_cache"]["index_builds"] == stats["hop_cache_entries"]
        assert (
            stats["hop_cache_hit_rate"] == stats["hop_cache"]["cache_hit_rate"]
        )
        assert stats["match_index"]["mutations"] == 1


class TestConcurrencyUnderMutation:
    def test_mutations_interleaved_with_requests(self, config):
        svc = DiscoveryService(_lake(), matcher=chain_matcher, config=config)
        lake = {t.name: t for t in _lake()}
        errors = []

        def requester():
            for _ in range(5):
                try:
                    svc.discover("base", "label")
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
        # Final state equals a cold build of the final lake.
        cold = DatasetRelationGraph.from_discovery(svc.index.tables, PairFake(_chain))
        assert svc.drg.edge_fingerprint() == cold.edge_fingerprint()


class TestAnytimeBudgets:
    """Per-request anytime budgets (DESIGN.md §14, service scope): each
    request brings its budget on its config."""

    def test_response_flags_clear_without_budget(self, service):
        response = service.discover("base", "label")
        assert response.budget_exhausted is False

    def test_max_hops_override_returns_partial(self, service, config):
        response = service.discover(
            "base", "label", config=dataclasses.replace(config, max_hops=1)
        )
        assert response.budget_exhausted
        assert response.result.navigation.hops_executed <= 1
        assert response.result.navigation.strategy == "ucb"

    def test_budget_overrides_get_distinct_cache_keys(self, service, config):
        one_hop = dataclasses.replace(config, max_hops=1)
        full = service.discover("base", "label")
        partial = service.discover("base", "label", config=one_hop)
        assert not full.cache_hit and not partial.cache_hit
        # Replays hit their own entries — the partial never shadows the
        # full answer and vice versa.
        assert service.discover("base", "label").cache_hit
        again = service.discover("base", "label", config=one_hop)
        assert again.cache_hit and again.budget_exhausted

    def test_hop_budget_partials_are_cacheable(self, service, config):
        one_hop = dataclasses.replace(config, max_hops=1)
        cold = service.discover("base", "label", config=one_hop)
        warm = service.discover("base", "label", config=one_hop)
        assert not cold.cache_hit and warm.cache_hit
        assert warm.result is cold.result

    def test_wall_clock_partials_are_not_cached(self, service, config):
        tiny = dataclasses.replace(config, budget_seconds=1e-9)
        first = service.discover("base", "label", config=tiny)
        second = service.discover("base", "label", config=tiny)
        assert first.budget_exhausted and second.budget_exhausted
        assert not first.cache_hit and not second.cache_hit

    def test_budget_exhausted_counter_increments(self, service, config):
        before = service.registry.counter(
            "service.requests_budget_exhausted"
        ).value
        service.discover("base", "label", config=dataclasses.replace(config, max_hops=0))
        after = service.registry.counter(
            "service.requests_budget_exhausted"
        ).value
        assert after == before + 1

    def test_augment_budget_propagates(self, service, config):
        response = service.augment(
            "base", "label", config=dataclasses.replace(config, budget_seconds=1e-9)
        )
        assert response.budget_exhausted
        assert response.result.trained == ()
