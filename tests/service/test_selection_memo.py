"""The service's selection memo: warm answers equal a cold rebuild.

``DiscoveryService`` shares one content-addressed
:class:`~repro.core.SelectionMemo` between all its runs.  Whatever the
interleaving of reads and mutations, every response must equal a cold
``from_discovery`` + ``AutoFeat`` run over the lake *at the snapshot
version the response reports* — ranked paths, scores, selected features,
``selection_stats`` and failure report — and no mutation touches the memo.
"""

import dataclasses
import inspect
import sys
import threading

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro import AutoFeat, AutoFeatConfig, DiscoveryService
from repro.core import SelectionMemo, streaming
from repro.discovery import ComaMatcher
from repro.graph import DatasetRelationGraph

from .test_incremental_equivalence import (
    CONFIG,
    SATELLITE_POOL,
    discovery_fingerprint,
    make_base,
    make_satellite,
)

#: Request configs: distinct memo states that still share one memo.
VARIANTS = (CONFIG, dataclasses.replace(CONFIG, tau=0.3), dataclasses.replace(CONFIG, kappa=1))
JOIN_TIMEOUT = 120


def initial_lake():
    return [make_base(), make_satellite("s1", 0), make_satellite("s2", 1)]


def fingerprint(kind, result):
    """What a memo-served response must share with a cold rebuild."""
    discovery = result.discovery if kind == "augment" else result
    out = discovery_fingerprint(discovery)
    out["selection_stats"] = dataclasses.asdict(discovery.selection_stats)
    if kind == "augment":
        out["trained"] = [
            (t.ranked.path.describe(), t.accuracy, t.n_features_used)
            for t in result.trained
        ]
        out["best"] = result.best and result.best.ranked.path.describe()
        out["augmented"] = result.augmented_table
        out["train_failures"] = result.failure_report.n_failures
    return out


def cold(kind, tables, config):
    drg = DatasetRelationGraph.from_discovery(list(tables), ComaMatcher(), threshold=0.55)
    autofeat = AutoFeat(drg, dataclasses.replace(config, parallel_backend="serial"))
    if kind == "discover":
        return autofeat.discover("base", "label")
    return autofeat.augment("base", "label", "knn")


def read(service, kind, config):
    if kind == "discover":
        return service.discover("base", "label", config=config, use_cache=False)
    return service.augment("base", "label", "knn", config=config, use_cache=False)


op_strategy = st.one_of(
    st.tuples(
        st.sampled_from(["discover", "discover", "augment"]),
        st.integers(0, len(VARIANTS) - 1),
        st.just(0),
    ),
    st.tuples(
        st.sampled_from(["register", "update", "drop"]),
        st.integers(0, len(SATELLITE_POOL) - 1),
        st.integers(0, 6),
    ),
)


class TestEveryResponseEqualsAColdRebuild:
    @settings(
        max_examples=8, deadline=None, suppress_health_check=[HealthCheck.too_slow]
    )
    @given(
        streams=st.tuples(
            st.lists(op_strategy, min_size=2, max_size=6),
            st.lists(op_strategy, min_size=2, max_size=6),
        )
    )
    def test_random_interleavings_on_two_threads(self, streams):
        service = DiscoveryService(initial_lake(), config=CONFIG, n_workers=2)
        versions = {0: tuple(service.index.tables)}
        mutating = threading.Lock()  # versions[] needs each mutation's lake
        responses, errors = [], []

        def client(ops):
            try:
                for kind, idx, variant in ops:
                    if kind in ("discover", "augment"):
                        responses.append(
                            (kind, idx, read(service, kind, VARIANTS[idx]))
                        )
                        continue
                    name = SATELLITE_POOL[idx]
                    with mutating:
                        present = name in service.index
                        if kind == "register" and not present:
                            service.register_table(make_satellite(name, variant))
                        elif kind == "update" and present:
                            service.update_table(make_satellite(name, variant))
                        elif kind == "drop" and present:
                            service.drop_table(name)
                        versions[service.version] = tuple(service.index.tables)
            except BaseException as exc:  # re-raised on the main thread
                errors.append(exc)

        threads = [threading.Thread(target=client, args=(ops,)) for ops in streams]
        switch_interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)  # 2 clients + 2 workers on 2 cores
        try:
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(JOIN_TIMEOUT)
            assert not any(thread.is_alive() for thread in threads)
        finally:
            sys.setswitchinterval(switch_interval)
            service.close()
        if errors:
            raise errors[0]

        rebuilt = {}
        for kind, idx, response in responses:
            key = (kind, idx, response.snapshot_version)
            if key not in rebuilt:
                rebuilt[key] = fingerprint(
                    kind, cold(kind, versions[response.snapshot_version], VARIANTS[idx])
                )
            assert fingerprint(kind, response.result) == rebuilt[key], key

    @pytest.mark.parametrize("backend", ["serial", "processes"])
    def test_both_backends_across_a_mutation(self, backend):
        config = dataclasses.replace(CONFIG, parallel_backend=backend, max_workers=2)
        lake = initial_lake()
        with DiscoveryService(lake, config=config, n_workers=1) as service:
            before = [read(service, kind, config) for kind in ("discover", "augment")]
            service.update_table(make_satellite("s2", 4))
            after = read(service, "discover", config)
            tables = tuple(service.index.tables)
            memo = service.stats()["selection_memo"]
        # The augment re-ran the discover just answered; the post-mutation
        # discover replayed whatever precedes the mutated table.
        assert memo["hits"] > 0 and memo["misses"] > 0
        for kind, response in zip(("discover", "augment"), before):
            assert fingerprint(kind, response.result) == fingerprint(
                kind, cold(kind, lake, config)
            )
        assert after.snapshot_version == 1
        assert fingerprint("discover", after.result) == fingerprint(
            "discover", cold("discover", tables, config)
        )


class _RacingMemo(SelectionMemo):
    """Both threads look a key up before either stores it."""

    def __init__(self):
        super().__init__()
        self.barrier = threading.Barrier(2)
        self.puts = []

    def get(self, key):
        entry = super().get(key)
        try:
            self.barrier.wait(timeout=10)
        except threading.BrokenBarrierError:
            pass
        return entry

    def put(self, key, entry):
        self.puts.append((key, entry))
        super().put(key, entry)


class TestRacingOneKey:
    def test_both_compute_and_store_the_same_value(self):
        service = DiscoveryService(initial_lake(), config=CONFIG, n_workers=2)
        memo = service.selection_memo = _RacingMemo()
        try:
            futures = [
                service.submit("discover", "base", "label", use_cache=False)
                for _ in range(2)
            ]
            first, second = (f.result(JOIN_TIMEOUT) for f in futures)
        finally:
            service.close()
        assert not memo.barrier.broken  # the two runs went key by key together
        expected = fingerprint("discover", cold("discover", initial_lake(), CONFIG))
        assert fingerprint("discover", first.result) == expected
        assert fingerprint("discover", second.result) == expected
        # No single-flight: every key was missed twice, computed twice and
        # stored twice — with equal values, so the order cannot matter.
        stored = {}
        for key, entry in memo.puts:
            stored.setdefault(key, []).append(entry)
        assert stored and all(len(entries) == 2 for entries in stored.values())
        assert all(a == b for a, b in stored.values())
        assert memo.counters() == {
            "hits": 0,
            "misses": 2 * len(stored),
            "entries": len(stored),
            "evictions": 0,
        }


class TestWarmState:
    def test_rediscover_after_a_mutation_hits(self):
        # Two configs on one snapshot never share (the whole config is in
        # the digest); each one's re-run after a mutation replays the
        # steps whose bytes the mutation left alone.
        with DiscoveryService(initial_lake(), config=CONFIG, n_workers=1) as service:
            for config in VARIANTS[:2]:
                service.discover("base", "label", config=config)
            assert service.stats()["selection_memo"]["hits"] == 0
            service.update_table(make_satellite("s2", 4))
            for config in VARIANTS[:2]:
                service.discover("base", "label", config=config)
            stats = service.stats()
        memo = stats["selection_memo"]
        assert memo["hits"] > 0
        assert set(memo) == {"hits", "misses", "entries", "evictions"}
        gauges = stats["metrics"]["gauges"]
        for name, value in memo.items():
            assert gauges[f"service.selection_memo_{name}"] == value

    def test_request_manifest_and_spans_report_the_memo(self):
        with DiscoveryService(initial_lake(), config=CONFIG, n_workers=1) as service:
            responses = [
                service.discover("base", "label", use_cache=False) for _ in range(2)
            ]
            memo = service.stats()["selection_memo"]
        gauges = responses[1].manifest.as_dict()["metrics"]["gauges"]
        assert gauges["service.selection_memo_hits"] == memo["hits"] > 0
        for response, expected in zip(responses, (False, True)):
            spans = [
                s
                for s in _walk(response.result.run_manifest.timing)
                if s["name"] == "selection" and "features" in s["attrs"]
            ]
            assert spans
            assert {s["attrs"]["memo_hit"] for s in spans} == {expected}

    def test_a_full_memo_evicts_and_still_answers_exactly(self, monkeypatch):
        monkeypatch.setattr(streaming, "SELECTION_MEMO_ENTRIES", 2)
        lake = initial_lake()
        with DiscoveryService(lake, config=CONFIG, n_workers=1) as service:
            responses = [
                (kind, config, read(service, kind, config))
                for config in VARIANTS
                for kind in ("discover", "augment")
            ]
            memo = service.stats()["selection_memo"]
        assert memo["evictions"] > 0 and memo["entries"] == 2
        for kind, config, response in responses:
            assert fingerprint(kind, response.result) == fingerprint(
                kind, cold(kind, lake, config)
            )

    def test_mutations_never_touch_the_memo(self):
        # There is no invalidation path to get wrong: the key is the bytes.
        for name in ("register_table", "update_table", "drop_table", "_mutate",
                     "_invalidate_results"):
            source = inspect.getsource(getattr(DiscoveryService, name))
            assert "selection_memo" not in source, name
        with DiscoveryService(initial_lake(), config=CONFIG, n_workers=1) as service:
            service.discover("base", "label")
            before = service.stats()["selection_memo"]
            service.update_table(make_satellite("s1", 3))
            service.drop_table("s2")
            service.register_table(make_satellite("s3", 2))
            assert service.stats()["selection_memo"] == before


class TestNoNewKnob:
    def test_config_still_has_24_fields(self):
        assert len(dataclasses.fields(AutoFeatConfig)) == 24


def _walk(node):
    yield node
    for child in node.get("children", ()):
        yield from _walk(child)
