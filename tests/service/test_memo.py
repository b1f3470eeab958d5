"""The service's outcome memo: warm answers equal a cold rebuild.

``DiscoveryService`` shares one content-addressed
:class:`~repro.core.OutcomeMemo` between all its runs: selection steps in
its ``selection`` namespace, top-k fits in ``train``.  Whatever the
interleaving of reads and mutations, every response must equal a cold
``from_discovery`` + ``AutoFeat`` run over the lake *at the snapshot
version the response reports* — ranked paths, scores, selected features,
``selection_stats``, failure reports and, for ``augment``, every trained
accuracy, the best path and the augmented table — and no mutation touches
the memo.
"""

import dataclasses
import inspect
import sys
import threading
import time
from concurrent.futures import ThreadPoolExecutor
from functools import lru_cache

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro import AutoFeat, AutoFeatConfig, DiscoveryService
from repro.core import MemoCounters, OutcomeMemo
from repro.core import memo as memo_module
from repro.datasets import make_classification, rename_for_lake, split_into_lake
from repro.datasets.splitter import SplitPlan
from repro.discovery import ComaMatcher
from repro.engine import parallel
from repro.graph import DatasetRelationGraph
from repro.service import service as service_module

from tests.conftest import ROUTES, cpus
from tests.fault_hooks import FaultInjector

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


def cold(kind, tables, config, model="knn"):
    drg = DatasetRelationGraph.from_discovery(list(tables), ComaMatcher(), threshold=0.55)
    autofeat = AutoFeat(drg, config)
    if kind == "discover":
        return autofeat.discover("base", "label")
    return autofeat.augment("base", "label", model)


def read(service, kind, config, model="knn"):
    if kind == "discover":
        return service.discover("base", "label", config=config, use_cache=False)
    return service.augment("base", "label", model, config=config, use_cache=False)


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
        service = DiscoveryService(initial_lake(), config=CONFIG)
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
        sys.setswitchinterval(1e-5)  # 2 clients on 2 cores
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

    @pytest.mark.parametrize("route", ROUTES)
    def test_both_backends_across_a_mutation(self, route, pools):
        # Two distinct top-k fits of a tree model (redundancy off keeps
        # s1's feature on one path only): they pool on two CPUs.
        config = dataclasses.replace(CONFIG, top_k=2, redundancy_method=None)
        lake = initial_lake()
        with cpus(ROUTES[route]), DiscoveryService(lake, config=config) as service:
            before = [
                read(service, kind, config, "lightgbm")
                for kind in ("discover", "augment")
            ]
            service.update_table(make_satellite("s2", 4))
            after = read(service, "discover", config)
            tables = tuple(service.index.tables)
            memo = service.stats()["memo"]["selection"]
        assert pools == ([2] if route == "processes" else [])
        # The augment re-ran the discover just answered; the post-mutation
        # discover replayed whatever precedes the mutated table.
        assert memo["hits"] > 0 and memo["misses"] > 0
        for kind, response in zip(("discover", "augment"), before):
            assert fingerprint(kind, response.result) == fingerprint(
                kind, cold(kind, lake, config, "lightgbm")
            )
        assert after.snapshot_version == 1
        assert fingerprint("discover", after.result) == fingerprint(
            "discover", cold("discover", tables, config)
        )


#: Augment requests on a 240-row split lake whose top-3 paths train on
#: three different matrices (redundancy off keeps every relevant feature).
AUGMENT_CONFIG = AutoFeatConfig(sample_size=120, top_k=3, redundancy_method=None)

#: Faults the ``t_t01 -> t_t02`` hop, so one of the three top-k paths of
#: :func:`split_lake` faults inside ``materialize_path`` and two train.
TRAIN_FAULTS = FaultInjector(failure_probability=0.3, seed=4)


@lru_cache(maxsize=1)
def split_lake():
    flat = make_classification(
        n_rows=240, n_informative=5, n_redundant=2, n_noise=3, class_sep=1.6, seed=0
    )
    plan = SplitPlan(
        name="t",
        n_satellites=4,
        n_base_features=2,
        max_depth=2,
        match_rate_range=(0.75, 1.0),
        seed=0,
    )
    bundle = split_into_lake(flat, plan)
    return bundle.base_name, bundle.label_column, tuple(rename_for_lake(bundle))


class _FaultyTraining(AutoFeat):
    """``TRAIN_FAULTS`` in training only: in discovery the same hook would
    prune the faulting edge before any path through it is ranked."""

    def train_top_k(self, discovery, model_name="lightgbm", deadline=None):
        self.hop_hook = TRAIN_FAULTS
        return super().train_top_k(discovery, model_name, deadline)


def table_bytes(table):
    if table is None:
        return None
    out = []
    for name in table.column_names:
        column = table.column(name)
        values = column.values
        out.append((
            name,
            column.dtype,
            column.mask.tobytes(),
            values.tobytes() if column.dtype.is_numeric else values.tolist(),
        ))
    return out


def augment_record(result):
    """What a memo-served ``augment`` must share with a cold rebuild, bit
    for bit: accuracies as ``float.hex``, the best path's index (the
    first-index tie-break) and every byte of the augmented table."""
    best = [i for i, t in enumerate(result.trained) if t is result.best]
    return {
        "discovery": discovery_fingerprint(result.discovery),
        "trained": [
            (t.ranked.path.describe(), float(t.accuracy).hex(), t.n_features_used)
            for t in result.trained
        ],
        "best": best,
        "augmented": table_bytes(result.augmented_table),
        "train_failures": [
            (f.error_kind, f.path, f.edge) for f in result.failure_report.records
        ],
        "budget_exhausted": result.budget_exhausted,
    }


class TestAugmentEqualsAColdRebuild:
    CASES = {
        "clean": ({}, AutoFeat),
        "max_hops": ({"max_hops": 4}, AutoFeat),
        "faults": ({}, _FaultyTraining),
    }

    #: A tree model, so the ``processes`` route pools its fits.
    MODEL = "lightgbm"

    @classmethod
    def serve(cls, config, pipeline, monkeypatch):
        """Four augment requests through one service: ``(asked, lookups,
        versions)``, ``lookups`` the ``train`` memo counters after each."""
        base, label, lake = split_lake()
        monkeypatch.setattr(service_module, "AutoFeat", pipeline)
        satellite = lake[3]  # t_t02: one top-k path joins it
        keep = np.random.default_rng(0).random(satellite.n_rows) < 0.9
        mutated = satellite.filter(keep)
        asked, lookups = [], []
        with DiscoveryService(lake, config=config) as service:
            versions = {0: lake}
            # A repeat, a tau-only variant (same training matrices, other
            # selection keys), then a read after one satellite changed.
            for step in ("first", "repeat", "tau", "update"):
                request = config
                if step == "tau":
                    request = dataclasses.replace(config, tau=0.3)
                if step == "update":
                    service.update_table(mutated)
                    versions[service.version] = tuple(service.index.tables)
                response = service.augment(
                    base, label, cls.MODEL, config=request, use_cache=False
                )
                asked.append((request, response))
                lookups.append(service.stats()["memo"]["train"])
        return asked, lookups, versions

    @pytest.mark.parametrize("case", sorted(CASES))
    @pytest.mark.parametrize("route", ROUTES)
    def test_augment_responses(self, route, case, monkeypatch, pools):
        overrides, pipeline = self.CASES[case]
        base, label, __ = split_lake()
        config = dataclasses.replace(AUGMENT_CONFIG, **overrides)
        with cpus(ROUTES[route]):
            asked, lookups, versions = self.serve(config, pipeline, monkeypatch)
        started = list(pools)

        for request, response in asked:
            drg = DatasetRelationGraph.from_discovery(
                list(versions[response.snapshot_version]), ComaMatcher(), threshold=0.55
            )
            cold = pipeline(drg, request).augment(base, label, self.MODEL)
            assert augment_record(response.result) == augment_record(cold), (
                response.snapshot_version
            )
            assert response.result.trained
            assert response.result.budget_exhausted is (case == "max_hops")
            assert response.result.failure_report.n_failures == (case == "faults")

        before = [MemoCounters().as_dict()] + lookups
        hits = [b["hits"] - a["hits"] for a, b in zip(before, lookups)]
        misses = [b["misses"] - a["misses"] for a, b in zip(before, lookups)]
        # One lookup per path that trained: a path faulting in
        # materialize_path never reaches the memo, so it never stores.
        for (__, response), hit, miss in zip(asked, hits, misses):
            assert hit + miss == len(response.result.trained)
        assert lookups[-1]["entries"] == sum(misses)
        assert hits[0] == 0 and misses[1] == 0
        assert hits[2] > 0 and hits[3] > 0
        # A request pools when two of its fits miss (each miss is distinct:
        # a repeated key hits the entry its first fit stored).
        pooled = sum(miss >= 2 for miss in misses)
        assert pooled > 0
        assert started == ([2] * pooled if route == "processes" else [])
        if route == "processes":
            # The coordinator consults the memo in ranked order on both
            # routes, so the pool sees the same hits and misses.
            assert lookups == self.serve(config, pipeline, monkeypatch)[1]


class TestConcurrentAugments:
    def test_concurrent_pools_share_the_cpu_cap(self, monkeypatch):
        """Two ``lightgbm`` augments at once on two CPUs: the request that
        reaches the rule first pools on both, the other finds none free
        and fits inline, and both answers equal a cold rebuild."""
        base, label, lake = split_lake()
        configs = [dataclasses.replace(AUGMENT_CONFIG, seed=seed) for seed in (0, 1)]
        lock = threading.Lock()
        started = []
        release = threading.Event()
        fit_pool = parallel.fit_pool

        def held(workers):
            # The first pool keeps its workers reserved until the other
            # request has answered, so the two runs overlap.
            with lock:
                started.append(workers)
                first = len(started) == 1
            if first:
                assert release.wait(JOIN_TIMEOUT)
            return fit_pool(workers)

        monkeypatch.setattr(parallel, "fit_pool", held)
        with (
            cpus(2),
            DiscoveryService(lake, config=AUGMENT_CONFIG) as service,
            ThreadPoolExecutor(2) as callers,
        ):
            futures = [
                callers.submit(service.augment, base, label, "lightgbm", config=config)
                for config in configs
            ]
            give_up = time.monotonic() + JOIN_TIMEOUT
            while not any(f.done() for f in futures) and time.monotonic() < give_up:
                time.sleep(0.01)
            release.set()
            responses = [future.result(JOIN_TIMEOUT) for future in futures]

        assert started == [2]
        used = [
            r.result.run_manifest.metrics["gauges"]["parallel.workers_used"]
            for r in responses
        ]
        assert sorted(used) == [1, 2]
        drg = DatasetRelationGraph.from_discovery(list(lake), ComaMatcher(), threshold=0.55)
        for config, response in zip(configs, responses):
            cold = AutoFeat(drg, config).augment(base, label, "lightgbm")
            assert augment_record(response.result) == augment_record(cold)

    def test_a_host_that_cannot_fork_fits_inline(self, monkeypatch, pools):
        base, label, lake = split_lake()
        drg = DatasetRelationGraph.from_discovery(list(lake), ComaMatcher(), threshold=0.55)
        expected = AutoFeat(drg, AUGMENT_CONFIG).augment(base, label, "lightgbm")
        monkeypatch.delattr(parallel.os, "fork")
        with cpus(2):
            result = AutoFeat(drg, AUGMENT_CONFIG).augment(base, label, "lightgbm")
        assert pools == []
        assert augment_record(result) == augment_record(expected)


class _RacingMemo(OutcomeMemo):
    """Both threads look a key up before either stores it."""

    def __init__(self):
        super().__init__()
        self.barrier = threading.Barrier(2)
        self.puts = []

    def get(self, namespace, key):
        entry = super().get(namespace, key)
        try:
            self.barrier.wait(timeout=10)
        except threading.BrokenBarrierError:
            pass
        return entry

    def put(self, namespace, key, entry):
        self.puts.append((key, entry))
        super().put(namespace, key, entry)


class TestRacingOneKey:
    def test_both_compute_and_store_the_same_value(self):
        service = DiscoveryService(initial_lake(), config=CONFIG)
        memo = service.memo = _RacingMemo()
        with service, ThreadPoolExecutor(2) as callers:
            futures = [
                callers.submit(service.discover, "base", "label", use_cache=False)
                for _ in range(2)
            ]
            first, second = (f.result(JOIN_TIMEOUT) for f in futures)
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
        assert memo.counters()["selection"] == MemoCounters(
            misses=2 * len(stored), entries=len(stored)
        )


class TestWarmState:
    def test_rediscover_after_a_mutation_hits(self):
        # Two configs on one snapshot never share (the whole config is in
        # the digest); each one's re-run after a mutation replays the
        # steps whose bytes the mutation left alone.
        with DiscoveryService(initial_lake(), config=CONFIG) as service:
            for config in VARIANTS[:2]:
                service.discover("base", "label", config=config)
            assert service.stats()["memo"]["selection"]["hits"] == 0
            service.update_table(make_satellite("s2", 4))
            for config in VARIANTS[:2]:
                service.discover("base", "label", config=config)
            stats = service.stats()
        assert stats["memo"]["selection"]["hits"] > 0
        gauges = stats["metrics"]["gauges"]
        for namespace, counters in stats["memo"].items():
            assert set(counters) == {"hits", "misses", "entries", "evictions"}
            for name, value in counters.items():
                assert gauges[f"service.memo_{namespace}_{name}"] == value

    def test_request_manifest_and_spans_report_the_memo(self):
        with DiscoveryService(initial_lake(), config=CONFIG) as service:
            responses = [
                service.discover("base", "label", use_cache=False) for _ in range(2)
            ]
            memo = service.stats()["memo"]["selection"]
        gauges = responses[1].manifest.as_dict()["metrics"]["gauges"]
        assert gauges["service.memo_selection_hits"] == memo["hits"] > 0
        for response, expected in zip(responses, (False, True)):
            spans = [
                s
                for s in _walk(response.result.run_manifest.timing)
                if s["name"] == "selection" and "features" in s["attrs"]
            ]
            assert spans
            assert {s["attrs"]["memo_hit"] for s in spans} == {expected}

    def test_evaluate_spans_report_the_memo(self):
        self.check_evaluate_spans("knn")

    def test_evaluate_spans_report_the_memo_on_the_pool(self, pools):
        with cpus(2):
            self.check_evaluate_spans("lightgbm")
        # The first request's three misses pool; the second hits thrice.
        assert pools == [2]

    @staticmethod
    def check_evaluate_spans(model):
        base, label, lake = split_lake()
        with DiscoveryService(lake, config=AUGMENT_CONFIG) as service:
            responses = [
                service.augment(base, label, model, use_cache=False) for _ in range(2)
            ]
            memo = service.stats()["memo"]["train"]
        gauges = responses[1].manifest.as_dict()["metrics"]["gauges"]
        assert gauges["service.memo_train_hits"] == memo["hits"] == 3
        assert gauges["service.memo_train_misses"] == memo["misses"] == 3
        for response, expected in zip(responses, (False, True)):
            spans = [
                s
                for s in _walk(response.result.run_manifest.timing)
                if s["name"] == "evaluate"
            ]
            assert len(spans) == len(response.result.trained) == 3
            assert {s["attrs"]["memo_hit"] for s in spans} == {expected}

    def test_a_full_memo_evicts_and_still_answers_exactly(self, monkeypatch):
        monkeypatch.setattr(memo_module, "MEMO_ENTRIES", 2)
        lake = initial_lake()
        with DiscoveryService(lake, config=CONFIG) as service:
            responses = [
                (kind, config, read(service, kind, config))
                for config in VARIANTS
                for kind in ("discover", "augment")
            ]
            memo = service.stats()["memo"]["selection"]
        assert memo["evictions"] > 0 and memo["entries"] == 2
        for kind, config, response in responses:
            assert fingerprint(kind, response.result) == fingerprint(
                kind, cold(kind, lake, config)
            )

    def test_mutations_never_touch_the_memo(self):
        # There is no invalidation path to get wrong: the key is the bytes.
        for name in ("register_table", "update_table", "drop_table", "_mutate"):
            source = inspect.getsource(getattr(DiscoveryService, name))
            assert "memo" not in source, name
        with DiscoveryService(initial_lake(), config=CONFIG) as service:
            service.augment("base", "label", "knn")
            before = service.stats()["memo"]
            assert before["train"]["entries"] > 0
            service.update_table(make_satellite("s1", 3))
            service.drop_table("s2")
            service.register_table(make_satellite("s3", 2))
            assert service.stats()["memo"] == before


class TestNoNewKnob:
    def test_config_still_has_14_fields(self):
        assert len(dataclasses.fields(AutoFeatConfig)) == 14


def _walk(node):
    yield node
    for child in node.get("children", ()):
        yield from _walk(child)
