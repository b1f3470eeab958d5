"""The selection-outcome memo: a selector with a memo ≡ one without.

One ``process_batch`` step is a pure function of (config, label, accepted
features, batch), so an :class:`OutcomeMemo` keyed by a digest of those
bytes in its ``selection`` namespace may be shared by any number of selectors — different configs,
different labels — without one ever answering for another.
"""

import dataclasses
import hashlib
import sys
import threading

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import (
    AutoFeat,
    AutoFeatConfig,
    MemoCounters,
    OutcomeMemo,
    StreamingFeatureSelector,
    autofeat_augment,
)
from repro.core import memo as memo_module
from repro.core import streaming
from repro import ml
from repro.ml import automl
from repro.errors import SelectionError

N_ROWS = 60
_rng = np.random.default_rng(7)
LABELS = (
    _rng.integers(0, 2, N_ROWS).astype(float),
    _rng.integers(0, 3, N_ROWS).astype(float),
)


def _column(i: int) -> np.ndarray:
    rng = np.random.default_rng(100 + i)
    column = LABELS[i % 2] * (1 + i % 3) + rng.normal(0, 0.4 + 0.3 * (i % 4), N_ROWS)
    if i % 3 == 0:  # a partial join: nulls on some rows
        column[rng.random(N_ROWS) < 0.25] = np.nan
    return column


#: Few distinct columns under few names, so sequences repeat batches, offer
#: an accepted name again and repeat a name inside one batch.
COLUMNS = [_column(i) for i in range(8)]
NAMES = ("t.a", "t.b", "u.a", "u.c")
CONFIGS = (
    AutoFeatConfig(),
    AutoFeatConfig(kappa=2),
    AutoFeatConfig(min_relevance=0.2),
    AutoFeatConfig(redundancy_method=None),
    AutoFeatConfig(relevance_metric=None, kappa=3),
    AutoFeatConfig(relevance_metric="pearson", redundancy_method="jmi"),
)

batch_strategy = st.lists(
    st.tuples(st.sampled_from(NAMES), st.integers(0, len(COLUMNS) - 1)),
    min_size=0,
    max_size=4,
)
run_strategy = st.tuples(
    st.integers(0, len(CONFIGS) - 1),
    st.integers(0, len(LABELS) - 1),
    st.booleans(),  # seed the selector with a base feature first
    st.lists(batch_strategy, min_size=1, max_size=5),
)


def _play(selector, seeded, batches):
    if seeded:
        selector.seed_with(["base.x"], COLUMNS[1].reshape(-1, 1))
    outcomes = []
    for batch in batches:
        names = [name for name, _ in batch]
        matrix = (
            np.column_stack([COLUMNS[i] for _, i in batch])
            if batch
            else np.empty((N_ROWS, 0))
        )
        outcomes.append(selector.process_batch(names, matrix))
    return outcomes, selector.selected_names, selector.stats


class TestMemoEquivalence:
    @settings(max_examples=60, deadline=None)
    @given(runs=st.lists(run_strategy, min_size=2, max_size=6))
    def test_shared_memo_never_changes_an_answer(self, runs):
        memo = OutcomeMemo()
        # Forwards then backwards: every run meets its own entries again,
        # with the other configs' and labels' entries in between.
        for config_idx, label_idx, seeded, batches in runs + runs[::-1]:
            plain = StreamingFeatureSelector(CONFIGS[config_idx], LABELS[label_idx])
            memoised = StreamingFeatureSelector(CONFIGS[config_idx], LABELS[label_idx])
            memoised.use_memo(memo)
            assert _play(memoised, seeded, batches) == _play(plain, seeded, batches)

    def test_a_repeated_run_is_all_hits(self):
        memo = OutcomeMemo()
        batches = [[("t.a", 0), ("t.b", 1)], [("u.a", 2), ("u.a", 4)], [("t.a", 0)]]
        answers = []
        for _ in range(2):
            selector = StreamingFeatureSelector(CONFIGS[0], LABELS[0])
            selector.use_memo(memo)
            answers.append(_play(selector, True, batches))
            assert selector.memo_hit is bool(len(answers) == 2)
        assert answers[0] == answers[1]
        assert memo.counters()["selection"] == MemoCounters(
            hits=3, misses=3, entries=3, evictions=0
        )

    def test_rejected_batches_do_not_move_the_state(self):
        # State, not history: a batch that accepted nothing leaves the
        # digest alone, so the batch after it still hits.
        memo = OutcomeMemo()
        noise = np.ones((N_ROWS, 1))  # constant: zero relevance
        first = StreamingFeatureSelector(CONFIGS[0], LABELS[0])
        first.use_memo(memo)
        first.process_batch(["t.a"], COLUMNS[0].reshape(-1, 1))
        second = StreamingFeatureSelector(CONFIGS[0], LABELS[0])
        second.use_memo(memo)
        assert second.process_batch(["n.z"], noise).accepted_names == ()
        second.process_batch(["t.a"], COLUMNS[0].reshape(-1, 1))
        assert second.memo_hit

    def test_use_memo_must_come_first(self):
        selector = StreamingFeatureSelector(CONFIGS[0], LABELS[0])
        selector.seed_with(["base.x"], COLUMNS[1].reshape(-1, 1))
        with pytest.raises(SelectionError):
            selector.use_memo(OutcomeMemo())


#: One valid other value per config field: whatever differs must miss.
OTHER_VALUE = {
    "tau": 0.5, "kappa": 14, "min_relevance": 0.02, "top_k": 3,
    "max_path_length": 2, "relevance_metric": "pearson",
    "redundancy_method": "jmi", "sample_size": 999, "traversal": "dfs",
    "failure_policy": "retry", "error_budget": 7, "max_retries": 5,
    "hop_timeout_seconds": 9.0, "max_hop_output_rows": 10**6,
    "parallel_backend": "processes", "enable_tracing": False,
    "budget_seconds": 60.0, "max_hops": 10**6, "frontier_strategy": "fifo",
    "seed": 1,
}


class TestMemoIsolation:
    BATCHES = [[("t.a", 0), ("t.b", 1)], [("u.a", 2)]]

    def _warm(self):
        memo = OutcomeMemo()
        selector = StreamingFeatureSelector(AutoFeatConfig(), LABELS[0])
        selector.use_memo(memo)
        _play(selector, True, self.BATCHES)
        return memo

    def test_every_config_field_is_covered(self):
        assert set(OTHER_VALUE) == {f.name for f in dataclasses.fields(AutoFeatConfig)}

    def test_the_same_config_and_label_hit(self):
        memo = self._warm()
        selector = StreamingFeatureSelector(AutoFeatConfig(), LABELS[0].copy())
        selector.use_memo(memo)
        _play(selector, True, self.BATCHES)
        assert memo.counters()["selection"].hits == len(self.BATCHES)

    @pytest.mark.parametrize("field", sorted(OTHER_VALUE))
    def test_any_differing_config_field_misses(self, field):
        memo = self._warm()
        config = AutoFeatConfig(**{field: OTHER_VALUE[field]})
        assert config != AutoFeatConfig()
        selector = StreamingFeatureSelector(config, LABELS[0])
        selector.use_memo(memo)
        _play(selector, True, self.BATCHES)
        assert memo.counters()["selection"].hits == 0

    def test_a_different_label_misses(self):
        memo = self._warm()
        label = LABELS[0].copy()
        label[-1] = 1.0 - label[-1]
        selector = StreamingFeatureSelector(AutoFeatConfig(), label)
        selector.use_memo(memo)
        _play(selector, True, self.BATCHES)
        assert memo.counters()["selection"].hits == 0

    def test_a_different_seed_column_misses(self):
        memo = self._warm()
        selector = StreamingFeatureSelector(AutoFeatConfig(), LABELS[0])
        selector.use_memo(memo)
        _play(selector, False, self.BATCHES)
        assert memo.counters()["selection"].hits == 0


class TestMemoBound:
    def test_least_recently_used_entry_goes_first(self, monkeypatch):
        monkeypatch.setattr(memo_module, "MEMO_ENTRIES", 2)
        memo = OutcomeMemo()
        for key in (b"a", b"b"):
            memo.put("selection", key, (key,))
        assert memo.get("selection", b"a") == (b"a",)
        memo.put("selection", b"c", (b"c",))
        assert memo.get("selection", b"b") is None
        assert memo.get("selection", b"a") and memo.get("selection", b"c")
        assert memo.counters()["selection"] == MemoCounters(
            hits=3, misses=1, entries=2, evictions=1
        )

    def test_each_namespace_has_its_own_bound(self, monkeypatch):
        # One block's selection churn cannot evict fit outcomes.
        monkeypatch.setattr(memo_module, "MEMO_ENTRIES", 2)
        memo = OutcomeMemo()
        memo.put("train", b"fit", 0.75)
        for key in (b"a", b"b", b"c", b"d"):
            memo.put("selection", key, (key,))
        assert memo.get("train", b"fit") == 0.75
        counters = memo.counters()
        assert counters["selection"] == MemoCounters(entries=2, evictions=2)
        assert counters["train"] == MemoCounters(hits=1, entries=1)


class TestMemoUnderThreads:
    def test_no_lookup_or_store_is_lost(self, monkeypatch):
        # More threads than cores, switching every microsecond: every get
        # is counted once and the bound holds in both namespaces.
        monkeypatch.setattr(memo_module, "MEMO_ENTRIES", 8)
        memo = OutcomeMemo()
        n_threads, rounds = 6, 400
        barrier = threading.Barrier(n_threads)

        def work(seed):
            barrier.wait(timeout=10)
            for i in range(rounds):
                namespace = ("selection", "train")[(seed + i) % 2]
                key = bytes([(seed * 7 + i // 2) % 12])
                if memo.get(namespace, key) is None:
                    memo.put(namespace, key, (namespace, key))

        threads = [threading.Thread(target=work, args=(s,)) for s in range(n_threads)]
        switch_interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
        finally:
            sys.setswitchinterval(switch_interval)
        assert not any(thread.is_alive() for thread in threads)
        counters = memo.counters()
        gets = n_threads * rounds
        assert sum(c.hits + c.misses for c in counters.values()) == gets
        for namespace, c in counters.items():
            assert c.entries == 8
            # Each miss stores once; a store of a live key adds no entry.
            assert c.entries + c.evictions <= c.misses
            assert all(
                memo.get(namespace, bytes([k])) in (None, (namespace, bytes([k])))
                for k in range(12)
            )


class TestLibraryPathHashesNothing:
    def test_discover_without_a_memo_never_reaches_hashlib(self, monkeypatch):
        from tests.service.test_incremental_equivalence import (
            CONFIG, make_base, make_satellite,
        )
        from repro.graph import DatasetRelationGraph
        from repro.discovery import ComaMatcher

        drg = DatasetRelationGraph.from_discovery(
            [make_base(), make_satellite("s1", 0), make_satellite("s2", 1)],
            ComaMatcher(),
            threshold=0.55,
        )

        def boom(*args, **kwargs):
            raise AssertionError("the memo-less path computed a digest")

        monkeypatch.setattr(hashlib, "blake2b", boom)
        for module in (memo_module, streaming, automl):
            monkeypatch.setattr(module, "digest", boom)
        for module in (automl, ml):
            monkeypatch.setattr(module, "fit_key", boom)
        config = dataclasses.replace(CONFIG, enable_tracing=False, top_k=2)
        found = AutoFeat(drg, config).discover("base", "label")
        assert found.selection_stats.batches_scored > 0
        # Training too: the library's augment, on both backends, and the
        # one-call wrapper fit without ever keying a fit.
        for backend in ("serial", "processes"):
            run = dataclasses.replace(config, parallel_backend=backend)
            result = AutoFeat(drg, run).augment("base", "label", "knn")
            assert result.trained and result.best is not None
        wrapped = autofeat_augment(drg, "base", "label", config, model_name="knn")
        assert wrapped.trained
