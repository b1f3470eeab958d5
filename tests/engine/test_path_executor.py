"""The training fits' hand-off: joins in the coordinator, fits anywhere.

``train_top_k`` materialises every top-k path itself, in ranked order,
before any fit starts, and only the fit ``evaluate_accuracy(...)`` may
leave the loop.  On one CPU the fits run inline, in ranked order, after
the last path is materialised.  On two CPUs a
tree model's fits run in a pool that may finish them in any order, yet
the accuracies come back in ranked order, a fit's exception re-raises on
the coordinator, fits still queued when the coordinator stops are
abandoned, and no worker outlives training however it ends.

The fits the pool runs are patched here with module-level functions: a
worker forked after the patch finds them by name.
"""

import multiprocessing
import os
import time
from concurrent.futures import Future
from dataclasses import replace

import pytest

from repro import ml
from repro.core import AutoFeat, AutoFeatConfig, MemoCounters, OutcomeMemo
from repro.engine import JoinEngine, resolve_max_workers
from repro.errors import ErrorBudgetExceeded

from tests.conftest import cpus, error_budget
from tests.core.driver_goldens import distinct_fits
from tests.core.test_parallel_faults import diamond_lake
from tests.fault_hooks import FaultInjector, HopLatency

_evaluate_accuracy = ml.evaluate_accuracy

#: Column names of the table whose fit :func:`slow_first_fit` delays; a
#: worker forked after the test sets it inherits the value.
SLOW_TABLE: tuple[str, ...] = ()


def slow_first_fit(table, *args):
    """The real fit, after a delay on :data:`SLOW_TABLE` only."""
    if tuple(table.column_names) == SLOW_TABLE:
        time.sleep(0.3)
    return _evaluate_accuracy(table, *args)


def exploding_fit(*args):
    raise RuntimeError("worker bug: corrupted model")


#: The file :func:`logged_slow_fit` appends one line per fit to; the
#: forked workers share it, so the count is exact whatever the machine's
#: speed.
FIT_LOG = None


def logged_slow_fit(table, *args):
    with open(FIT_LOG, "a") as log:
        log.write("fit\n")
    time.sleep(0.5)
    return _evaluate_accuracy(table, *args)


@pytest.fixture(scope="module")
def drg():
    return diamond_lake(n=120)


def config(**overrides):
    return AutoFeatConfig(sample_size=100, **overrides)


@pytest.fixture(scope="module")
def discovery(drg):
    discovery = AutoFeat(drg, config()).discover("base", "label")
    assert len(discovery.top(AutoFeatConfig().top_k)) > 1
    return discovery


def trained(result):
    return [(t.ranked.path.describe(), t.accuracy.hex()) for t in result.trained]


def fits_made(result) -> int:
    """The distinct fits a memo-less ``result`` made (see :func:`distinct_fits`)."""
    return distinct_fits(result.trained)


@pytest.fixture
def units(monkeypatch):
    """Every materialisation (the path) and inline fit of a run, in order."""
    calls = []
    materialize_path = JoinEngine.materialize_path

    def materialise(self, path, base_table):
        calls.append(("path", path.describe()))
        return materialize_path(self, path, base_table)

    def fit(table, *args):
        calls.append(("fit",))
        return _evaluate_accuracy(table, *args)

    monkeypatch.setattr(JoinEngine, "materialize_path", materialise)
    monkeypatch.setattr(ml, "evaluate_accuracy", fit)
    return calls


class TestSerialHandOff:
    def test_every_path_is_materialised_before_the_first_fit(
        self, drg, discovery, units
    ):
        result = AutoFeat(drg, config()).train_top_k(discovery, "knn")
        paths = [path for path, __ in trained(result)]
        fits = [("fit",)] * fits_made(result)
        assert units == [("path", path) for path in paths] + fits
        assert len(fits) < len(paths)

    def test_injected_fault_stops_a_unit_before_any_join(self, drg, discovery):
        hook = FaultInjector(failure_probability=1.0)
        result = AutoFeat(drg, config(), hop_hook=hook).train_top_k(
            discovery, "knn"
        )
        assert result.trained == ()
        top_k = AutoFeatConfig().top_k
        assert len(result.failure_report.records) == len(discovery.top(top_k))
        assert result.engine_stats.hops_executed == 0


def pooled(autofeat, discovery):
    """``train_top_k`` of a tree model on two CPUs: its fits pool."""
    with cpus(2):
        return autofeat.train_top_k(discovery, "lightgbm")


@pytest.mark.parametrize("backend", ("processes",))
class TestPoolHandOff:
    def test_outcomes_in_task_order_whatever_finishes_first(
        self, drg, discovery, backend, monkeypatch, pools
    ):
        first = discovery.top(AutoFeatConfig().top_k)[0].path
        table, __ = JoinEngine(drg).materialize_path(first, drg.table("base"))
        monkeypatch.setattr(f"{__name__}.SLOW_TABLE", tuple(table.column_names))
        monkeypatch.setattr(ml, "evaluate_accuracy", slow_first_fit)
        result = pooled(AutoFeat(drg, config()), discovery)
        inline = AutoFeat(drg, config()).train_top_k(discovery, "lightgbm")
        assert pools == [2]
        assert trained(result)[0][0] == first.describe()
        assert trained(result) == trained(inline)

    def test_unexpected_worker_exception_reraises_on_coordinator(
        self, drg, discovery, backend, monkeypatch, pools
    ):
        monkeypatch.setattr(ml, "evaluate_accuracy", exploding_fit)
        with pytest.raises(RuntimeError, match="worker bug"):
            pooled(AutoFeat(drg, config()), discovery)
        assert pools == [2]

    def test_queued_units_are_abandoned_when_consumer_stops(
        self, drg, discovery, backend, monkeypatch, tmp_path, pools
    ):
        # The coordinator stops as it starts waiting for the first fit:
        # all six are submitted and none has finished.
        def interrupted(*args, **kwargs):
            raise KeyboardInterrupt

        monkeypatch.setattr(f"{__name__}.FIT_LOG", str(tmp_path / "fits"))
        monkeypatch.setattr(ml, "evaluate_accuracy", logged_slow_fit)
        monkeypatch.setattr(Future, "result", interrupted)
        top_k = len(discovery.ranked_paths)
        assert top_k == 6
        autofeat = AutoFeat(drg, config(top_k=top_k))
        with pytest.raises(KeyboardInterrupt):
            pooled(autofeat, discovery)
        assert pools == [2]
        # The two running fits and the three the pool already handed to
        # its workers' call queue finish; the rest never start.
        assert len((tmp_path / "fits").read_text().splitlines()) < top_k


def test_auto_worker_count_follows_cpu_affinity(monkeypatch):
    # A container pinned to one CPU of a many-core machine must not start
    # one worker per machine core.
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0}, raising=False)
    monkeypatch.setattr(os, "cpu_count", lambda: 64)
    assert resolve_max_workers() == 1


def workers_used(result):
    return result.run_manifest.metrics["gauges"]["parallel.workers_used"]


class TestPoolRule:
    """A pool starts only for a tree model whose fits miss the memo at
    least twice on two CPUs or more, with one worker per miss up to the
    CPU count; every other fit runs inline."""

    def test_a_tree_model_pools_its_misses(self, drg, discovery, pools):
        result = pooled(AutoFeat(drg, config()), discovery)
        assert len(result.trained) == AutoFeatConfig().top_k
        assert pools == [2]
        assert workers_used(result) == 2

    def test_the_pool_is_no_wider_than_the_misses(self, drg, discovery, pools):
        # The top 6 paths are two distinct fits: four add no feature, and
        # two keep only ``c.signal`` along ``base -> a -> c``.
        with cpus(8):
            result = AutoFeat(drg, config(top_k=6)).train_top_k(discovery, "lightgbm")
        assert len(result.trained) == 6 and fits_made(result) == 2
        assert pools == [2]
        assert workers_used(result) == 2

    @pytest.mark.parametrize("model", ["knn", "linear_l1"])
    def test_other_models_fit_inline(self, drg, discovery, pools, model):
        with cpus(2):
            result = AutoFeat(drg, config()).train_top_k(discovery, model)
        assert pools == []
        assert workers_used(result) == 1

    def test_one_cpu_fits_inline(self, drg, discovery, pools):
        result = AutoFeat(drg, config()).train_top_k(discovery, "lightgbm")
        assert pools == []
        assert workers_used(result) == 1

    def test_a_memo_warm_rerun_with_one_miss_fits_inline(self, drg, discovery, pools):
        memo = OutcomeMemo()
        AutoFeat(drg, config(top_k=1), memo=memo).train_top_k(discovery, "lightgbm")
        with cpus(2):
            AutoFeat(drg, config(top_k=2), memo=memo).train_top_k(discovery, "lightgbm")
        assert pools == []
        # The re-run hit the first path and missed the second only.
        assert memo.counters()["train"] == MemoCounters(hits=1, misses=2, entries=2)

    def test_no_inline_fit_starts_past_the_deadline(
        self, drg, discovery, monkeypatch, pools
    ):
        deadline = time.monotonic() + 1.0
        fits = []

        def fit_through_the_deadline(*args):
            fits.append(args)
            time.sleep(max(0.0, deadline - time.monotonic()) + 0.01)
            return _evaluate_accuracy(*args)

        monkeypatch.setattr(ml, "evaluate_accuracy", fit_through_the_deadline)
        autofeat = AutoFeat(drg, config())
        result = autofeat.train_top_k(discovery, "lightgbm", deadline=deadline)
        assert len(fits) == len(result.trained) == 1
        assert result.budget_exhausted
        assert pools == []


class TestPoolIsGoneWhenTrainingEnds:
    """However training ends, it leaves no worker process behind.

    Discovery runs without the hook, so every failure lands in training.
    """

    def train(self, drg, hop_hook=None, **overrides):
        budgeted = config(**overrides)
        # Without the wall-clock budget: discovery must rank paths.
        unbudgeted = replace(budgeted, budget_seconds=None)
        discovery = AutoFeat(drg, unbudgeted).discover("base", "label")
        assert discovery.ranked_paths
        before = set(multiprocessing.active_children())
        try:
            return pooled(AutoFeat(drg, budgeted, hop_hook=hop_hook), discovery)
        finally:
            assert set(multiprocessing.active_children()) <= before

    def test_unexpected_worker_exception(self, drg, monkeypatch, pools):
        monkeypatch.setattr(ml, "evaluate_accuracy", exploding_fit)
        with pytest.raises(RuntimeError, match="worker bug"):
            self.train(drg)
        assert pools == [2]

    def test_error_budget_exceeded(self, drg):
        with error_budget(0), pytest.raises(ErrorBudgetExceeded):
            self.train(drg, FaultInjector(failure_probability=1.0))

    def test_expired_run_budget(self, drg):
        result = self.train(drg, HopLatency(0.1), budget_seconds=0.06)
        assert result.budget_exhausted

    def test_keyboard_interrupt_in_the_merge_loop(self, drg, monkeypatch, pools):
        def interrupted(*args):
            raise KeyboardInterrupt

        # Raised where the first collected accuracy is recorded, while the
        # pool still holds the other fits.
        monkeypatch.setattr("repro.core.autofeat.TrainedPath", interrupted)
        with pytest.raises(KeyboardInterrupt):
            self.train(drg)
        assert pools == [2]
