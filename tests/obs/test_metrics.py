"""MetricsRegistry instruments and the stats records that publish into it."""

import sys
import threading
import time
from dataclasses import fields

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.discovery import MatchCounters
from repro.engine import ExecutionStats, FailureReport
from repro.engine.faults import FailureRecord
from repro.obs import Counter, MetricsRegistry
from repro.selection.stats import SelectionStats


class TestInstruments:
    def test_counter_monotonic(self):
        registry = MetricsRegistry()
        c = registry.counter("x")
        c.inc().inc(4)
        assert registry.as_dict()["counters"]["x"] == 5
        with pytest.raises(ValueError):
            c.inc(-1)

    def test_gauge_last_value_wins(self):
        registry = MetricsRegistry()
        registry.gauge("g").set(1.5)
        registry.gauge("g").set(0.25)
        assert registry.as_dict()["gauges"]["g"] == 0.25

    def test_get_or_create_returns_same_instrument(self):
        registry = MetricsRegistry()
        assert registry.counter("a") is registry.counter("a")
        assert len(registry) == 1

    def test_name_unique_across_kinds(self):
        registry = MetricsRegistry()
        registry.counter("n")
        with pytest.raises(ValueError):
            registry.gauge("n")

    def test_contains_and_unknown_value(self):
        registry = MetricsRegistry()
        registry.counter("known")
        assert "known" in registry
        assert "unknown" not in registry

    def test_as_dict_sorted_sections(self):
        registry = MetricsRegistry()
        registry.counter("b.z").inc(2)
        registry.counter("a.y").inc(1)
        registry.gauge("g").set(0.5)
        payload = registry.as_dict()
        assert list(payload["counters"]) == ["a.y", "b.z"]
        assert payload["gauges"] == {"g": 0.5}
        assert list(payload) == ["counters", "gauges"]


class TestRegistryThreads:
    """The service mutates one registry from several request threads."""

    def test_racing_first_use_creates_one_counter(self, monkeypatch):
        """Deterministic form of the get-or-create race: both threads are
        inside ``Counter.__init__`` at once unless creation is locked."""
        original = Counter.__init__

        def slow_init(self, *args, **kwargs):
            time.sleep(0.02)
            original(self, *args, **kwargs)

        monkeypatch.setattr(Counter, "__init__", slow_init)
        registry = MetricsRegistry()
        barrier = threading.Barrier(2)

        def first_use():
            barrier.wait(timeout=5)
            registry.counter("service.result_cache_hits").inc()

        threads = [threading.Thread(target=first_use) for _ in range(2)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=5)
        assert not any(thread.is_alive() for thread in threads)
        assert registry.as_dict()["counters"]["service.result_cache_hits"] == 2

    def test_increments_are_exact_under_contention(self):
        registry = MetricsRegistry()
        n_threads, n_incs = 4, 500
        barrier = threading.Barrier(n_threads)

        def hammer():
            barrier.wait(timeout=5)
            for _ in range(n_incs):
                registry.counter("c").inc()

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=hammer) for _ in range(n_threads)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=30)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert registry.as_dict()["counters"]["c"] == n_threads * n_incs


def records(cls):
    """Strategy: one ``cls`` record with arbitrary field values.

    Float fields draw multiples of 0.5, so sums are exact (merge stays
    associative) and survive ``as_dict``'s six-place rounding.
    """
    ints = st.integers(0, 10**9)
    return st.builds(
        cls,
        **{
            f.name: ints if isinstance(f.default, int) else ints.map(lambda n: n / 2)
            for f in fields(cls)
        },
    )


@pytest.mark.parametrize("cls", [ExecutionStats, SelectionStats, MatchCounters])
class TestCounterRecords:
    """Every stats record gets its plumbing from ``CounterRecord``."""

    @given(data=st.data())
    def test_merge_is_a_commutative_monoid(self, cls, data):
        a, b, c = (data.draw(records(cls)) for _ in range(3))
        assert a.merged(b) == b.merged(a)
        assert a.merged(b).merged(c) == a.merged(b.merged(c))
        assert a.merged(cls()) == a == cls().merged(a)

    @given(data=st.data())
    def test_publish_matches_the_flat_view(self, cls, data):
        record = data.draw(records(cls))
        flat = record.as_dict()
        assert set(flat) == {f.name for f in fields(cls)} | set(cls.derived)
        assert all(flat[f.name] == getattr(record, f.name) for f in fields(cls))
        registry = record.publish(MetricsRegistry())
        published = registry.as_dict()
        assert {**published["counters"], **published["gauges"]} == {
            f"{cls.prefix}.{name}": value for name, value in flat.items()
        }
        other = record.publish(MetricsRegistry(), prefix="other")
        assert len(other) == len(registry) and f"other.{fields(cls)[0].name}" in other


class TestExecutionStatsBridge:
    def test_publish_counters_and_hit_rate(self):
        stats = ExecutionStats(
            hops_executed=10, index_builds=4, cache_hits=6, cache_misses=2,
            rows_probed=1000,
        )
        published = stats.publish(MetricsRegistry()).as_dict()
        assert published["counters"]["engine.hops_executed"] == 10
        assert published["gauges"]["engine.cache_hit_rate"] == 0.75


class TestFailureReportBridge:
    def test_publish_counts_by_kind(self):
        report = FailureReport(
            records=(
                FailureRecord(stage="discovery", error_kind="HopBudgetExceeded",
                              message="m", base_table="b"),
                FailureRecord(stage="discovery", error_kind="HopBudgetExceeded",
                              message="m2", base_table="b"),
                FailureRecord(stage="training", error_kind="InjectedFaultError",
                              message="m3", base_table="b"),
            ),
        )
        published = report.publish(MetricsRegistry()).as_dict()
        metrics = {**published["counters"], **published["gauges"]}
        assert metrics["faults.recorded"] == 3
        assert metrics["faults.kind.HopBudgetExceeded"] == 2
        assert metrics["faults.kind.InjectedFaultError"] == 1

    def test_empty_report_publishes_zero(self):
        published = FailureReport().publish(MetricsRegistry()).as_dict()
        assert {**published["counters"], **published["gauges"]}["faults.recorded"] == 0
