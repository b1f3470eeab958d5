"""MetricsRegistry instruments and the stats records that publish into it."""

import pytest

from repro.engine import ExecutionStats, FailureReport
from repro.engine.faults import FailureRecord
from repro.obs import MetricsRegistry
from repro.selection.stats import SelectionStats


class TestInstruments:
    def test_counter_monotonic(self):
        registry = MetricsRegistry()
        c = registry.counter("x")
        c.inc().inc(4)
        assert registry.value("x") == 5
        with pytest.raises(ValueError):
            c.inc(-1)

    def test_gauge_last_value_wins(self):
        registry = MetricsRegistry()
        registry.gauge("g").set(1.5)
        registry.gauge("g").set(0.25)
        assert registry.value("g") == 0.25

    def test_histogram_streaming_summary(self):
        registry = MetricsRegistry()
        h = registry.histogram("h")
        for v in (1.0, 3.0, 2.0):
            h.observe(v)
        summary = registry.value("h")
        assert summary == {
            "count": 3, "total": 6.0, "min": 1.0, "max": 3.0, "mean": 2.0,
        }

    def test_empty_histogram_summary_is_zeroed(self):
        assert MetricsRegistry().histogram("h").summary()["count"] == 0

    def test_get_or_create_returns_same_instrument(self):
        registry = MetricsRegistry()
        assert registry.counter("a") is registry.counter("a")
        assert len(registry) == 1

    def test_name_unique_across_kinds(self):
        registry = MetricsRegistry()
        registry.counter("n")
        with pytest.raises(ValueError):
            registry.gauge("n")
        with pytest.raises(ValueError):
            registry.histogram("n")

    def test_contains_and_unknown_value(self):
        registry = MetricsRegistry()
        registry.counter("known")
        assert "known" in registry
        assert "unknown" not in registry
        with pytest.raises(KeyError):
            registry.value("unknown")

    def test_as_dict_sorted_sections(self):
        registry = MetricsRegistry()
        registry.counter("b.z").inc(2)
        registry.counter("a.y").inc(1)
        registry.gauge("g").set(0.5)
        payload = registry.as_dict()
        assert list(payload["counters"]) == ["a.y", "b.z"]
        assert payload["gauges"] == {"g": 0.5}
        assert payload["histograms"] == {}


class TestExecutionStatsBridge:
    def test_publish_counters_and_hit_rate(self):
        stats = ExecutionStats(
            hops_executed=10, index_builds=4, cache_hits=6, cache_misses=2,
            rows_probed=1000,
        )
        registry = stats.publish(MetricsRegistry())
        assert registry.value("engine.hops_executed") == 10
        assert registry.value("engine.cache_hit_rate") == 0.75

    def test_as_dict_from_dict_round_trip(self):
        stats = ExecutionStats(
            hops_executed=3, index_builds=2, cache_hits=1, cache_misses=2,
            rows_probed=50,
        )
        restored = ExecutionStats.from_dict(stats.as_dict())
        assert restored == stats
        # derived fields are recomputed, not stored
        assert restored.cache_hit_rate == pytest.approx(1 / 3)

    def test_from_dict_missing_keys_default_to_zero(self):
        assert ExecutionStats.from_dict({}) == ExecutionStats()

    def test_from_dict_ignores_keys_of_older_manifests(self):
        persisted = {
            "hops_executed": 3, "index_builds": 2, "cache_hits": 1,
            "cache_misses": 2, "rows_probed": 50, "cache_hit_rate": 0.3333,
            "chunks_executed": 4, "partitions_spilled": 1,
            "spill_bytes_written": 9, "spill_bytes_read": 9,
            "peak_resident_bytes": 7,
        }
        assert ExecutionStats.from_dict(persisted) == ExecutionStats(
            hops_executed=3, index_builds=2, cache_hits=1, cache_misses=2,
            rows_probed=50,
        )


class TestSelectionStatsBridge:
    def test_publish_and_round_trip(self):
        stats = SelectionStats(
            batches_scored=4, features_ranked=40, codes_cached=10,
            codes_reused=30, scalar_fallbacks=0,
        )
        registry = stats.publish(MetricsRegistry())
        assert registry.value("selection.features_ranked") == 40
        assert registry.value("selection.code_reuse_rate") == 0.75
        assert SelectionStats.from_dict(stats.as_dict()) == stats


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
            error_budget=8,
        )
        registry = report.publish(MetricsRegistry())
        assert registry.value("faults.recorded") == 3
        assert registry.value("faults.error_budget") == 8
        assert registry.value("faults.kind.HopBudgetExceeded") == 2
        assert registry.value("faults.kind.InjectedFaultError") == 1

    def test_empty_report_publishes_zero(self):
        registry = FailureReport().publish(MetricsRegistry())
        assert registry.value("faults.recorded") == 0
