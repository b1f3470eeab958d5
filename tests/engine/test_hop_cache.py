"""Exact accounting of the cross-path hop cache."""

from repro.dataframe import Table
from repro.engine import ExecutionStats, HopCache, JoinEngine
from repro.graph import DatasetRelationGraph, KFKConstraint


class CountingBuilder:
    """Stands in for the JoinIndex build phase; counts invocations."""

    def __init__(self):
        self.calls = 0

    def __call__(self):
        self.calls += 1
        return object()


class TestEnabledCache:
    def test_miss_then_hit(self):
        cache, stats, builder = HopCache(), ExecutionStats(), CountingBuilder()
        first = cache.get_or_build("t", "t.k", 0, builder, stats)
        second = cache.get_or_build("t", "t.k", 0, builder, stats)
        assert first is second
        assert builder.calls == 1
        assert (stats.index_builds, stats.cache_hits, stats.cache_misses) == (1, 1, 1)
        assert len(cache) == 1
        assert ("t", "t.k", 0) in cache

    def test_distinct_keys_build_separately(self):
        cache, stats, builder = HopCache(), ExecutionStats(), CountingBuilder()
        cache.get_or_build("t", "t.k", 0, builder, stats)
        cache.get_or_build("t", "t.other", 0, builder, stats)  # other key column
        cache.get_or_build("u", "t.k", 0, builder, stats)  # other table
        cache.get_or_build("t", "t.k", 1, builder, stats)  # other seed
        assert builder.calls == 4
        assert stats.cache_misses == 4
        assert stats.cache_hits == 0
        assert len(cache) == 4

    def test_clear_forces_rebuild(self):
        cache, builder = HopCache(), CountingBuilder()
        cache.get_or_build("t", "t.k", 0, builder)
        cache.clear()
        assert len(cache) == 0
        cache.get_or_build("t", "t.k", 0, builder)
        assert builder.calls == 2

    def test_stats_optional(self):
        cache, builder = HopCache(), CountingBuilder()
        assert cache.get_or_build("t", "t.k", 0, builder) is cache.get_or_build(
            "t", "t.k", 0, builder
        )


class TestStats:
    def test_snapshot_freezes_counters(self):
        """A snapshot is a copy: the engine keeps counting, it does not."""
        base = Table({"k": [1, 2, 3], "label": [0, 1, 0]}, name="base")
        side = Table({"k": [1, 2, 3], "x": [0.1, 0.2, 0.3]}, name="side")
        drg = DatasetRelationGraph.from_constraints(
            [base, side], [KFKConstraint("base", "k", "side", "k")]
        )
        engine = JoinEngine(drg, seed=0)
        edge = drg.best_join_options("base", "side")[0]
        engine.apply_hop(base, edge, "base")
        snap = engine.snapshot()
        engine.apply_hop(base, edge, "base")
        assert snap is not engine.stats
        assert (snap.hops_executed, snap.cache_hits, snap.rows_probed) == (1, 0, 3)
        assert snap.cache_lookups == 1
        assert engine.snapshot() == ExecutionStats(
            hops_executed=2, index_builds=1, cache_hits=1, cache_misses=1,
            rows_probed=6,
        )
        assert engine.snapshot().cache_hit_rate == 1 / 2

    def test_hit_rate_zero_without_lookups(self):
        assert ExecutionStats().cache_hit_rate == 0.0

    def test_merged_sums_counterwise(self):
        a = ExecutionStats(hops_executed=2, index_builds=1, cache_hits=1,
                           cache_misses=1, rows_probed=10)
        b = ExecutionStats(hops_executed=3, index_builds=3, cache_hits=0,
                           cache_misses=3, rows_probed=5)
        merged = a.merged(b)
        assert merged == ExecutionStats(hops_executed=5, index_builds=4,
                                        cache_hits=1, cache_misses=4,
                                        rows_probed=15)

    def test_as_dict_reports_hit_rate(self):
        stats = ExecutionStats(hops_executed=4, index_builds=3, cache_hits=1,
                               cache_misses=3, rows_probed=40)
        row = stats.as_dict()
        assert row["cache_hit_rate"] == 0.25
        assert row["index_builds"] == 3


class SlowBuilder:
    """A builder that parks inside the build phase so threads pile up."""

    def __init__(self, delay=0.05, fail_times=0):
        import threading

        self.calls = 0
        self.delay = delay
        self.fail_times = fail_times
        self._lock = threading.Lock()

    def __call__(self):
        import time

        with self._lock:
            self.calls += 1
            call = self.calls
        time.sleep(self.delay)
        if call <= self.fail_times:
            raise RuntimeError(f"build {call} failed")
        return ("index", call)


class TestThreadSafety:
    """Regression tests for the latent single-threaded-mutation bug.

    Before the single-flight rewrite, concurrent probes of a cold key
    could each run the builder (double materialisation) and interleave
    counter updates; these tests pin the exact-accounting contract the
    parallel backends rely on.
    """

    N_THREADS = 8

    def _race(self, cache, builder, n_threads=N_THREADS):
        import threading

        stats = [ExecutionStats() for _ in range(n_threads)]
        results = [None] * n_threads
        barrier = threading.Barrier(n_threads)

        def probe(i):
            barrier.wait()
            results[i] = cache.get_or_build("t", "t.k", 0, builder, stats[i])

        threads = [
            threading.Thread(target=probe, args=(i,)) for i in range(n_threads)
        ]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        return results, stats

    def test_cold_key_is_built_exactly_once_under_contention(self):
        from repro.engine import HopCache

        cache, builder = HopCache(), SlowBuilder()
        results, _ = self._race(cache, builder)
        assert builder.calls == 1, "cold key was double-materialised"
        assert all(r is results[0] for r in results)
        assert len(cache) == 1

    def test_counters_stay_exact_under_contention(self):
        from repro.engine import ExecutionStats, HopCache

        cache, builder = HopCache(), SlowBuilder()
        _, stats = self._race(cache, builder)
        merged = ExecutionStats.merge(stats)
        # Identical totals to a serial sequence of the same lookups:
        # one miss + one build for the cold key, a hit for everyone else.
        assert merged.index_builds == 1
        assert merged.cache_misses == 1
        assert merged.cache_hits == self.N_THREADS - 1

    def test_waiters_retry_when_the_elected_builder_fails(self):
        import threading

        from repro.engine import HopCache

        cache = HopCache()
        builder = SlowBuilder(delay=0.02, fail_times=1)
        n = 4
        stats = [ExecutionStats() for _ in range(n)]
        results = [None] * n
        errors = [None] * n
        barrier = threading.Barrier(n)

        def probe(i):
            barrier.wait()
            try:
                results[i] = cache.get_or_build("t", "t.k", 0, builder, stats[i])
            except RuntimeError as exc:
                errors[i] = exc

        threads = [threading.Thread(target=probe, args=(i,)) for i in range(n)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        # Exactly one thread surfaced the deterministic build error; the
        # waiters re-ran the lookup and one of them rebuilt successfully.
        assert sum(e is not None for e in errors) == 1
        built = [r for r in results if r is not None]
        assert built and all(r is built[0] for r in built)
        assert builder.calls == 2
        assert len(cache) == 1

    def test_distinct_keys_build_concurrently_without_cross_talk(self):
        import threading

        from repro.engine import ExecutionStats, HopCache

        cache = HopCache()
        builders = [SlowBuilder(delay=0.01) for _ in range(4)]
        stats = [ExecutionStats() for _ in range(8)]
        barrier = threading.Barrier(8)

        def probe(i):
            barrier.wait()
            cache.get_or_build(f"t{i % 4}", "t.k", 0, builders[i % 4], stats[i])

        threads = [threading.Thread(target=probe, args=(i,)) for i in range(8)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert [b.calls for b in builders] == [1, 1, 1, 1]
        merged = ExecutionStats.merge(stats)
        assert merged.index_builds == 4
        assert merged.cache_misses == 4
        assert merged.cache_hits == 4
        assert len(cache) == 4


class TestInvalidation:
    """Per-table surgical invalidation: the always-on service's mutation hook."""

    def test_invalidate_drops_only_that_tables_entries(self):
        cache, builder = HopCache(), CountingBuilder()
        cache.get_or_build("t", "t.k", 0, builder)
        cache.get_or_build("t", "t.other", 1, builder)
        cache.get_or_build("u", "u.k", 0, builder)
        dropped = cache.invalidate("t")
        assert dropped == 2
        assert len(cache) == 1
        assert ("u", "u.k", 0) in cache
        assert ("t", "t.k", 0) not in cache

    def test_invalidate_unknown_table_is_a_counted_noop(self):
        cache = HopCache()
        assert cache.invalidate("ghost") == 0
        assert cache.counters()["invalidations"] == 1
        assert cache.counters()["entries_invalidated"] == 0

    def test_lifetime_counters_and_hit_rate(self):
        cache, builder = HopCache(), CountingBuilder()
        cache.get_or_build("t", "t.k", 0, builder)
        cache.get_or_build("t", "t.k", 0, builder)
        cache.get_or_build("t", "t.k", 0, builder)
        cache.invalidate("t")
        cache.get_or_build("t", "t.k", 0, builder)
        counters = cache.counters()
        assert counters["hits"] == 2
        assert counters["misses"] == 2
        assert counters["builds"] == 2
        assert counters["invalidations"] == 1
        assert counters["entries_invalidated"] == 1
        assert cache.hit_rate == 0.5

    def test_concurrent_invalidation_keeps_counters_exact(self):
        import threading

        cache = HopCache()
        builder = SlowBuilder(delay=0.002)
        n_loops, n_threads = 25, 4
        barrier = threading.Barrier(n_threads + 1)

        def prober():
            barrier.wait()
            for _ in range(n_loops):
                cache.get_or_build("t", "t.k", 0, builder)

        def invalidator():
            barrier.wait()
            for _ in range(n_loops):
                cache.invalidate("t")

        threads = [threading.Thread(target=prober) for _ in range(n_threads)]
        threads.append(threading.Thread(target=invalidator))
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        counters = cache.counters()
        # Conservation laws that hold under any interleaving: every
        # lookup is a hit or a miss, every miss elects one builder, and
        # nothing invalidated is ever double-counted.
        assert counters["hits"] + counters["misses"] == n_loops * n_threads
        assert counters["builds"] == counters["misses"]
        assert builder.calls == counters["builds"]
        assert counters["invalidations"] == n_loops
        assert counters["entries_invalidated"] <= counters["builds"]

    def test_builder_racing_an_invalidation_never_publishes_stale(self):
        import threading

        cache = HopCache()
        release = threading.Event()
        entered = threading.Event()

        def parked_builder():
            entered.set()
            release.wait(2.0)
            return "stale"

        worker = threading.Thread(
            target=lambda: cache.get_or_build("t", "t.k", 0, parked_builder)
        )
        worker.start()
        assert entered.wait(2.0)
        # Invalidate while the elected builder is mid-build: its result
        # must be returned to its caller but never enter the cache.
        cache.invalidate("t")
        release.set()
        worker.join()
        assert len(cache) == 0
        assert ("t", "t.k", 0) not in cache
        # The next lookup is an ordinary miss that rebuilds fresh.
        fresh = cache.get_or_build("t", "t.k", 0, lambda: "fresh")
        assert fresh == "fresh"
        assert ("t", "t.k", 0) in cache
