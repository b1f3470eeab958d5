"""Exact accounting of the cross-path hop cache."""

from repro.dataframe import Table
from repro.engine import ExecutionStats, HopCache, JoinEngine
from repro.graph import DatasetRelationGraph, KFKConstraint

T = Table({"k": [1, 2]}, name="t")
U = Table({"k": [1, 2]}, name="u")


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
        first = cache.get_or_build(T, "t.k", 0, builder, stats)
        second = cache.get_or_build(T, "t.k", 0, builder, stats)
        assert first is second
        assert builder.calls == 1
        assert (stats.index_builds, stats.cache_hits, stats.cache_misses) == (1, 1, 1)
        assert len(cache) == 1
        assert ("t", "t.k", 0) in cache

    def test_distinct_keys_build_separately(self):
        cache, stats, builder = HopCache(), ExecutionStats(), CountingBuilder()
        cache.get_or_build(T, "t.k", 0, builder, stats)
        cache.get_or_build(T, "t.other", 0, builder, stats)  # other key column
        cache.get_or_build(U, "t.k", 0, builder, stats)  # other table
        cache.get_or_build(T, "t.k", 1, builder, stats)  # other seed
        assert builder.calls == 4
        assert stats.cache_misses == 4
        assert stats.cache_hits == 0
        assert len(cache) == 4

    def test_stats_optional(self):
        cache, builder = HopCache(), CountingBuilder()
        assert cache.get_or_build(T, "t.k", 0, builder) is cache.get_or_build(
            T, "t.k", 0, builder
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
            results[i] = cache.get_or_build(T, "t.k", 0, builder, stats[i])

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
        from repro.engine import HopCache

        cache, builder = HopCache(), SlowBuilder()
        _, stats = self._race(cache, builder)
        # Identical totals to a serial sequence of the same lookups:
        # one miss + one build for the cold key, a hit for everyone else.
        assert sum(s.index_builds for s in stats) == 1
        assert sum(s.cache_misses for s in stats) == 1
        assert sum(s.cache_hits for s in stats) == self.N_THREADS - 1

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
                results[i] = cache.get_or_build(T, "t.k", 0, builder, stats[i])
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
        tables = [Table({"k": [1]}, name=f"t{i}") for i in range(4)]
        builders = [SlowBuilder(delay=0.01) for _ in range(4)]
        stats = [ExecutionStats() for _ in range(8)]
        barrier = threading.Barrier(8)

        def probe(i):
            barrier.wait()
            cache.get_or_build(tables[i % 4], "t.k", 0, builders[i % 4], stats[i])

        threads = [threading.Thread(target=probe, args=(i,)) for i in range(8)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert [b.calls for b in builders] == [1, 1, 1, 1]
        assert sum(s.index_builds for s in stats) == 4
        assert sum(s.cache_misses for s in stats) == 4
        assert sum(s.cache_hits for s in stats) == 4
        assert len(cache) == 4


class TestTableIdentity:
    """An entry is served only to a lookup for the table object it was
    built from; any other version of the table rebuilds it in place."""

    def test_new_table_object_misses_and_rebuilds_in_place(self):
        cache, stats, builder = HopCache(), ExecutionStats(), CountingBuilder()
        old = cache.get_or_build(T, "t.k", 0, builder, stats)
        newer = Table({"k": [1, 2]}, name="t")  # equal contents, new object
        fresh = cache.get_or_build(newer, "t.k", 0, builder, stats)
        assert fresh is not old
        assert cache.get_or_build(newer, "t.k", 0, builder, stats) is fresh
        assert builder.calls == 2
        assert (stats.cache_misses, stats.cache_hits) == (2, 1)
        assert len(cache) == 1

    def test_other_tables_stay_warm(self):
        cache, builder = HopCache(), CountingBuilder()
        kept = cache.get_or_build(U, "u.k", 0, builder)
        cache.get_or_build(T, "t.k", 0, builder)
        cache.get_or_build(T, "t.other", 1, builder)
        newer = Table({"k": [3]}, name="t")
        cache.get_or_build(newer, "t.k", 0, builder)
        cache.get_or_build(newer, "t.other", 1, builder)
        assert cache.get_or_build(U, "u.k", 0, builder) is kept
        assert builder.calls == 5
        assert len(cache) == 3

    def test_versions_of_one_table_keep_one_entry_per_key(self):
        cache, builder = HopCache(), CountingBuilder()
        for version in range(50):
            table = Table({"k": [version]}, name="t")
            cache.get_or_build(table, "t.k", 0, builder)
            cache.get_or_build(table, "t.k", 1, builder)
        assert len(cache) == 2
        assert builder.calls == 100

    def test_lifetime_counters_and_hit_rate(self):
        cache, builder = HopCache(), CountingBuilder()
        for _ in range(3):
            cache.get_or_build(T, "t.k", 0, builder)
        cache.get_or_build(Table({"k": [1, 2]}, name="t"), "t.k", 0, builder)
        counters = cache.counters()
        assert counters == ExecutionStats(
            index_builds=2, cache_hits=2, cache_misses=2
        )
        assert counters.cache_hit_rate == 0.5
        counters.cache_hits += 10  # a copy: the cache keeps its own count
        assert cache.counters().cache_hits == 2

    def test_concurrent_table_swaps_keep_counters_exact(self):
        import sys
        import threading

        cache = HopCache()
        builder = SlowBuilder(delay=0.002)
        versions = [Table({"k": [v]}, name="t") for v in range(2)]
        n_loops, n_threads = 25, 4
        barrier = threading.Barrier(n_threads)
        served = []

        def prober(i):
            barrier.wait()
            for loop in range(n_loops):
                table = versions[(i + loop) % 2]
                served.append((table, cache.get_or_build(table, "t.k", 0, builder)))

        threads = [
            threading.Thread(target=prober, args=(i,)) for i in range(n_threads)
        ]
        switch_interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)  # 4 probers on 2 cores
        try:
            for t in threads:
                t.start()
            for t in threads:
                t.join(30)
        finally:
            sys.setswitchinterval(switch_interval)
        assert not any(t.is_alive() for t in threads)
        counters = cache.counters()
        # Conservation laws that hold under any interleaving: every
        # lookup is a hit or a miss and every miss elects one builder.
        assert counters.cache_lookups == n_loops * n_threads
        assert counters.index_builds == counters.cache_misses == builder.calls
        assert len(cache) == 1
        # No lookup was ever answered with an index another version built.
        built_from = {}
        for table, index in served:
            assert built_from.setdefault(index, table) is table

    def test_old_table_builder_is_not_served_to_new_table_caller(self):
        import threading
        import time

        cache = HopCache()
        newer = Table({"k": [1, 2]}, name="t")
        release = threading.Event()
        entered = threading.Event()
        results = {}

        def parked_builder():
            entered.set()
            release.wait(2.0)
            return "stale"

        old_caller = threading.Thread(
            target=lambda: results.setdefault(
                "old", cache.get_or_build(T, "t.k", 0, parked_builder)
            )
        )
        old_caller.start()
        assert entered.wait(2.0)
        # A caller on the mutated table arrives while the old table's
        # builder is mid-build: it must get an index built from its own
        # table, never the one the old builder publishes.
        new_caller = threading.Thread(
            target=lambda: results.setdefault(
                "new", cache.get_or_build(newer, "t.k", 0, lambda: "fresh")
            )
        )
        new_caller.start()
        time.sleep(0.05)  # let the new caller reach the build latch
        release.set()
        old_caller.join(5)
        new_caller.join(5)
        assert not old_caller.is_alive() and not new_caller.is_alive()
        assert results == {"old": "stale", "new": "fresh"}
        assert cache.get_or_build(newer, "t.k", 0, lambda: "rebuilt") == "fresh"
        assert len(cache) == 1
