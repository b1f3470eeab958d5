"""Unit tests for column profiling."""

import hashlib
import sys
import threading
import tracemalloc

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import DiscoveryService
from repro.dataframe import Column, DType, Table
from repro.datasets import make_wide_lake
from repro.discovery import (
    ComaMatcher,
    IncrementalMatchIndex,
    LazoMatcher,
    profile_column,
    profile_table,
    profiles,
)
from repro.discovery.profiles import MINHASH_PERMUTATIONS, SKETCH_SIZE, ProfileCache
from repro.graph import DatasetRelationGraph
from tests.matchers import pair_matches
from tests.oracle.overlap import ValueOverlapMatcher


class TestProfileColumn:
    def test_basic_stats(self):
        profile = profile_column(Column([1, 2, 2, None]), "t", "c")
        assert profile.n_rows == 4
        assert profile.n_distinct == 2
        assert profile.null_ratio == 0.25

    def test_sketch_normalises_values(self):
        profile = profile_column(Column([1, 2]), "t", "c")
        assert profile.sketch == {"1", "2"}

    def test_float_ints_normalise_like_ints(self):
        a = profile_column(Column([1.0, 2.0]), "t", "a")
        b = profile_column(Column([1, 2]), "t", "b")
        assert a.sketch == b.sketch

    def test_strings_lowercased(self):
        profile = profile_column(Column(["Foo", " BAR "]), "t", "c")
        assert profile.sketch == {"foo", "bar"}

    def test_sketch_bounded(self):
        profile = profile_column(Column(list(range(10000))), "t", "c")
        assert len(profile.sketch) <= SKETCH_SIZE

    def test_numeric_range(self):
        profile = profile_column(Column([5.0, -2.0, 3.0]), "t", "c")
        assert profile.numeric_min == -2.0
        assert profile.numeric_max == 5.0

    def test_string_column_no_range(self):
        profile = profile_column(Column(["a"]), "t", "c")
        assert profile.numeric_min is None

    def test_minhash_shape(self):
        profile = profile_column(Column([1, 2, 3]), "t", "c")
        assert profile.minhash.shape == (MINHASH_PERMUTATIONS,)

    def test_minhash_deterministic_across_calls(self):
        a = profile_column(Column([1, 2, 3]), "t", "a")
        b = profile_column(Column([3, 2, 1]), "t", "b")
        assert np.array_equal(a.minhash, b.minhash)

    def test_uniqueness_key_like(self):
        profile = profile_column(Column(list(range(100))), "t", "c")
        assert profile.uniqueness == 1.0

    def test_uniqueness_all_null(self):
        profile = profile_column(Column([None, None]), "t", "c")
        assert profile.uniqueness == 0.0


class TestProfileTable:
    def test_profiles_all_columns(self):
        t = Table({"a": [1], "b": ["x"]}, name="demo")
        profiles = profile_table(t)
        assert profiles.table_name == "demo"
        assert [c.column_name for c in profiles.columns] == ["a", "b"]


class TestProfileCacheClass:
    def test_computes_once_per_live_table(self, monkeypatch):
        calls = []

        def counting(table):
            calls.append(table.name)
            return len(calls)

        monkeypatch.setattr(profiles, "profile_table", counting)
        cache = ProfileCache()
        a, b = Table({"x": [1]}, name="a"), Table({"x": [1]}, name="b")
        assert [cache.get(a), cache.get(b), cache.get(a), cache.get(b)] == [1, 2, 1, 2]
        assert calls == ["a", "b"]
        assert len(cache) == 2

    def test_default_factory_profiles_the_table(self):
        table = Table({"x": [1, 2]}, name="t")
        cache = ProfileCache()
        assert cache.get(table) is cache.get(table)
        assert cache.get(table).table_name == "t"

    def test_equal_tables_are_distinct_entries(self):
        cache = ProfileCache()
        a, b = Table({"x": [1]}, name="t"), Table({"x": [1]}, name="t")
        assert cache.get(a) is not cache.get(b)

    def test_does_not_keep_tables_alive(self):
        cache = ProfileCache()
        table = Table({"x": [1]}, name="t")
        cache.get(table)
        del table
        assert len(cache) == 0

    def test_outliving_tables_do_not_touch_a_dead_cache(self):
        table = Table({"x": [1]}, name="t")
        cache = ProfileCache()
        cache.get(table)
        del cache
        del table  # the eviction callback finds its cache gone


# -- lazy signature / vectorised distinct pass -------------------------------

_MERSENNE = (1 << 61) - 1


def _old_unique(column):
    """``Column.unique`` before the vectorised pass: a per-value set + sort."""
    present = column.non_null_values()
    if column.dtype is DType.STRING:
        return sorted({str(v) for v in present})
    return sorted({v.item() for v in present})


def _old_normalise(value):
    if isinstance(value, float) and value.is_integer():
        return str(int(value))
    return str(value).strip().lower()


def _eager_profile(column):
    """The eager recipe this module replaced, written out in full."""
    normalised = [_old_normalise(v) for v in _old_unique(column)]
    signature = np.full(MINHASH_PERMUTATIONS, np.iinfo(np.uint64).max, dtype=np.uint64)
    tokens = set(normalised)
    if tokens:
        rng = np.random.default_rng(0xDA7A)
        a = rng.integers(1, _MERSENNE, size=MINHASH_PERMUTATIONS, dtype=np.uint64)
        b = rng.integers(0, _MERSENNE, size=MINHASH_PERMUTATIONS, dtype=np.uint64)
        hashes = np.asarray(
            [
                int.from_bytes(
                    hashlib.blake2b(t.encode("utf-8"), digest_size=8).digest(), "little"
                )
                for t in tokens
            ],
            dtype=np.uint64,
        )
        signature = ((hashes[:, None] * a[None, :] + b[None, :]) % _MERSENNE).min(axis=0)
    numeric_min = numeric_max = None
    if column.dtype.is_numeric:
        present = column.non_null_values().astype(np.float64)
        if present.size:
            numeric_min, numeric_max = float(present.min()), float(present.max())
    return {
        "n_distinct": len(normalised),
        "null_ratio": column.null_ratio(),
        "sketch": frozenset(normalised[:SKETCH_SIZE]),
        "numeric_min": numeric_min,
        "numeric_max": numeric_max,
        "minhash": signature,
    }


_POOLS = {
    DType.INT: st.integers(-(2**63), 2**63 - 1),
    DType.FLOAT: st.floats(allow_nan=False) | st.integers(-50, 50).map(float),
    DType.BOOL: st.booleans(),
    DType.STRING: st.text(max_size=6) | st.sampled_from([" A", "a ", "a", "1", "1.0"]),
}


@st.composite
def _columns(draw, max_size=400):
    """A column of duplicates drawn from a small pool, with random nulls."""
    dtype = draw(st.sampled_from(list(_POOLS)))
    pool = draw(st.lists(_POOLS[dtype], min_size=1, max_size=300))
    values = draw(st.lists(st.sampled_from(pool) | st.none(), max_size=max_size))
    return Column(values, dtype=dtype)


class TestLazySignature:
    @staticmethod
    def _lake():
        def table(name, ids):
            return Table(
                {
                    "record_id": list(ids),
                    "label": [i % 2 for i in ids],
                    f"{name}_val": [float(i * 7 % 11) for i in ids],
                },
                name=name,
            )

        return [table("alpha", range(40)), table("beta", range(5, 45)), table("gamma", range(10, 50))]

    def test_default_path_never_builds_a_signature(self, monkeypatch):
        def boom(_):
            raise AssertionError("a lazy summary was built on the default path")

        # Neither Lazo's signature nor the distribution matcher's sketch.
        monkeypatch.setattr(profiles, "_minhash_signature", boom)
        monkeypatch.setattr(profiles.QuantileSketch, "of_column", staticmethod(boom))
        tables = self._lake()
        drg = DatasetRelationGraph.from_discovery(tables, ComaMatcher())
        assert drg.n_relationships > 0
        assert pair_matches(ValueOverlapMatcher(), tables[0], tables[1])
        index = IncrementalMatchIndex(tables)
        index.update_table(tables[1].take(np.arange(30)))
        cold = DatasetRelationGraph.from_discovery(index.tables, ComaMatcher())
        assert index.drg.edge_fingerprint() == cold.edge_fingerprint()
        with DiscoveryService(tables) as service:
            service.update_table(tables[2].take(np.arange(30)))
            response = service.discover("alpha", "label")
            assert response.result.ranked_paths

    @settings(max_examples=150, deadline=None)
    @given(_columns())
    def test_bit_identical_to_the_eager_recipe(self, column):
        profile = profile_column(column, "t", "c")
        expected = _eager_profile(column)
        assert profile.minhash.dtype == np.uint64
        assert np.array_equal(profile.minhash, expected.pop("minhash"))
        assert {name: getattr(profile, name) for name in expected} == expected

    @settings(max_examples=150, deadline=None)
    @given(_columns())
    def test_sketch_equals_the_generator_expression(self, column):
        old = frozenset(profiles._normalise(v) for v in column.unique()[:SKETCH_SIZE])
        assert profile_column(column, "t", "c").sketch == old

    def test_more_distinct_values_than_the_sketch_holds(self):
        column = Column(np.arange(3 * SKETCH_SIZE)[::-1] * 0.5)
        profile = profile_column(column, "t", "c")
        expected = _eager_profile(column)
        assert len(profile.sketch) == SKETCH_SIZE
        assert np.array_equal(profile.minhash, expected.pop("minhash"))
        assert {name: getattr(profile, name) for name in expected} == expected

    def test_concurrent_first_reads_agree_and_memoise(self):
        profile = profile_column(Column(np.arange(20_000)), "t", "c")
        barrier = threading.Barrier(2)
        seen = []

        def read():
            barrier.wait(timeout=10)
            seen.append(profile.minhash)

        threads = [threading.Thread(target=read) for _ in range(2)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
        assert not any(thread.is_alive() for thread in threads)
        assert len(seen) == 2 and np.array_equal(seen[0], seen[1])
        assert np.array_equal(seen[0], _eager_profile(profile.source)["minhash"])
        assert profile.minhash is profile.minhash

    def test_profiles_retain_sketches_not_values(self):
        rng = np.random.default_rng(0)
        n = 50_000
        table = Table(
            {
                "id": rng.permutation(n),
                "x": rng.normal(size=n),
                "s": [f"v{i}" for i in rng.permutation(n)],
            },
            name="big",
        )
        tracemalloc.start()
        try:
            before = tracemalloc.take_snapshot()
            profile = profile_table(table)
            after = tracemalloc.take_snapshot()
        finally:
            tracemalloc.stop()
        retained = sum(stat.size_diff for stat in after.compare_to(before, "filename"))
        # 3 sketches x 256 short strings; one Python object per distinct value
        # would be >= 3 x 50 000 x ~28 bytes = 4 MB.
        assert retained < 200_000
        assert all(c.source is table.column(c.column_name) for c in profile.columns)


class TestRacingSharedMatchers:
    """Two threads race the first read of a memoised value through one
    shared matcher, then build the DRG with it.  The memos have no lock of
    ours: computing twice is allowed, a different value — or a different
    DRG — is not."""

    @staticmethod
    def _race(first_reads, build):
        barrier = threading.Barrier(2)
        seen, errors = [], []

        def run():
            try:
                barrier.wait(timeout=10)
                values = first_reads()
                seen.append((values, build().edge_fingerprint()))
            except BaseException as exc:  # re-raised on the main thread
                errors.append(exc)

        threads = [threading.Thread(target=run) for _ in range(2)]
        switch_interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=120)
        finally:
            sys.setswitchinterval(switch_interval)
        assert not any(thread.is_alive() for thread in threads)
        if errors:
            raise errors[0]
        return seen

    def test_minhash_through_a_shared_lazo_matcher(self):
        tables = make_wide_lake(12, n_rows=200).tables
        matcher = LazoMatcher()
        columns = [c for t in tables for c in matcher._profiles.get(t).columns]
        assert not any("minhash" in vars(c) for c in columns)
        seen = self._race(
            lambda: [c.minhash for c in columns],
            lambda: DatasetRelationGraph.from_discovery(tables, matcher),
        )
        fresh = LazoMatcher()
        expected = [c.minhash for t in tables for c in fresh._profiles.get(t).columns]
        single = DatasetRelationGraph.from_discovery(tables, fresh).edge_fingerprint()
        assert single
        for values, fingerprint in seen:
            assert len(values) == len(expected)
            assert all(np.array_equal(a, b) for a, b in zip(values, expected))
            assert fingerprint == single

    def test_lake_pass_through_a_shared_coma_matcher(self):
        # COMA memoises no profile field; the race is on its name memos and
        # profile cache, which two concurrent lake passes share.
        tables = make_wide_lake(12, n_rows=200).tables
        matcher = ComaMatcher()
        seen = self._race(
            lambda: repr(matcher.match_lake(tables, 0.55).pairs),
            lambda: DatasetRelationGraph.from_discovery(tables, matcher),
        )
        fresh = ComaMatcher()
        expected = repr(fresh.match_lake(tables, 0.55).pairs)
        single = DatasetRelationGraph.from_discovery(tables, fresh).edge_fingerprint()
        assert single
        for values, fingerprint in seen:
            assert values == expected
            assert fingerprint == single
