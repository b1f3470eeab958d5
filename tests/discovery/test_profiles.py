"""Unit tests for column profiling."""

import numpy as np

from repro.dataframe import Column, Table
from repro.discovery import profile_column, profile_table
from repro.discovery.profiles import MINHASH_PERMUTATIONS, SKETCH_SIZE, ProfileCache


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

    def test_column_lookup(self):
        t = Table({"a": [1]}, name="demo")
        assert profile_table(t).column("a").column_name == "a"


class TestProfileCacheClass:
    def test_computes_once_per_live_table(self):
        calls = []
        cache = ProfileCache(lambda table: calls.append(table.name) or len(calls))
        a, b = Table({"x": [1]}, name="a"), Table({"x": [1]}, name="b")
        assert [cache(a), cache(b), cache(a), cache(b)] == [1, 2, 1, 2]
        assert calls == ["a", "b"]
        assert len(cache) == 2

    def test_default_factory_profiles_the_table(self):
        table = Table({"x": [1, 2]}, name="t")
        cache = ProfileCache()
        assert cache(table) is cache(table)
        assert cache(table).table_name == "t"

    def test_equal_tables_are_distinct_entries(self):
        cache = ProfileCache()
        a, b = Table({"x": [1]}, name="t"), Table({"x": [1]}, name="t")
        assert cache(a) is not cache(b)

    def test_does_not_keep_tables_alive(self):
        cache = ProfileCache()
        table = Table({"x": [1]}, name="t")
        cache(table)
        del table
        assert len(cache) == 0

    def test_outliving_tables_do_not_touch_a_dead_cache(self):
        table = Table({"x": [1]}, name="t")
        cache = ProfileCache()
        cache(table)
        del cache
        del table  # the eviction callback finds its cache gone
