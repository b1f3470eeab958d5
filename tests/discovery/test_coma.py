"""Unit tests for the COMA-style composite matcher."""

import gc
import weakref

import numpy as np
import pytest

import repro.discovery.profiles as profiles_module
from repro.dataframe import Table
from repro.discovery import (
    ComaMatcher,
    DistributionMatcher,
    LazoMatcher,
    profile_table,
)
from repro.discovery.coma import _NameScoreMemo
from repro.errors import DiscoveryError
from tests.oracle.overlap import ValueOverlapMatcher

ALL_MATCHERS = [
    ComaMatcher,
    ValueOverlapMatcher,
    LazoMatcher,
    DistributionMatcher,
]


@pytest.fixture
def tables():
    rng = np.random.default_rng(0)
    n = 200
    ids = np.arange(n)
    left = Table(
        {
            "applicant_id": ids,
            "income": rng.normal(50, 10, n),
            "region": rng.integers(0, 8, n),
        },
        name="applicants",
    )
    right = Table(
        {
            "applicant_id": ids,
            "credit_score": rng.normal(600, 40, n),
            # Partially overlapping category domain: a *spurious* but not
            # perfect match, the regime the lake generators produce.
            "region": rng.integers(4, 12, n),
        },
        name="credit",
    )
    return left, right


class TestMatching:
    def test_true_key_pair_scores_high(self, tables):
        matches = ComaMatcher().match(*tables)
        best = matches[0]
        assert (best.column_a, best.column_b) == ("applicant_id", "applicant_id")
        assert best.score > 0.8

    def test_spurious_category_pair_found_but_lower(self, tables):
        matches = {(m.column_a, m.column_b): m.score for m in ComaMatcher().match(*tables)}
        assert ("region", "region") in matches
        assert matches[("region", "region")] < matches[("applicant_id", "applicant_id")]

    def test_continuous_features_not_matched(self, tables):
        matches = ComaMatcher().match(*tables)
        columns = {m.column_a for m in matches} | {m.column_b for m in matches}
        assert "income" not in columns
        assert "credit_score" not in columns

    def test_key_like_gating_can_be_disabled(self, tables):
        matches = ComaMatcher(key_like_only=False, min_score=0.01).match(*tables)
        columns = {m.column_a for m in matches}
        assert "income" in columns

    def test_sorted_by_score(self, tables):
        scores = [m.score for m in ComaMatcher().match(*tables)]
        assert scores == sorted(scores, reverse=True)

    def test_min_score_floor(self, tables):
        matches = ComaMatcher(min_score=0.99).match(*tables)
        assert all(m.score >= 0.99 for m in matches)

    def test_renamed_key_still_found_via_tokens_and_values(self):
        n = 150
        ids = list(range(n))
        a = Table({"credit_ref": ids, "x": np.random.default_rng(0).normal(size=n)}, name="a")
        b = Table({"credit_key": ids, "y": np.random.default_rng(1).normal(size=n)}, name="b")
        matches = ComaMatcher().match(a, b)
        assert matches
        assert matches[0].column_a == "credit_ref"
        assert matches[0].column_b == "credit_key"
        assert matches[0].score >= 0.55

    def test_matcher_protocol_yields_tuples(self, tables):
        matcher = ComaMatcher()
        tuples = list(matcher(*tables))
        assert all(len(t) == 3 for t in tuples)

    def test_profile_cache_reused(self, tables):
        matcher = ComaMatcher()
        matcher.match(*tables)
        cached = len(matcher._profiles)
        matcher.match(*tables)
        assert len(matcher._profiles) == cached

    def test_invalid_weights_raise(self):
        with pytest.raises(DiscoveryError):
            ComaMatcher(name_weight=0.0, instance_weight=0.0)

    @pytest.mark.parametrize(
        "weights", [(-0.5, 1.5), (1.5, -0.5), (-1.0, 0.0), (float("nan"), 1.0)]
    )
    def test_negative_or_nan_weight_raises(self, weights):
        # (-0.5, 1.5) sums to 1 yet would score a pair 1.5, past any edge weight.
        with pytest.raises(DiscoveryError, match="weights"):
            ComaMatcher(*weights)

    @pytest.mark.parametrize("min_score", [-0.1, 1.5, float("nan")])
    @pytest.mark.parametrize("matcher_class", ALL_MATCHERS)
    def test_min_score_outside_the_score_range_raises(self, matcher_class, min_score):
        with pytest.raises(DiscoveryError, match="min_score"):
            matcher_class(min_score=min_score)


class TestProfileCache:
    """Every matcher's per-table cache is one ``ProfileCache``."""

    def test_same_object_profiled_once(self, tables, monkeypatch):
        calls = []
        real = profiles_module.profile_column

        def counting(column, table_name, column_name):
            calls.append((table_name, column_name))
            return real(column, table_name, column_name)

        monkeypatch.setattr(profiles_module, "profile_column", counting)
        matcher = ComaMatcher()
        matcher.match(*tables)
        matcher.match(*tables)
        assert sorted(calls) == sorted(
            (table.name, column) for table in tables for column in table.column_names
        )

    def test_entry_evicted_when_table_dies(self):
        matcher = ComaMatcher()
        table = Table({"key": list(range(50))}, name="ephemeral")
        matcher._profiles(table)
        assert len(matcher._profiles) == 1
        del table
        gc.collect()
        assert len(matcher._profiles) == 0

    def test_id_reuse_does_not_serve_stale_profile(self):
        # Simulate CPython reusing a dead table's id() for a new table:
        # plant table a's cache entry under table b's key.  The weakref
        # guard must notice the mismatch and re-profile instead of serving
        # a's profile for b.
        cache = ComaMatcher()._profiles
        a = Table({"alpha": list(range(40))}, name="a")
        b = Table({"beta": list(range(40, 80))}, name="b")
        cache(a)
        cache._entries[id(b)] = cache._entries.pop(id(a))
        profile = cache(b)
        assert profile.table_name == "b"
        assert [c.column_name for c in profile.columns] == ["beta"]

    def test_dead_ref_eviction_skips_reoccupied_slot(self):
        # If an entry was already replaced (same id, new live table), the
        # dying table's callback must not evict the newcomer's entry.
        cache = ComaMatcher()._profiles
        a = Table({"alpha": list(range(30))}, name="a")
        cache(a)
        key = id(a)
        stale_ref = cache._entries[key][0]
        b = Table({"beta": list(range(30))}, name="b")
        profile_b = profile_table(b)
        cache._entries[key] = (weakref.ref(b), profile_b)
        cache._evict(key, stale_ref)
        assert cache._entries[key][1] is profile_b

    @pytest.mark.parametrize("matcher_class", [LazoMatcher, DistributionMatcher])
    def test_recycled_address_is_reprofiled(self, matcher_class):
        # The real thing, no planting: a dies, b is allocated at a's
        # address.  A cache keyed on a bare id() answers for b with what it
        # remembered of a (LazoMatcher: the shared key, DistributionMatcher:
        # a's uniform quantile shape).
        matcher = matcher_class()
        other = Table({"k": list(range(50))}, name="other")
        for _ in range(50):
            a = Table({"k": list(range(50))}, name="a")
            assert matcher.match(a, other) == [("k", "k", 1.0)]
            stale = id(a)
            # Built before a dies so that the freed block goes to b itself.
            columns = {"k": [1000 + i**3 for i in range(50)]}
            del a
            b = Table(columns, name="b")
            if id(b) == stale:
                break
        else:
            pytest.skip("the allocator never handed the freed address back")
        assert matcher.match(b, other) == matcher_class().match(b, other)
        assert matcher.match(b, other) != [("k", "k", 1.0)]

    @pytest.mark.parametrize("matcher_class", ALL_MATCHERS)
    def test_matcher_dies_by_refcount(self, matcher_class, tables):
        # No reference cycle through the eviction callback: dropping the
        # last reference frees the matcher (profiles, memo and all) at
        # once, without waiting for a cyclic collection.
        gc.collect()
        gc.disable()
        try:
            matcher = matcher_class()
            matcher.match(*tables)
            alive = weakref.ref(matcher)
            del matcher
            assert alive() is None
        finally:
            gc.enable()


class TestNameScoreMemo:
    def test_ordered_pairs_are_separate_entries(self):
        memo = _NameScoreMemo()
        memo.score("credit_ref", "credit_key")
        assert ("credit_ref", "credit_key") in memo._scores
        assert ("credit_key", "credit_ref") not in memo._scores
        memo.score("credit_key", "credit_ref")
        assert len(memo) == 2

    def test_second_matcher_starts_empty(self, tables):
        first = ComaMatcher()
        first.match(*tables)
        assert len(first._name_scores) > 0
        assert len(ComaMatcher()._name_scores) == 0

    def test_never_exceeds_its_bound(self):
        memo = _NameScoreMemo(max_pairs=5)
        names = [f"column_{i}" for i in range(6)]
        for a in names:
            for b in names:
                memo.score(a, b)
                assert len(memo) <= 5
                assert len(memo._features) <= 10

    def test_bound_does_not_change_results(self, tables):
        default, tiny = ComaMatcher(), ComaMatcher()
        tiny._name_scores = _NameScoreMemo(max_pairs=1)
        for pair in (tables, tables[::-1], tables):
            assert tiny.match(*pair) == default.match(*pair)
        assert len(tiny._name_scores) == 1

    def test_invalid_bound_raises(self):
        with pytest.raises(DiscoveryError):
            _NameScoreMemo(max_pairs=0)


class TestScoreComposition:
    def test_name_and_instance_recorded(self, tables):
        match = ComaMatcher().match(*tables)[0]
        assert 0.0 <= match.name_score <= 1.0
        assert 0.0 <= match.instance_score <= 1.0

    def test_score_is_convex_combination(self, tables):
        matcher = ComaMatcher(name_weight=0.6, instance_weight=0.4)
        for match in matcher.match(*tables):
            expected = 0.6 * match.name_score + 0.4 * match.instance_score
            assert match.score == pytest.approx(expected, abs=1e-4)
