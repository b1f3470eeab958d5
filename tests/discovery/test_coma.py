"""Unit tests for the COMA-style composite matcher."""

import gc
import weakref

import numpy as np
import pytest

import repro.discovery.profiles as profiles_module
from repro.dataframe import Table
from repro.discovery import (
    ColumnMatch,
    ComaMatcher,
    DistributionMatcher,
    LazoMatcher,
    profile_table,
)
from repro.discovery.coma import _NameScoreMemo
from repro.errors import DiscoveryError
from tests.matchers import pair_matches
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
        matches = pair_matches(ComaMatcher(), *tables)
        best = matches[0]
        assert (best.column_a, best.column_b) == ("applicant_id", "applicant_id")
        assert best.score > 0.8

    def test_spurious_category_pair_found_but_lower(self, tables):
        matches = {
            (m.column_a, m.column_b): m.score
            for m in pair_matches(ComaMatcher(), *tables)
        }
        assert ("region", "region") in matches
        assert matches[("region", "region")] < matches[("applicant_id", "applicant_id")]

    def test_continuous_features_not_matched(self, tables):
        matches = pair_matches(ComaMatcher(), *tables)
        columns = {m.column_a for m in matches} | {m.column_b for m in matches}
        assert "income" not in columns
        assert "credit_score" not in columns

    def test_key_like_gating_can_be_disabled(self, tables):
        matcher = ComaMatcher(key_like_only=False, min_score=0.01)
        matches = pair_matches(matcher, *tables)
        columns = {m.column_a for m in matches}
        assert "income" in columns

    def test_sorted_by_score(self, tables):
        scores = [m.score for m in pair_matches(ComaMatcher(), *tables)]
        assert scores == sorted(scores, reverse=True)

    def test_min_score_floor(self, tables):
        matches = pair_matches(ComaMatcher(min_score=0.99), *tables)
        assert all(m.score >= 0.99 for m in matches)

    def test_renamed_key_still_found_via_tokens_and_values(self):
        n = 150
        ids = list(range(n))
        a = Table({"credit_ref": ids, "x": np.random.default_rng(0).normal(size=n)}, name="a")
        b = Table({"credit_key": ids, "y": np.random.default_rng(1).normal(size=n)}, name="b")
        matches = pair_matches(ComaMatcher(), a, b)
        assert matches
        assert matches[0].column_a == "credit_ref"
        assert matches[0].column_b == "credit_key"
        assert matches[0].score >= 0.55

    @pytest.mark.parametrize("matcher_class", ALL_MATCHERS)
    def test_lake_pass_emits_column_matches(self, matcher_class, tables):
        # One shape from every matcher: the DRG builders read column_a,
        # column_b and score and nothing else.
        matches = pair_matches(matcher_class(min_score=0.0), *tables)
        assert matches and all(isinstance(m, ColumnMatch) for m in matches)
        assert {(m.table_a, m.table_b) for m in matches} == {("applicants", "credit")}

    def test_profile_cache_reused(self, tables):
        matcher = ComaMatcher()
        pair_matches(matcher, *tables)
        cached = len(matcher._profiles)
        pair_matches(matcher, *tables)
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
        pair_matches(matcher, *tables)
        pair_matches(matcher, *tables)
        assert sorted(calls) == sorted(
            (table.name, column) for table in tables for column in table.column_names
        )

    def test_entry_evicted_when_table_dies(self):
        matcher = ComaMatcher()
        table = Table({"key": list(range(50))}, name="ephemeral")
        matcher._profiles.get(table)
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
        cache.get(a)
        cache._entries[id(b)] = cache._entries.pop(id(a))
        profile = cache.get(b)
        assert profile.table_name == "b"
        assert [c.column_name for c in profile.columns] == ["beta"]

    def test_dead_ref_eviction_skips_reoccupied_slot(self):
        # If an entry was already replaced (same id, new live table), the
        # dying table's callback must not evict the newcomer's entry.
        cache = ComaMatcher()._profiles
        a = Table({"alpha": list(range(30))}, name="a")
        cache.get(a)
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
            assert pair_matches(matcher, a, other) == [
                ColumnMatch("a", "k", "other", "k", 1.0)
            ]
            stale = id(a)
            # Built before a dies so that the freed block goes to b itself.
            columns = {"k": [1000 + i**3 for i in range(50)]}
            del a
            b = Table(columns, name="b")
            if id(b) == stale:
                break
        else:
            pytest.skip("the allocator never handed the freed address back")
        got = pair_matches(matcher, b, other)
        assert got == pair_matches(matcher_class(), b, other)
        assert got != [
            ColumnMatch("b", "k", "other", "k", 1.0)
        ]

    @pytest.mark.parametrize("matcher_class", ALL_MATCHERS)
    def test_matcher_dies_by_refcount(self, matcher_class, tables):
        # No reference cycle through the eviction callback: dropping the
        # last reference frees the matcher (profiles, memo and all) at
        # once, without waiting for a cyclic collection.
        gc.collect()
        gc.disable()
        try:
            matcher = matcher_class()
            pair_matches(matcher, *tables)
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
        pair_matches(first, *tables)
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
            assert pair_matches(tiny, *pair) == pair_matches(default, *pair)
        assert len(tiny._name_scores) == 1

    def test_invalid_bound_raises(self):
        with pytest.raises(DiscoveryError):
            _NameScoreMemo(max_pairs=0)


class TestScoreComposition:
    def test_name_and_instance_recorded(self, tables):
        match = pair_matches(ComaMatcher(), *tables)[0]
        assert 0.0 <= match.name_score <= 1.0
        assert 0.0 <= match.instance_score <= 1.0

    def test_score_is_convex_combination(self, tables):
        matcher = ComaMatcher(name_weight=0.6, instance_weight=0.4)
        for match in pair_matches(matcher, *tables):
            expected = 0.6 * match.name_score + 0.4 * match.instance_score
            assert match.score == pytest.approx(expected, abs=1e-4)
