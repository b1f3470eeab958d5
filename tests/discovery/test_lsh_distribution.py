"""Unit tests for the Lazo-style LSH matcher and the distribution matcher."""

import importlib.util
import types

import numpy as np
import pytest

import repro.discovery
from repro.dataframe import Column, Table
from repro.discovery import (
    DistributionMatcher,
    LazoMatcher,
    QuantileSketch,
    estimate_containment,
    quantile_similarity,
)
from repro.discovery.lsh import validate_banding
from repro.discovery.profiles import MINHASH_PERMUTATIONS
from repro.errors import DiscoveryError
from repro.graph import DatasetRelationGraph
from tests.matchers import pair_matches


@pytest.fixture(scope="module")
def tables():
    rng = np.random.default_rng(0)
    n = 400
    ids = np.arange(n)
    left = Table(
        {"user_id": ids, "score": rng.normal(50, 10, n)}, name="left"
    )
    right = Table(
        {"uid": ids, "other": rng.integers(10_000, 20_000, n)}, name="right"
    )
    return left, right


class TestEstimateContainment:
    def test_identical_sets(self):
        assert estimate_containment(1.0, 100, 100) == 1.0

    def test_zero_jaccard(self):
        assert estimate_containment(0.0, 100, 100) == 0.0

    def test_negative_jaccard_treated_as_disjoint(self):
        assert estimate_containment(-0.2, 100, 100) == 0.0

    def test_small_in_large(self):
        # |A|=10 fully inside |B|=1000: J = 10/1000 = 0.01.
        assert estimate_containment(0.01, 10, 1000) == pytest.approx(1.0, abs=0.05)

    def test_asymmetric_cardinalities_symmetric_result(self):
        # Containment is of the *smaller* side: argument order is moot.
        assert estimate_containment(0.05, 20, 500) == estimate_containment(
            0.05, 500, 20
        )

    def test_clipped_at_one(self):
        assert estimate_containment(0.9, 50, 50) <= 1.0
        # Overestimated Jaccard would push containment past 1 unclipped:
        # J=1 gives intersection (|A|+|B|)/2 = 55 > min = 10.
        assert estimate_containment(1.0, 10, 100) == 1.0

    def test_empty_sets(self):
        assert estimate_containment(0.5, 0, 10) == 0.0
        assert estimate_containment(0.5, 10, 0) == 0.0
        assert estimate_containment(0.5, 0, 0) == 0.0

    def test_monotone_in_jaccard(self):
        scores = [
            estimate_containment(j / 10.0, 80, 120) for j in range(11)
        ]
        assert scores == sorted(scores)
        assert all(0.0 <= s <= 1.0 for s in scores)


class TestMinhashContainmentRecall:
    def test_estimate_tracks_exact_containment(self):
        """Statistical gate: over seeded random value-set pairs, the
        MinHash-estimated containment stays close to the exact one."""
        from repro.discovery.profiles import _minhash_signature

        rng = np.random.default_rng(0xC0FFEE)
        errors = []
        for _ in range(30):
            n_a = int(rng.integers(30, 400))
            n_b = int(rng.integers(30, 400))
            overlap = int(rng.integers(0, min(n_a, n_b) + 1))
            shared = {f"s{i}" for i in range(overlap)}
            set_a = shared | {f"a{i}" for i in range(n_a - overlap)}
            set_b = shared | {f"b{i}" for i in range(n_b - overlap)}
            sig_a = _minhash_signature(set_a)
            sig_b = _minhash_signature(set_b)
            est_jaccard = float(np.mean(sig_a == sig_b))
            estimated = estimate_containment(est_jaccard, len(set_a), len(set_b))
            exact = overlap / min(n_a, n_b)
            errors.append(abs(estimated - exact))
        # 64 permutations are noisy per pair but unbiased in aggregate:
        # the aggregate bound is the real gate, the per-pair one just
        # catches gross estimator breakage.
        assert max(errors) < 0.45
        assert float(np.mean(errors)) < 0.10


class TestValidateBanding:
    def test_full_signature_layout_ok(self):
        validate_banding(16, 4)
        validate_banding(1, MINHASH_PERMUTATIONS)
        validate_banding(MINHASH_PERMUTATIONS, 1)

    def test_oversized_layout_raises(self):
        with pytest.raises(DiscoveryError):
            validate_banding(13, 5)  # 65 > 64
        with pytest.raises(DiscoveryError):
            validate_banding(1000, 1000)

    def test_degenerate_layouts_raise(self):
        for bands, rows in ((0, 4), (4, 0), (-1, 4), (4, -1), (0, 0)):
            with pytest.raises(DiscoveryError):
                validate_banding(bands, rows)


def test_discovery_surface_is_exact_matchers_only():
    # Banding is LazoMatcher's own scoring recipe: the package has no
    # blocking index, no candidate wrapper and no recall report.
    public = {
        name
        for name, value in vars(repro.discovery).items()
        if not name.startswith("_") and not isinstance(value, types.ModuleType)
    }
    assert public == set(repro.discovery.__all__) == {
        "ColumnMatch", "ColumnProfile", "ComaMatcher", "DistributionMatcher",
        "IncrementalMatchIndex", "LazoMatcher", "MatchCounters",
        "MutationReport", "QuantileSketch", "TableProfile",
        "estimate_containment", "instance_similarity",
        "numeric_range_overlap", "profile_column",
        "profile_table", "quantile_similarity",
        "token_similarity", "tokenize_identifier",
        "validate_banding",
    }
    assert importlib.util.find_spec("repro.discovery.index") is None


class TestLazoMatcher:
    def test_finds_shared_key(self, tables):
        matches = pair_matches(LazoMatcher(), *tables)
        assert matches
        assert (matches[0].column_a, matches[0].column_b) == ("user_id", "uid")
        assert matches[0].score > 0.9

    def test_disjoint_columns_not_matched(self, tables):
        left, right = tables
        matches = pair_matches(LazoMatcher(), left, right)
        matched_pairs = {(m.column_a, m.column_b) for m in matches}
        assert ("score", "other") not in matched_pairs

    def test_candidates_subquadratic_bucketing(self, tables):
        left, right = tables
        matcher = LazoMatcher(min_score=0.0)
        # At min_score 0 every candidate is emitted, so the pass's rows are
        # its candidates: only colliding signatures, not all 4 pairs.
        pairs = pair_matches(matcher, left, right)
        assert 0 < len(pairs) < left.n_cols * right.n_cols

    def test_invalid_banding_raises(self):
        with pytest.raises(DiscoveryError):
            LazoMatcher(bands=1000, rows_per_band=1000)
        with pytest.raises(DiscoveryError):
            LazoMatcher(bands=0)

    def test_banding_boundary_layouts(self, tables):
        # Exactly-full layouts are legal and usable end to end.
        for bands, rows in (
            (16, 4),
            (1, MINHASH_PERMUTATIONS),
            (MINHASH_PERMUTATIONS, 1),
            (2, 32),
        ):
            assert bands * rows == MINHASH_PERMUTATIONS
            matcher = LazoMatcher(bands=bands, rows_per_band=rows)
            assert pair_matches(matcher, *tables)
        # One permutation over the signature length fails eagerly, at
        # construction — not deep inside signature slicing.
        with pytest.raises(DiscoveryError):
            LazoMatcher(bands=13, rows_per_band=5)  # 65 > 64
        with pytest.raises(DiscoveryError):
            LazoMatcher(bands=MINHASH_PERMUTATIONS + 1, rows_per_band=1)

    def test_degenerate_banding_raises(self):
        for bands, rows in ((0, 4), (4, 0), (-1, 4), (4, -1)):
            with pytest.raises(DiscoveryError):
                LazoMatcher(bands=bands, rows_per_band=rows)

    def test_usable_as_drg_matcher(self, tables):
        drg = DatasetRelationGraph.from_discovery(
            list(tables), LazoMatcher(), threshold=0.55
        )
        assert drg.n_relationships >= 1

    def test_deterministic(self, tables):
        first, second = LazoMatcher(), LazoMatcher()
        assert pair_matches(first, *tables) == pair_matches(second, *tables)


class TestQuantileSketch:
    def test_similar_shapes_score_high(self):
        rng = np.random.default_rng(1)
        a = QuantileSketch(rng.normal(0, 1, 2000))
        b = QuantileSketch(rng.normal(100, 50, 2000))  # same shape, shifted
        assert quantile_similarity(a, b) > 0.9

    def test_different_shapes_score_lower(self):
        rng = np.random.default_rng(2)
        gaussian = QuantileSketch(rng.normal(0, 1, 2000))
        skewed = QuantileSketch(rng.exponential(1.0, 2000) ** 2)
        uniform_vs_gauss = quantile_similarity(gaussian, skewed)
        gauss_vs_gauss = quantile_similarity(
            gaussian, QuantileSketch(rng.normal(5, 2, 2000))
        )
        assert gauss_vs_gauss > uniform_vs_gauss

    def test_empty_column_scores_zero(self):
        empty = QuantileSketch(np.array([np.nan, np.nan]))
        other = QuantileSketch(np.arange(10, dtype=float))
        assert quantile_similarity(empty, other) == 0.0

    def test_of_column_rejects_strings(self):
        with pytest.raises(DiscoveryError):
            QuantileSketch.of_column(Column(["a", "b"]))


class TestDistributionMatcher:
    def test_renamed_scaled_copy_found(self):
        rng = np.random.default_rng(3)
        n = 500
        values = rng.normal(50, 10, n)
        a = Table({"height_cm": values}, name="a")
        b = Table({"height_mm": values * 10}, name="b")  # unit-scaled copy
        matches = pair_matches(DistributionMatcher(), a, b)
        assert matches
        assert (matches[0].column_a, matches[0].column_b) == ("height_cm", "height_mm")

    def test_string_columns_ignored(self):
        a = Table({"s": ["x", "y"]}, name="a")
        b = Table({"t": ["x", "y"]}, name="b")
        assert pair_matches(DistributionMatcher(), a, b) == []

    def test_score_bounded(self, tables):
        matcher = DistributionMatcher(min_score=0.0)
        for match in pair_matches(matcher, *tables):
            assert 0.0 <= match.score <= 1.0

    def test_usable_as_drg_matcher(self, tables):
        drg = DatasetRelationGraph.from_discovery(
            list(tables), DistributionMatcher(), threshold=0.55
        )
        # Weak evidence: may or may not clear 0.55, but must not crash.
        assert drg.n_tables == 2
