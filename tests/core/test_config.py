"""Unit tests for AutoFeatConfig validation and presets."""

import dataclasses

import pytest

from repro.core import AutoFeatConfig
from repro.errors import ConfigError


class TestValidation:
    def test_defaults_are_paper_values(self):
        config = AutoFeatConfig()
        assert config.tau == 0.65
        assert config.kappa == 15
        assert config.relevance_metric == "spearman"
        assert config.redundancy_method == "mrmr"
        assert config.traversal == "bfs"

    @pytest.mark.parametrize("tau", [-0.1, 1.1])
    def test_tau_out_of_range(self, tau):
        with pytest.raises(ConfigError):
            AutoFeatConfig(tau=tau)

    def test_tau_boundaries_ok(self):
        AutoFeatConfig(tau=0.0)
        AutoFeatConfig(tau=1.0)

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"kappa": 0},
            {"top_k": 0},
            {"max_path_length": 0},
            {"sample_size": 5},
            {"relevance_metric": "chi2"},
            {"redundancy_method": "lasso"},
            {"traversal": "random"},
        ],
    )
    def test_invalid_values_raise(self, kwargs):
        with pytest.raises(ConfigError):
            AutoFeatConfig(**kwargs)

    def test_relief_accepted_as_relevance(self):
        AutoFeatConfig(relevance_metric="relief")

    def test_none_turns_a_stage_off(self):
        assert AutoFeatConfig(relevance_metric=None).relevance_metric is None
        assert AutoFeatConfig(redundancy_method=None).redundancy_method is None
        both_off = AutoFeatConfig(relevance_metric=None, redundancy_method=None)
        assert both_off != AutoFeatConfig()

    def test_threads_is_not_a_backend(self):
        """Where the fits run is a rule, not a field (DESIGN.md §11)."""
        with pytest.raises(TypeError):
            AutoFeatConfig(parallel_backend="threads")

    def test_chunk_rows_is_not_a_field(self):
        with pytest.raises(TypeError):
            AutoFeatConfig(chunk_rows=1)

    def test_hop_latency_seconds_is_not_a_field(self):
        """A sleeping ``hop_hook`` is the one spelling of hop latency."""
        with pytest.raises(TypeError):
            AutoFeatConfig(hop_latency_seconds=0.0)
        assert len(dataclasses.fields(AutoFeatConfig)) == 14

    @pytest.mark.parametrize(
        "knob", ["max_retries", "hop_timeout_seconds", "max_hop_output_rows"]
    )
    def test_per_hop_guards_are_not_fields(self, knob):
        """A hop is a deterministic in-memory join: nothing to retry, and a
        left join through a deduplicated index keeps the probe side's rows."""
        with pytest.raises(TypeError):
            AutoFeatConfig(**{knob: 1})

    def test_retry_is_not_a_policy(self):
        """Nor is anything else: every run skips and records its failures."""
        with pytest.raises(TypeError):
            AutoFeatConfig(failure_policy="retry")

    def test_error_budget_is_not_a_field(self):
        """The budget is the constant ``repro.engine.faults.ERROR_BUDGET``."""
        with pytest.raises(TypeError):
            AutoFeatConfig(error_budget=0)

    def test_frontier_exploration_is_not_a_field(self):
        """The UCB1 constant is ``navigation.DEFAULT_FRONTIER_EXPLORATION``."""
        with pytest.raises(TypeError):
            AutoFeatConfig(frontier_exploration=0.5)

    def test_max_workers_is_not_a_field(self):
        """``processes`` sizes its pool from the CPU-affinity mask."""
        with pytest.raises(TypeError):
            AutoFeatConfig(max_workers=2)

    def test_use_relevance_is_not_a_field(self):
        """``relevance_metric=None`` turns the relevance stage off."""
        with pytest.raises(TypeError):
            AutoFeatConfig(use_relevance=False)

    def test_use_redundancy_is_not_a_field(self):
        """``redundancy_method=None`` turns the redundancy stage off."""
        with pytest.raises(TypeError):
            AutoFeatConfig(use_redundancy=False)

    @pytest.mark.parametrize(
        "knob", ["enable_sketch_index", "sketch_bands", "sketch_rows_per_band"]
    )
    def test_sketch_knobs_are_not_fields(self, knob):
        """Schema matching has one exact path; there is no sketch index
        to switch on or tune."""
        with pytest.raises(TypeError):
            AutoFeatConfig(**{knob: 1})


class TestOverridesAndAblations:
    def test_with_overrides(self):
        config = AutoFeatConfig().with_overrides(tau=0.8, kappa=5)
        assert config.tau == 0.8
        assert config.kappa == 5

    def test_with_overrides_validates(self):
        with pytest.raises(ConfigError):
            AutoFeatConfig().with_overrides(tau=2.0)

    def test_original_unchanged(self):
        config = AutoFeatConfig()
        config.with_overrides(tau=0.9)
        assert config.tau == 0.65

    def test_ablation_spearman_mrmr_is_default(self):
        assert AutoFeatConfig.ablation("spearman-mrmr") == AutoFeatConfig()

    def test_ablation_jmi(self):
        assert AutoFeatConfig.ablation("spearman-jmi").redundancy_method == "jmi"

    def test_ablation_pearson(self):
        assert AutoFeatConfig.ablation("pearson-mrmr").relevance_metric == "pearson"

    def test_ablation_single_stage(self):
        spearman_only = AutoFeatConfig.ablation("spearman-only")
        assert spearman_only.redundancy_method is None
        assert spearman_only.relevance_metric == "spearman"
        mrmr_only = AutoFeatConfig.ablation("mrmr-only")
        assert mrmr_only.relevance_metric is None
        assert mrmr_only.redundancy_method == "mrmr"

    def test_ablation_extra_kwargs(self):
        assert AutoFeatConfig.ablation("spearman-jmi", seed=9).seed == 9

    def test_unknown_ablation_raises(self):
        with pytest.raises(ConfigError):
            AutoFeatConfig.ablation("neural")
