"""Spec loading, validation, trial expansion and fingerprint semantics."""

import json

import pytest

from repro.exp import (
    ConfigVariant,
    ExperimentSpec,
    RegressionPolicy,
    SpecError,
    TrialSpec,
    validate_spec,
)

from .conftest import spec_dict


class TestValidateSpec:
    def test_valid_spec_has_no_errors(self):
        assert validate_spec(spec_dict()) == []

    def test_structural_errors_short_circuit(self):
        errors = validate_spec({"name": "x"})
        assert errors
        assert all(e.startswith("spec") for e in errors)

    def test_unknown_dataset(self):
        errors = validate_spec(spec_dict(datasets=["credit", "nope"]))
        assert any("unknown dataset 'nope'" in e for e in errors)

    def test_unknown_setting(self):
        errors = validate_spec(spec_dict(setting="prod"))
        assert any("spec.setting" in e for e in errors)

    def test_unknown_method_and_model(self):
        errors = validate_spec(spec_dict(methods=["Magic"], models=["gpt"]))
        assert any("unknown method 'Magic'" in e for e in errors)
        assert any("unknown model 'gpt'" in e for e in errors)

    def test_empty_axes(self):
        errors = validate_spec(spec_dict(datasets=[], configs=[], seeds=[]))
        assert any("at least one dataset" in e for e in errors)
        assert any("at least one config" in e for e in errors)
        assert any("at least one seed" in e for e in errors)

    def test_unknown_failure_policy(self):
        errors = validate_spec(spec_dict(failure_policy="yolo"))
        assert any("failure_policy" in e for e in errors)

    def test_duplicate_config_names(self):
        configs = [{"name": "a"}, {"name": "a"}]
        errors = validate_spec(spec_dict(configs=configs))
        assert any("duplicate config name 'a'" in e for e in errors)

    def test_seed_rejected_in_overrides(self):
        configs = [{"name": "a", "overrides": {"seed": 3}}]
        errors = validate_spec(spec_dict(configs=configs))
        assert any("seeds axis" in e for e in errors)

    def test_unknown_config_field(self):
        configs = [{"name": "a", "overrides": {"warp_factor": 9}}]
        errors = validate_spec(spec_dict(configs=configs))
        assert any("unknown AutoFeatConfig field" in e for e in errors)

    def test_stale_spec_naming_a_removed_field(self):
        configs = [{"name": "a", "overrides": {"chunk_rows": 256}}]
        errors = validate_spec(spec_dict(configs=configs))
        assert any("unknown AutoFeatConfig field" in e for e in errors)

    def test_from_dict_raises_with_every_error(self):
        data = spec_dict(datasets=["nope"], failure_policy="yolo")
        with pytest.raises(SpecError) as exc:
            ExperimentSpec.from_dict(data)
        assert "nope" in str(exc.value)
        assert "yolo" in str(exc.value)


class TestTrialExpansion:
    def test_matrix_size_and_order(self):
        spec = ExperimentSpec.from_dict(
            spec_dict(
                datasets=["credit", "steel"],
                configs=[{"name": "a"}, {"name": "b"}],
                seeds=[1, 2],
            )
        )
        trials = spec.trials()
        assert len(trials) == spec.n_trials == 8
        # dataset -> config -> method -> model -> seed expansion order.
        assert [(t.dataset, t.config_name, t.seed) for t in trials[:4]] == [
            ("credit", "a", 1),
            ("credit", "a", 2),
            ("credit", "b", 1),
            ("credit", "b", 2),
        ]
        assert all(t.dataset == "steel" for t in trials[4:])

    def test_defaults(self):
        spec = ExperimentSpec.from_dict(
            {
                "name": "d",
                "datasets": ["credit"],
                "configs": [{"name": "a"}],
                "seeds": [1],
            }
        )
        assert spec.setting == "benchmark"
        assert spec.models == ("lightgbm",)
        assert spec.methods == ("AutoFeat",)
        assert spec.failure_policy == "skip_and_record"
        assert spec.regression == RegressionPolicy()

    def test_label_is_human_readable(self, unit_spec):
        trial = unit_spec.trials()[0]
        assert trial.label == "credit/benchmark/AutoFeat/knn/default/seed1"


class TestFingerprints:
    def trial(self, **overrides) -> TrialSpec:
        base = dict(
            experiment="unit",
            dataset="credit",
            setting="benchmark",
            method="AutoFeat",
            model="knn",
            config_name="default",
            overrides={"top_k": 2},
            seed=1,
        )
        base.update(overrides)
        return TrialSpec(**base)

    def test_stable_across_runs(self):
        assert self.trial().fingerprint == self.trial().fingerprint

    def test_excludes_experiment_name_and_config_label(self):
        renamed = self.trial(experiment="other", config_name="renamed")
        assert renamed.fingerprint == self.trial().fingerprint

    def test_sensitive_to_content(self):
        base = self.trial().fingerprint
        assert self.trial(seed=2).fingerprint != base
        assert self.trial(overrides={"top_k": 3}).fingerprint != base
        assert self.trial(dataset="steel").fingerprint != base
        assert self.trial(setting="datalake").fingerprint != base

    def test_config_hash_is_overrides_only(self):
        assert (
            self.trial(seed=9).config_hash == self.trial(seed=1).config_hash
        )
        assert ConfigVariant("x", {"top_k": 2}).config_hash == self.trial().config_hash

    def test_round_trips_through_dict(self):
        trial = self.trial()
        again = TrialSpec.from_dict(trial.as_dict())
        assert again == trial
        assert again.fingerprint == trial.fingerprint


class TestBuildConfig:
    def test_overrides_and_seed_applied(self, unit_spec):
        trial = unit_spec.trials()[1]
        config = trial.build_config()
        assert config.sample_size == 300
        assert config.top_k == 2
        assert config.seed == 2

    def test_takes_no_extras(self, unit_spec):
        # Execution-environment perturbations travel as a hop hook
        # (``run_experiment(inject_hop_latency=)``), never as config.
        with pytest.raises(TypeError):
            unit_spec.trials()[0].build_config(sample_size=50)


class TestFromFile:
    def test_json_file(self, tmp_path):
        path = tmp_path / "exp.json"
        path.write_text(json.dumps(spec_dict()))
        spec = ExperimentSpec.from_file(path)
        assert spec.name == "unit"
        assert spec.n_trials == 2

    def test_toml_file_matches_json(self, tmp_path):
        toml = tmp_path / "exp.toml"
        toml.write_text(
            "\n".join(
                [
                    'name = "unit"',
                    'datasets = ["credit"]',
                    'models = ["knn"]',
                    'methods = ["AutoFeat"]',
                    "seeds = [1, 2]",
                    "timeout_seconds = 120",
                    'failure_policy = "skip_and_record"',
                    "workers = 0",
                    "[[configs]]",
                    'name = "default"',
                    "[configs.overrides]",
                    "sample_size = 300",
                    "top_k = 2",
                ]
            )
        )
        json_path = tmp_path / "exp.json"
        json_path.write_text(json.dumps(spec_dict()))
        assert ExperimentSpec.from_file(toml) == ExperimentSpec.from_file(json_path)

    def test_bad_json_raises_spec_error(self, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text("{not json")
        with pytest.raises(SpecError, match="not valid JSON"):
            ExperimentSpec.from_file(path)

    def test_non_object_rejected(self, tmp_path):
        path = tmp_path / "list.json"
        path.write_text("[1, 2]")
        with pytest.raises(SpecError, match="must be a JSON/TOML object"):
            ExperimentSpec.from_file(path)

    def test_missing_file(self, tmp_path):
        with pytest.raises(SpecError, match="cannot read spec file"):
            ExperimentSpec.from_file(tmp_path / "absent.json")

    def test_checked_in_smoke_spec_loads(self):
        from repro.exp.store import DEFAULT_STORE_ROOT

        repo = DEFAULT_STORE_ROOT.parents[2]
        spec = ExperimentSpec.from_file(repo / "experiments" / "smoke.json")
        assert spec.name == "smoke"
        assert spec.n_trials == 8
