"""Declarative experiment specs: datasets × configs × seeds trial matrices.

An :class:`ExperimentSpec` is loaded from a JSON or TOML file, validated
against :data:`SPEC_SCHEMA` (the same mini JSON-schema validator the run
manifests use) plus semantic checks (known datasets, methods, settings
and ``AutoFeatConfig`` overrides), and expanded into a deterministic list
of :class:`TrialSpec` entries.

Every trial carries a **fingerprint** — a SHA-256 digest of exactly the
inputs that determine its result (dataset, setting, method, model,
config overrides, seed).  The fingerprint is what makes sweeps resumable
(:mod:`repro.exp.runner` skips trials whose fingerprint is already
complete in the store) and what lets the regression detector line up the
same trial across runs and git revisions.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, field
from pathlib import Path

from ..core import AutoFeatConfig
from ..engine.faults import DEFAULT_ERROR_BUDGET, DEFAULT_MAX_RETRIES, FAILURE_POLICIES
from ..errors import ConfigError
from ..obs.schema import validate
from .errors import SpecError

__all__ = [
    "SPEC_SCHEMA",
    "SETTINGS",
    "ConfigVariant",
    "RegressionPolicy",
    "TrialSpec",
    "ExperimentSpec",
    "validate_spec",
]

SETTINGS = ("benchmark", "datalake")

#: Structural schema of a spec file (semantic checks are separate).
SPEC_SCHEMA = {
    "type": "object",
    "required": ["name", "datasets", "configs", "seeds"],
    "properties": {
        "name": {"type": "string"},
        "description": {"type": "string"},
        "datasets": {"type": "array", "items": {"type": "string"}},
        "setting": {"type": "string"},
        "models": {"type": "array", "items": {"type": "string"}},
        "methods": {"type": "array", "items": {"type": "string"}},
        "configs": {
            "type": "array",
            "items": {
                "type": "object",
                "required": ["name"],
                "properties": {
                    "name": {"type": "string"},
                    "overrides": {"type": "object"},
                },
            },
        },
        "seeds": {"type": "array", "items": {"type": "integer"}},
        "timeout_seconds": {"type": "number", "minimum": 0},
        "failure_policy": {"type": "string"},
        "error_budget": {"type": "integer", "minimum": 0},
        "max_retries": {"type": "integer", "minimum": 0},
        "workers": {"type": "integer", "minimum": 0},
        "regression": {
            "type": "object",
            "properties": {
                "baseline_runs": {"type": "integer", "minimum": 1},
                "slowdown_ratio": {"type": "number", "minimum": 1},
                "min_stage_delta_seconds": {"type": "number", "minimum": 0},
                "accuracy_drop": {"type": "number", "minimum": 0},
            },
        },
    },
}


def _canonical(data) -> str:
    """Canonical JSON rendering used for all fingerprints."""
    return json.dumps(data, sort_keys=True, separators=(",", ":"))


def _digest(data) -> str:
    return hashlib.sha256(_canonical(data).encode()).hexdigest()[:16]


@dataclass(frozen=True)
class ConfigVariant:
    """One named column of the config axis: a label plus overrides."""

    name: str
    overrides: dict = field(default_factory=dict)

    @property
    def config_hash(self) -> str:
        """Digest of the overrides alone (the store's config-axis key)."""
        return _digest(self.overrides)


@dataclass(frozen=True)
class RegressionPolicy:
    """Noise thresholds for the regression detector (DESIGN.md §15).

    A stage counts as regressed only when it is *both* relatively slower
    (``slowdown_ratio`` × the baseline mean) and absolutely slower
    (``min_stage_delta_seconds`` over it) — the absolute floor is what
    keeps microsecond-scale stages from tripping the gate on scheduler
    noise.  Accuracy is compared on absolute delta alone because
    same-seed runs are deterministic.
    """

    baseline_runs: int = 3
    slowdown_ratio: float = 1.5
    min_stage_delta_seconds: float = 0.25
    accuracy_drop: float = 0.02

    @classmethod
    def from_dict(cls, data: dict) -> "RegressionPolicy":
        return cls(
            baseline_runs=int(data.get("baseline_runs", 3)),
            slowdown_ratio=float(data.get("slowdown_ratio", 1.5)),
            min_stage_delta_seconds=float(
                data.get("min_stage_delta_seconds", 0.25)
            ),
            accuracy_drop=float(data.get("accuracy_drop", 0.02)),
        )

    def as_dict(self) -> dict:
        return {
            "baseline_runs": self.baseline_runs,
            "slowdown_ratio": self.slowdown_ratio,
            "min_stage_delta_seconds": self.min_stage_delta_seconds,
            "accuracy_drop": self.accuracy_drop,
        }


@dataclass(frozen=True)
class TrialSpec:
    """One cell of the trial matrix — the unit the runner executes.

    The fingerprint deliberately excludes the experiment name and the
    config variant's *label*: two specs describing the same computation
    share trial identity, and renaming a config column does not orphan
    its history.
    """

    experiment: str
    dataset: str
    setting: str
    method: str
    model: str
    config_name: str
    overrides: dict
    seed: int

    @property
    def fingerprint(self) -> str:
        return _digest(
            {
                "dataset": self.dataset,
                "setting": self.setting,
                "method": self.method,
                "model": self.model,
                "overrides": self.overrides,
                "seed": self.seed,
            }
        )

    @property
    def config_hash(self) -> str:
        return _digest(self.overrides)

    @property
    def label(self) -> str:
        """Stable human-readable identity for progress lines and reports."""
        return (
            f"{self.dataset}/{self.setting}/{self.method}/{self.model}/"
            f"{self.config_name}/seed{self.seed}"
        )

    def build_config(self) -> AutoFeatConfig:
        """The trial's :class:`AutoFeatConfig` (overrides + seed)."""
        return AutoFeatConfig(**{**self.overrides, "seed": self.seed})

    def as_dict(self) -> dict:
        return {
            "experiment": self.experiment,
            "dataset": self.dataset,
            "setting": self.setting,
            "method": self.method,
            "model": self.model,
            "config_name": self.config_name,
            "overrides": dict(self.overrides),
            "seed": self.seed,
        }

    @classmethod
    def from_dict(cls, data: dict) -> "TrialSpec":
        return cls(
            experiment=data["experiment"],
            dataset=data["dataset"],
            setting=data["setting"],
            method=data["method"],
            model=data["model"],
            config_name=data["config_name"],
            overrides=dict(data.get("overrides", {})),
            seed=int(data["seed"]),
        )


def _known_datasets() -> tuple[str, ...]:
    from ..datasets import dataset_names

    return tuple(dataset_names())


def _known_methods() -> tuple[str, ...]:
    from ..bench.harness import ALL_METHODS

    return ALL_METHODS


def _known_models() -> tuple[str, ...]:
    from ..ml import MODEL_REGISTRY

    return tuple(MODEL_REGISTRY)


def validate_spec(data: dict) -> list[str]:
    """All problems with a spec dict (empty list = loadable).

    Structural validation against :data:`SPEC_SCHEMA` first; when that
    passes, semantic checks: known dataset/model/method/setting names,
    the failure policy, unique config names, and every config's overrides
    actually constructing an :class:`AutoFeatConfig`.
    """
    errors = validate(data, SPEC_SCHEMA, path="spec")
    if errors:
        return errors
    known = _known_datasets()
    for name in data["datasets"]:
        if name not in known:
            errors.append(f"spec.datasets: unknown dataset {name!r}")
    setting = data.get("setting", "benchmark")
    if setting not in SETTINGS:
        errors.append(
            f"spec.setting: {setting!r} not one of {list(SETTINGS)}"
        )
    methods = tuple(data.get("methods", ("AutoFeat",)))
    for method in methods:
        if method not in _known_methods():
            errors.append(f"spec.methods: unknown method {method!r}")
    models = tuple(data.get("models", ("lightgbm",)))
    for model in models:
        if model not in _known_models():
            errors.append(f"spec.models: unknown model {model!r}")
    if not data["datasets"]:
        errors.append("spec.datasets: must name at least one dataset")
    if not data["configs"]:
        errors.append("spec.configs: must name at least one config variant")
    if not data["seeds"]:
        errors.append("spec.seeds: must name at least one seed")
    policy = data.get("failure_policy", "skip_and_record")
    if policy not in FAILURE_POLICIES:
        errors.append(
            f"spec.failure_policy: {policy!r} not one of {list(FAILURE_POLICIES)}"
        )
    seen: set[str] = set()
    for i, variant in enumerate(data["configs"]):
        name = variant["name"]
        if name in seen:
            errors.append(f"spec.configs[{i}]: duplicate config name {name!r}")
        seen.add(name)
        overrides = variant.get("overrides", {})
        if "seed" in overrides:
            errors.append(
                f"spec.configs[{i}].overrides: 'seed' belongs on the "
                f"seeds axis, not in a config variant"
            )
            continue
        try:
            AutoFeatConfig(**overrides)
        except ConfigError as exc:
            errors.append(f"spec.configs[{i}].overrides: {exc}")
        except TypeError as exc:
            errors.append(
                f"spec.configs[{i}].overrides: unknown AutoFeatConfig "
                f"field ({exc})"
            )
    return errors


@dataclass(frozen=True)
class ExperimentSpec:
    """A validated trial matrix plus its execution and gating policy."""

    name: str
    datasets: tuple[str, ...]
    configs: tuple[ConfigVariant, ...]
    seeds: tuple[int, ...]
    setting: str = "benchmark"
    models: tuple[str, ...] = ("lightgbm",)
    methods: tuple[str, ...] = ("AutoFeat",)
    description: str = ""
    timeout_seconds: float = 300.0
    failure_policy: str = "skip_and_record"
    error_budget: int = DEFAULT_ERROR_BUDGET
    max_retries: int = DEFAULT_MAX_RETRIES
    workers: int = 0
    regression: RegressionPolicy = field(default_factory=RegressionPolicy)

    def trials(self) -> tuple[TrialSpec, ...]:
        """The full matrix in deterministic expansion order.

        Order is dataset → config → method → model → seed; resume
        semantics and the ``--max-trials`` kill point both rely on this
        order being stable across invocations.
        """
        out = []
        for dataset in self.datasets:
            for variant in self.configs:
                for method in self.methods:
                    for model in self.models:
                        for seed in self.seeds:
                            out.append(
                                TrialSpec(
                                    experiment=self.name,
                                    dataset=dataset,
                                    setting=self.setting,
                                    method=method,
                                    model=model,
                                    config_name=variant.name,
                                    overrides=dict(variant.overrides),
                                    seed=seed,
                                )
                            )
        return tuple(out)

    @property
    def n_trials(self) -> int:
        return (
            len(self.datasets)
            * len(self.configs)
            * len(self.methods)
            * len(self.models)
            * len(self.seeds)
        )

    @classmethod
    def from_dict(cls, data: dict) -> "ExperimentSpec":
        errors = validate_spec(data)
        if errors:
            raise SpecError(
                "invalid experiment spec:\n  " + "\n  ".join(errors)
            )
        return cls(
            name=data["name"],
            description=data.get("description", ""),
            datasets=tuple(data["datasets"]),
            setting=data.get("setting", "benchmark"),
            models=tuple(data.get("models", ("lightgbm",))),
            methods=tuple(data.get("methods", ("AutoFeat",))),
            configs=tuple(
                ConfigVariant(v["name"], dict(v.get("overrides", {})))
                for v in data["configs"]
            ),
            seeds=tuple(int(s) for s in data["seeds"]),
            timeout_seconds=float(data.get("timeout_seconds", 300.0)),
            failure_policy=data.get("failure_policy", "skip_and_record"),
            error_budget=int(data.get("error_budget", DEFAULT_ERROR_BUDGET)),
            max_retries=int(data.get("max_retries", DEFAULT_MAX_RETRIES)),
            workers=int(data.get("workers", 0)),
            regression=RegressionPolicy.from_dict(data.get("regression", {})),
        )

    @classmethod
    def from_file(cls, path) -> "ExperimentSpec":
        """Load a JSON (``.json``) or TOML (``.toml``) spec file."""
        path = Path(path)
        try:
            text = path.read_text()
        except OSError as exc:
            raise SpecError(f"cannot read spec file {path}: {exc}") from exc
        if path.suffix == ".toml":
            import tomllib

            try:
                data = tomllib.loads(text)
            except tomllib.TOMLDecodeError as exc:
                raise SpecError(f"{path} is not valid TOML: {exc}") from exc
        else:
            try:
                data = json.loads(text)
            except json.JSONDecodeError as exc:
                raise SpecError(f"{path} is not valid JSON: {exc}") from exc
        if not isinstance(data, dict):
            raise SpecError(f"{path}: spec must be a JSON/TOML object")
        return cls.from_dict(data)
