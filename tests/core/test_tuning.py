"""Unit tests for the dynamic hyper-parameter tuner (future-work extension)."""

import numpy as np
import pytest

from repro.core import AutoFeatConfig, AutoFeatTuner
from repro.dataframe import Table
from repro.graph import DatasetRelationGraph, KFKConstraint


@pytest.fixture(scope="module")
def drg():
    rng = np.random.default_rng(21)
    n = 400
    ids = np.arange(n)
    signal = rng.normal(0, 1, n)
    label = ((signal + rng.normal(0, 0.4, n)) > 0).astype(int)
    base = Table(
        {"id": ids, "weak": rng.normal(0, 1, n), "label": label}, name="base"
    )
    good = Table({"id": ids, "signal": signal}, name="good")
    # A half-matching satellite, so tau actually changes what survives.
    partial = Table(
        {"id": ids[: n // 2], "extra": rng.normal(0, 1, n // 2)}, name="partial"
    )
    return DatasetRelationGraph.from_constraints(
        [base, good, partial],
        [
            KFKConstraint("base", "id", "good", "id"),
            KFKConstraint("base", "id", "partial", "id"),
        ],
    )


@pytest.fixture(scope="module")
def outcome(drg):
    tuner = AutoFeatTuner(
        drg,
        base_config=AutoFeatConfig(sample_size=300, seed=1),
        taus=(0.4, 0.9),
        kappas=(3, 10),
    )
    return tuner.tune("base", "label")


class TestTuner:
    def test_all_grid_points_evaluated(self, outcome):
        assert len(outcome.trials) == 4
        assert {(t.tau, t.kappa) for t in outcome.trials} == {
            (0.4, 3),
            (0.4, 10),
            (0.9, 3),
            (0.9, 10),
        }

    def test_best_trial_is_grid_max(self, outcome):
        best = max(outcome.trials, key=lambda t: t.accuracy)
        assert (outcome.best_config.tau, outcome.best_config.kappa) == (
            best.tau,
            best.kappa,
        )

    def test_best_config_from_grid(self, outcome):
        assert outcome.best_config.tau in (0.4, 0.9)
        assert outcome.best_config.kappa in (3, 10)

    def test_best_config_restores_top_k(self, outcome):
        assert outcome.best_config.top_k == AutoFeatConfig().top_k

    def test_final_result_found_signal(self, outcome):
        assert outcome.best_result.accuracy > 0.75
        assert outcome.best_result.best is not None

    def test_tau_changes_surviving_paths(self, outcome):
        lenient = [t for t in outcome.trials if t.tau == 0.4]
        strict = [t for t in outcome.trials if t.tau == 0.9]
        # Strict tau prunes the half-matching satellite's path.
        assert min(t.n_paths for t in strict) < max(t.n_paths for t in lenient)

    def test_timing_recorded(self, outcome):
        assert outcome.total_seconds > 0
        assert all(t.feature_selection_seconds >= 0 for t in outcome.trials)
