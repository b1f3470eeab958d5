"""Behavioural tests for BASE, ARDA, MAB and JoinAll(+F)."""

import numpy as np
import pytest

from repro.baselines import (
    FEASIBILITY_CAP,
    BaselineResult,
    join_all_table,
    rifs_select,
    run_arda,
    run_autofeat,
    run_base,
    run_join_all,
    run_mab,
)
from repro.core import UcbArm
from repro.dataframe import Table
from repro.engine import FaultManager, JoinEngine
from repro.errors import JoinError
from repro.graph import DatasetRelationGraph, KFKConstraint


@pytest.fixture(scope="module")
def lake():
    """Base with weak signal; strong features one hop (t1) and two hops (t2) away."""
    rng = np.random.default_rng(11)
    n = 500
    ids = np.arange(n)
    k1 = rng.permutation(n) + 10_000
    k2 = rng.permutation(n) + 50_000
    s1 = rng.normal(0, 1, n)
    s2 = rng.normal(0, 1, n)
    label = ((s1 + s2 + rng.normal(0, 0.5, n)) > 0).astype(int)
    base = Table(
        {"id": ids, "t1_key": k1, "weak": rng.normal(0, 1, n), "label": label},
        name="base",
    )
    t1 = Table({"t1_key": k1, "t2_key": k2, "s1": s1}, name="t1")
    t2 = Table({"t2_key": k2, "s2": s2}, name="t2")
    junk = Table({"id": ids, "junk": rng.normal(0, 1, n)}, name="junk")
    drg = DatasetRelationGraph.from_constraints(
        [base, t1, t2, junk],
        [
            KFKConstraint("base", "t1_key", "t1", "t1_key"),
            KFKConstraint("t1", "t2_key", "t2", "t2_key"),
            KFKConstraint("base", "id", "junk", "id"),
        ],
    )
    return drg, base


class TestBase:
    def test_result_record(self, lake):
        __, base = lake
        result = run_base(base, "label", "lightgbm", seed=1)
        assert result.method == "BASE"
        assert result.n_joined_tables == 0
        assert result.feature_selection_seconds == 0.0
        assert 0.0 <= result.accuracy <= 1.0

    def test_row_shape(self, lake):
        __, base = lake
        row = run_base(base, "label", seed=1).row()
        assert set(row) == {
            "method",
            "dataset",
            "model",
            "accuracy",
            "fs_seconds",
            "total_seconds",
            "joined_tables",
            "features",
        }


class TestRIFS:
    def test_signal_survives_noise_injection(self):
        rng = np.random.default_rng(0)
        n = 400
        y = rng.integers(0, 2, n)
        signal = y + rng.normal(0, 0.3, n)
        X = np.column_stack([signal, rng.normal(0, 1, (n, 3))])
        survivors = rifs_select(X, y, ["signal", "n1", "n2", "n3"], seed=0)
        assert "signal" in survivors[0.5]

    def test_thresholds_nested(self):
        rng = np.random.default_rng(1)
        n = 300
        y = rng.integers(0, 2, n)
        X = np.column_stack([y + rng.normal(0, 0.5, n), rng.normal(0, 1, n)])
        survivors = rifs_select(X, y, ["a", "b"], seed=0)
        assert set(survivors[0.7]) <= set(survivors[0.3])


class TestArda:
    def test_single_hop_only(self, lake):
        drg, __ = lake
        result = run_arda(drg, "base", "label", "lightgbm", seed=1)
        # ARDA joins only direct neighbours: t1 and junk (not t2).
        assert result.n_joined_tables == 2

    def test_misses_two_hop_signal(self, lake):
        drg, __ = lake
        arda = run_arda(drg, "base", "label", "lightgbm", seed=1)
        autofeat = run_autofeat(drg, "base", "label", "lightgbm", seed=1)
        assert autofeat.accuracy >= arda.accuracy

    def test_fs_time_dominates(self, lake):
        drg, __ = lake
        result = run_arda(drg, "base", "label", "lightgbm", seed=1)
        assert result.feature_selection_seconds > 0.1


class TestMab:
    def test_reaches_signal_through_same_names(self, lake):
        drg, base = lake
        result = run_mab(drg, "base", "label", "lightgbm", budget=8, seed=1)
        base_acc = run_base(base, "label", "lightgbm", seed=1).accuracy
        assert result.accuracy >= base_acc

    def test_budget_limits_joins(self, lake):
        drg, __ = lake
        result = run_mab(drg, "base", "label", "lightgbm", budget=1, seed=1)
        assert result.n_joined_tables <= 1

    def test_model_in_the_loop_is_slow(self, lake):
        drg, __ = lake
        mab = run_mab(drg, "base", "label", "lightgbm", budget=6, seed=1)
        autofeat = run_autofeat(drg, "base", "label", "lightgbm", seed=1)
        assert mab.feature_selection_seconds > autofeat.feature_selection_seconds


def wide_table(drg):
    """JoinAll's wide table on a fresh engine, which must record no failure."""
    faults = FaultManager()
    wide = join_all_table(drg, "base", JoinEngine(drg), faults)
    assert faults.report().ok
    return wide


class TestJoinAll:
    def test_joins_every_reachable_table(self, lake):
        drg, __ = lake
        wide, joined = wide_table(drg)
        assert joined == 3
        assert "t2.s2" in wide

    def test_accuracy_is_ceiling(self, lake):
        drg, base = lake
        result = run_join_all(drg, "base", "label", "lightgbm", seed=1)
        base_acc = run_base(base, "label", "lightgbm", seed=1).accuracy
        assert result.accuracy > base_acc

    def test_filter_variant_selects_kappa(self, lake):
        drg, __ = lake
        result = run_join_all(
            drg, "base", "label", "lightgbm", with_filter=True, kappa=3, seed=1
        )
        assert result.method == "JoinAll+F"
        assert result.n_features_used <= 3
        assert result.feature_selection_seconds > 0

    def test_second_hop_probes_the_key_not_a_k_r_column(self):
        # ``a`` has its own ``k_r`` column: a name search in the running
        # join finds ``a.k_r`` (ids 100…) where the key ``a.k`` (ids 10…)
        # is meant, and leaves every ``b.f`` null.
        n = 12
        ids = np.arange(n)
        base = Table({"id": ids, "label": ids % 2}, name="base")
        a = Table({"id": ids, "k": ids + 10, "k_r": ids + 100}, name="a")
        b = Table({"k": np.arange(10, 10 + n), "f": 1.5 * ids}, name="b")
        drg = DatasetRelationGraph.from_constraints(
            [base, a, b],
            [
                KFKConstraint("base", "id", "a", "id"),
                KFKConstraint("a", "k", "b", "k"),
            ],
        )
        wide, joined = wide_table(drg)
        assert joined == 2
        assert wide.column("b.f").to_list() == [1.5 * i for i in range(n)]

    def test_feasibility_cap(self, lake):
        drg, __ = lake
        with pytest.raises(JoinError):
            run_join_all(drg, "base", "label", feasibility_cap=0)

    def test_default_cap_allows_small_graphs(self, lake):
        drg, __ = lake
        run_join_all(drg, "base", "label", "lightgbm", seed=1)
        assert FEASIBILITY_CAP >= 10**6


class TestAutoFeatAdapter:
    def test_record_fields(self, lake):
        drg, __ = lake
        result = run_autofeat(drg, "base", "label", "lightgbm", seed=1)
        assert isinstance(result, BaselineResult)
        assert result.method == "AutoFeat"
        assert result.n_joined_tables >= 1
        assert result.feature_selection_seconds > 0

    def test_beats_base(self, lake):
        drg, base = lake
        autofeat = run_autofeat(drg, "base", "label", "lightgbm", seed=1)
        base_acc = run_base(base, "label", "lightgbm", seed=1).accuracy
        assert autofeat.accuracy > base_acc


class TestMabUcbColdStart:
    """Regression for the UCB cold-start bug (shared ucb_score)."""

    def test_unpulled_arm_scores_infinite(self):
        arm = UcbArm(key=("a", "b"))
        assert arm.ucb(total_pulls=0, exploration=0.5) == float("inf")
        assert arm.ucb(total_pulls=50, exploration=0.5) == float("inf")

    def test_exploration_bonus_positive_after_first_pull(self):
        # The old log(max(total, 1)) form returned a bare one-sample
        # mean here (zero bonus while total_pulls <= 1).
        arm = UcbArm(key=("a", "b"), pulls=1)
        assert arm.ucb(total_pulls=1, exploration=0.5) > 0.0

    def test_run_mab_deterministic_per_seed(self, lake):
        drg, __ = lake
        runs = [
            run_mab(drg, "base", "label", "lightgbm", budget=5, seed=3)
            for _ in range(2)
        ]
        assert runs[0].accuracy == runs[1].accuracy
        assert runs[0].n_joined_tables == runs[1].n_joined_tables
        assert runs[0].n_features_used == runs[1].n_features_used

    def test_run_mab_seeds_change_only_via_model(self, lake):
        # Arm selection is deterministic given the pull history; the seed
        # enters through sampling/model training, so the run completes
        # and reports coherent accounting for any seed.
        drg, __ = lake
        result = run_mab(drg, "base", "label", "lightgbm", budget=4, seed=9)
        assert 0.0 <= result.accuracy <= 1.0
        assert result.run_manifest.metrics["counters"]["mab.pulls"] <= 4
