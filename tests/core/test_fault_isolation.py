"""End-to-end fault isolation: skip and record, determinism, bugfix regressions.

The fixture lake is the same diamond as ``tests/engine/test_engine.py``:
the signal table ``c`` is reachable through ``a`` and through ``b``.  With
``FaultInjector(failure_probability=0.3, seed=0)`` exactly one traversed
edge faults — ``base.a_key->a.a_key`` — so the route to the signal through
``b`` survives, which is the graceful-degradation scenario the failure
policy exists for.
"""

import numpy as np
import pytest

from repro.baselines import run_arda, run_autofeat, run_join_all, run_mab
from repro.core import AutoFeat, AutoFeatConfig
from repro.core.streaming import StreamingFeatureSelector
from repro.dataframe import Table
from repro.engine import JoinEngine
from repro.errors import ErrorBudgetExceeded, JoinError
from repro.graph import DatasetRelationGraph, KFKConstraint

from tests.conftest import error_budget
from tests.fault_hooks import FaultInjector

FAULTY_EDGE = "base.a_key->a.a_key"


def diamond_lake(n=400, seed=3):
    rng = np.random.default_rng(seed)
    ids = np.arange(n)
    a_key = rng.permutation(n) + 1_000
    b_key = rng.permutation(n) + 5_000
    shared = rng.permutation(n) + 9_000
    signal = rng.normal(0, 1, n)
    label = ((signal + rng.normal(0, 0.3, n)) > 0).astype(int)
    base = Table(
        {
            "id": ids,
            "a_key": a_key,
            "b_key": b_key,
            "weak": rng.normal(0, 1, n),
            "label": label,
        },
        name="base",
    )
    a = Table(
        {"a_key": a_key, "shared_key": shared, "a_noise": rng.normal(0, 1, n)},
        name="a",
    )
    b = Table(
        {"b_key": b_key, "shared_key": shared, "b_noise": rng.normal(0, 1, n)},
        name="b",
    )
    c = Table({"shared_key": shared, "signal": signal}, name="c")
    return DatasetRelationGraph.from_constraints(
        [base, a, b, c],
        [
            KFKConstraint("base", "a_key", "a", "a_key"),
            KFKConstraint("base", "b_key", "b", "b_key"),
            KFKConstraint("a", "shared_key", "c", "shared_key"),
            KFKConstraint("b", "shared_key", "c", "shared_key"),
        ],
    )


@pytest.fixture(scope="module")
def drg():
    return diamond_lake()


def config(**overrides):
    return AutoFeatConfig(sample_size=200, seed=1, **overrides)


def injector(**overrides):
    kwargs = {"failure_probability": 0.3, "seed": 0}
    kwargs.update(overrides)
    return FaultInjector(**kwargs)


def all_oriented_signatures(drg):
    sigs = {}
    for table in ["base", "a", "b", "c"]:
        for neighbor in drg.neighbors(table):
            for e in drg.best_join_options(table, neighbor):
                sig = (
                    f"{e.source}.{e.source_column}->"
                    f"{e.target}.{e.target_column}"
                )
                sigs[sig] = e
    return sigs


class TestSkipAndRecord:
    def test_augment_survives_injected_faults(self, drg):
        result = AutoFeat(
            drg, config(), hop_hook=injector()
        ).augment("base", "label")
        # The run completes and still finds the signal via the b -> c route.
        assert result.best is not None
        assert "b.shared_key -> c.shared_key" in result.best.ranked.path.describe()
        report = result.combined_failure_report
        assert report.n_failures == 1
        record = report.records[0]
        assert record.stage == "discovery"
        assert record.error_kind == "InjectedFaultError"
        assert record.edge == FAULTY_EDGE
        assert "failures: 1 recorded" in result.summary()

    def test_report_covers_every_attempted_faulty_edge(self, drg):
        # Every edge the injector faults that the traversal attempts must
        # appear in the report — nothing is silently dropped.
        inj = injector()
        faulty = {
            sig
            for sig, edge in all_oriented_signatures(drg).items()
            if inj.fault_kind(edge) is not None
        }
        result = AutoFeat(
            drg, config(), hop_hook=injector()
        ).augment("base", "label")
        recorded = {r.edge for r in result.combined_failure_report.records}
        assert recorded <= faulty
        assert FAULTY_EDGE in recorded

    def test_same_seed_same_failure_report(self, drg):
        cfg = config()
        first = AutoFeat(drg, cfg, hop_hook=injector()).discover(
            "base", "label"
        )
        second = AutoFeat(drg, cfg, hop_hook=injector()).discover(
            "base", "label"
        )
        assert first.failure_report == second.failure_report
        assert first.failure_report.n_failures == 1

    def test_error_budget_bounds_degradation(self, drg):
        with error_budget(0), pytest.raises(ErrorBudgetExceeded):
            AutoFeat(
                drg, config(), hop_hook=injector(failure_probability=1.0)
            ).augment("base", "label")


class TestTrainTopKRegression:
    """A failing full-table materialisation must not abort training."""

    def _discover(self, drg):
        autofeat = AutoFeat(drg, config())
        return autofeat, autofeat.discover("base", "label")

    def _poison_top_path(self, monkeypatch, discovery, top_k):
        top = discovery.top(top_k)[0].path.describe()
        original = JoinEngine.materialize_path

        def poisoned(self, path, base_table):
            if path.describe() == top:
                raise JoinError(f"materialisation failed for [{top}]")
            return original(self, path, base_table)

        monkeypatch.setattr(JoinEngine, "materialize_path", poisoned)
        return top

    def test_skip_and_record_trains_remaining_paths(self, drg, monkeypatch):
        autofeat, discovery = self._discover(drg)
        top = self._poison_top_path(
            monkeypatch, discovery, autofeat.config.top_k
        )
        result = autofeat.train_top_k(discovery)
        assert result.best is not None
        assert result.best.ranked.path.describe() != top
        assert len(result.trained) == len(discovery.top(autofeat.config.top_k)) - 1
        report = result.failure_report
        assert report.n_failures == 1
        assert report.records[0].stage == "training"
        assert report.records[0].path == top


class TestStreamingDedupeRegression:
    """R_sel is global: a name accepted once must never be accepted again."""

    def _selector(self, **overrides):
        cfg = AutoFeatConfig(**overrides)
        label = np.array([0.0, 1.0, 0.0, 1.0, 0.0, 1.0, 0.0, 1.0])
        return StreamingFeatureSelector(cfg, label), label

    def test_reoffered_batch_not_reaccepted_without_redundancy(self):
        # With both stages off (ablation), nothing downstream used to stop
        # a duplicate: the same qualified column offered by two paths was
        # accepted twice.
        selector, label = self._selector(
            relevance_metric=None, redundancy_method=None
        )
        matrix = np.column_stack([label, 1.0 - label])
        names = ["t.x", "t.y"]
        first = selector.process_batch(names, matrix)
        assert first.accepted_names == ("t.x", "t.y")
        second = selector.process_batch(names, matrix)
        assert second.accepted_names == ()
        assert len(selector.selected_names) == 2
        assert selector.selected_names == ["t.x", "t.y"]

    def test_reoffered_batch_not_reaccepted_with_scoring_on(self):
        selector, label = self._selector()
        rng = np.random.default_rng(0)
        matrix = np.column_stack([label + 0.01 * rng.normal(size=8)])
        first = selector.process_batch(["t.x"], matrix)
        assert first.accepted_names == ("t.x",)
        second = selector.process_batch(["t.x"], matrix)
        assert second.accepted_names == ()
        assert len(selector.selected_names) == 1

    def test_is_selected_tracks_acceptance(self):
        selector, label = self._selector(
            relevance_metric=None, redundancy_method=None
        )
        assert "t.x" not in selector.selected_names
        selector.process_batch(["t.x"], label.reshape(-1, 1))
        assert "t.x" in selector.selected_names


class TestBaselinesUnderInjection:
    """All four baselines degrade gracefully and account their failures."""

    def test_join_all_skips_faulty_hop(self, drg):
        result = run_join_all(
            drg, "base", "label", seed=1, hop_hook=injector()
        )
        # The faulty base -> a hop is skipped; b and c still join (c is
        # reachable through b on a shallower BFS level).
        assert result.n_joined_tables == 2
        report = result.failure_report
        assert report.n_failures == 1
        assert report.records[0].stage == "join_all"
        assert report.records[0].edge == FAULTY_EDGE

    def test_arda_records_star_join_failure(self, drg):
        result = run_arda(
            drg, "base", "label", seed=1, hop_hook=injector()
        )
        report = result.failure_report
        assert report.n_failures == 1
        assert report.records[0].stage == "arda"
        assert result.n_joined_tables == 1

    def test_mab_penalises_and_records_faulty_arm(self, drg):
        result = run_mab(
            drg, "base", "label", seed=1, budget=6, hop_hook=injector()
        )
        report = result.failure_report
        assert report is not None
        assert all(r.stage == "mab" for r in report.records)
        assert 0.0 <= result.accuracy <= 1.0

    def test_autofeat_adapter_exposes_combined_report(self, drg):
        result = run_autofeat(
            drg,
            "base",
            "label",
            config=config(),
            seed=1,
            hop_hook=injector(),
        )
        assert result.failure_report is not None
        assert result.failure_report.n_failures == 1


class TestEmptyContributionAccounting:
    def test_clean_run_counts_no_empty_contributions(self, drg):
        discovery = AutoFeat(drg, config()).discover("base", "label")
        assert discovery.n_hops_empty_contribution == 0
        assert discovery.failure_report.ok
