"""Unit tests for the provenance explain report."""

import numpy as np
import pytest

from repro.core import AutoFeat, AutoFeatConfig, explain, explain_rows
from repro.dataframe import Table
from repro.engine import FaultInjector
from repro.graph import DatasetRelationGraph, KFKConstraint


def chain_lake(sparse=False):
    """base -> mid -> deep chain; optionally a half-coverage side table."""
    rng = np.random.default_rng(7)
    n = 500
    ids = np.arange(n)
    k2 = rng.permutation(n) + 9000
    k3 = rng.permutation(n) + 50000
    signal = rng.normal(0, 1, n)
    label = ((signal + rng.normal(0, 0.4, n)) > 0).astype(int)
    base = Table(
        {"id": ids, "k2": k2, "w": rng.normal(0, 1, n), "label": label},
        name="base",
    )
    mid = Table(
        {"k2": k2, "m": signal * 0.5 + rng.normal(0, 0.6, n), "k3": k3},
        name="mid",
    )
    deep = Table({"k3": k3, "signal": signal}, name="deep")
    tables = [base, mid, deep]
    constraints = [
        KFKConstraint("base", "k2", "mid", "k2"),
        KFKConstraint("mid", "k3", "deep", "k3"),
    ]
    if sparse:
        # only half of base's ids resolve -> join completeness ~0.5
        half = Table(
            {"id": ids[: n // 2], "h": rng.normal(0, 1, n // 2)}, name="half"
        )
        tables.append(half)
        constraints.append(KFKConstraint("base", "id", "half", "id"))
    return DatasetRelationGraph.from_constraints(tables, constraints)


@pytest.fixture(scope="module")
def result():
    return AutoFeat(chain_lake(), AutoFeatConfig(sample_size=400, seed=1)).augment(
        "base", "label"
    )


class TestExplainRows:
    def test_one_row_per_selected_feature(self, result):
        rows = explain_rows(result)
        assert {r["feature"] for r in rows} == set(
            result.best.ranked.selected_features
        )

    def test_origin_and_hops(self, result):
        rows = {r["feature"]: r for r in explain_rows(result)}
        assert rows["deep.signal"]["origin"] == "deep"
        assert rows["deep.signal"]["hops"] == 2
        assert rows["mid.m"]["hops"] == 1

    def test_route_rendered(self, result):
        rows = {r["feature"]: r for r in explain_rows(result)}
        assert "mid.k3 -> deep.k3" in rows["deep.signal"]["route"]

    def test_last_hop_scores_attached(self, result):
        rows = {r["feature"]: r for r in explain_rows(result)}
        # The winning path's last hop is deep; its feature carries scores.
        assert rows["deep.signal"]["redundancy"] != ""

    def test_empty_result(self):
        base = Table(
            {"x": np.random.default_rng(0).normal(0, 1, 60), "label": [0, 1] * 30},
            name="base",
        )
        drg = DatasetRelationGraph.from_constraints([base], [])
        empty = AutoFeat(drg, AutoFeatConfig(sample_size=30, seed=0)).augment(
            "base", "label"
        )
        assert explain_rows(empty) == []
        assert "no features were added" in explain(empty)


class TestExplainText:
    def test_includes_summary_and_table(self, result):
        text = explain(result)
        assert "best accuracy" in text
        assert "feature provenance" in text
        assert "deep.signal" in text


class TestExplainDegradedPaths:
    """The report must stay coherent when paths are pruned or fail."""

    def test_quality_pruned_table_absent_from_provenance(self):
        drg = chain_lake(sparse=True)
        result = AutoFeat(
            drg, AutoFeatConfig(sample_size=400, seed=1, tau=0.65)
        ).augment("base", "label")
        # the half-coverage join is below tau and was pruned on quality
        assert result.discovery.n_paths_pruned_quality > 0
        rows = explain_rows(result)
        assert rows, "the complete chain must still win"
        assert all(r["origin"] != "half" for r in rows)
        text = explain(result)
        assert "half.h" not in text
        assert "pruned" in text  # summary reports the pruning bookkeeping

    def test_all_paths_failed_still_renders(self):
        injector = FaultInjector(failure_probability=1.0, seed=0)
        result = AutoFeat(
            chain_lake(),
            AutoFeatConfig(
                sample_size=400, seed=1, failure_policy="skip_and_record"
            ),
            hop_hook=injector,
        ).augment("base", "label")
        # every hop faulted: no path survives, but failures are on record
        assert result.best is None
        assert result.combined_failure_report.n_failures > 0
        assert explain_rows(result) == []
        text = explain(result)
        assert "no features were added" in text
        assert "failures" in text

    def test_partial_failure_explains_surviving_path(self):
        # fault exactly the hops into "half"; the chain path is untouched
        injector = FaultInjector(seed=0)
        injector.fault_kind = (
            lambda edge: "failure" if edge.target == "half" else None
        )
        result = AutoFeat(
            chain_lake(sparse=True),
            AutoFeatConfig(
                sample_size=400, seed=1, failure_policy="skip_and_record"
            ),
            hop_hook=injector,
        ).augment("base", "label")
        assert result.combined_failure_report.n_failures > 0
        rows = explain_rows(result)
        assert any(r["feature"] == "deep.signal" for r in rows)
        assert all(r["origin"] != "half" for r in rows)
