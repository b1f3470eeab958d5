"""Unit tests for the provenance explain report."""

import numpy as np
import pytest

from repro.core import AutoFeat, AutoFeatConfig, explain, explain_rows
from repro.dataframe import Table
from repro.graph import DatasetRelationGraph, JoinPath, KFKConstraint

from tests.core.driver_goldens import golden_lake
from tests.fault_hooks import FaultInjector


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


@pytest.fixture(scope="module")
def credit_result():
    """The credit golden lake: its best path accepts features at two hops."""
    bundle, drg = golden_lake("credit")
    return AutoFeat(drg, AutoFeatConfig()).augment(
        bundle.base_name, bundle.label_column, "knn"
    )


def scores_by_hop(result) -> dict:
    """``feature -> (relevance, redundancy)`` as each prefix of the best
    path scored the features it accepted, read off ``ranked_paths``."""
    ranked = {r.path: r for r in result.discovery.ranked_paths}
    path = result.best.ranked.path
    expected, before = {}, ()
    for i in range(1, path.length + 1):
        hop = ranked[JoinPath(path.base, path.edges[:i])]
        relevance = dict(zip(hop.relevant_names, hop.relevance_scores))
        accepted = hop.selected_features[len(before) :]
        assert len(accepted) == len(hop.redundancy_scores)
        for name, redundancy in zip(accepted, hop.redundancy_scores):
            expected[name] = (round(relevance[name], 4), round(redundancy, 4))
        before = hop.selected_features
    return expected


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

    @pytest.mark.parametrize("lake", ["chain", "credit"])
    def test_every_row_carries_its_own_hops_scores(self, lake, request):
        # Not only the last hop's: a feature accepted at an earlier hop of
        # the best path once rendered blank scores.
        result = request.getfixturevalue(
            {"chain": "result", "credit": "credit_result"}[lake]
        )
        expected = scores_by_hop(result)
        rows = explain_rows(result)
        assert len(rows) == len(result.best.ranked.selected_features)
        assert {r["feature"]: (r["relevance"], r["redundancy"]) for r in rows} == (
            expected
        )
        assert len({r["hops"] for r in rows}) > 1, "features from one hop only"
        if lake == "chain":
            assert expected["mid.m"] == (0.4677, 0.0295)
            assert expected["deep.signal"] == (0.7731, 0.2344)

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
            AutoFeatConfig(sample_size=400, seed=1),
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
            AutoFeatConfig(sample_size=400, seed=1),
            hop_hook=injector,
        ).augment("base", "label")
        assert result.combined_failure_report.n_failures > 0
        rows = explain_rows(result)
        assert any(r["feature"] == "deep.signal" for r in rows)
        assert all(r["origin"] != "half" for r in rows)
