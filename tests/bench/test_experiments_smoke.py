"""Smoke tests for the figure-level experiment functions (tiny scales).

The full experiments run through ``python -m repro.bench``; these assert
the row contracts on the smallest possible inputs so harness regressions
surface in the fast suite.
"""

import pytest

from repro.bench import (
    fig3a_relevance_comparison,
    fig3b_redundancy_comparison,
    fig8_kappa_sensitivity,
    fig9_ablation,
    joinall_explosion,
)


class TestFig3Functions:
    def test_relevance_rows(self):
        rows = fig3a_relevance_comparison(datasets=("credit",))
        assert {r["metric"] for r in rows} == {
            "information_gain",
            "symmetrical_uncertainty",
            "pearson",
            "spearman",
            "relief",
        }
        assert all(0.0 <= r["mean_accuracy"] <= 1.0 for r in rows)
        assert all(r["mean_selection_seconds"] >= 0.0 for r in rows)

    def test_redundancy_rows(self):
        rows = fig3b_redundancy_comparison(datasets=("credit",), kappa=5)
        assert {r["method"] for r in rows} == {"mifs", "mrmr", "cife", "jmi", "cmim"}


class TestSweepFunctions:
    def test_kappa_sweep_rows(self):
        rows = fig8_kappa_sensitivity(datasets=("credit",), kappas=(2, 15))
        assert [r["kappa"] for r in rows] == [2, 15]
        assert all(r["mean_fs_seconds"] > 0 for r in rows)

    def test_ablation_rows(self):
        rows = fig9_ablation(datasets=("credit",))
        variants = {r["variant"] for r in rows}
        assert "spearman-mrmr" in variants
        assert "mrmr-only" in variants
        assert len(rows) == 6


class TestJoinAllExplosion:
    def test_row_contract(self):
        rows = joinall_explosion(("credit",))
        assert len(rows) == 2  # benchmark + datalake
        assert all(r["joinall_orderings"] >= 1 for r in rows)


class TestExtensionExperiments:
    def test_streaming_selector_rows(self):
        from repro.bench import streaming_selector_comparison

        rows = streaming_selector_comparison(datasets=("credit",))
        strategies = {r["strategy"] for r in rows}
        assert strategies == {
            "two-stage (AutoFeat)",
            "alpha-investing",
            "fast-osfs",
        }
        assert all(r["n_selected"] >= 1 for r in rows)
        assert all(0.0 <= r["accuracy"] <= 1.0 for r in rows)
