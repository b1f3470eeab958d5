"""Unit tests for the bench reporting and the experiment harness."""

import pytest

from repro.bench import (
    BenchProfile,
    average_by_method,
    build_setting,
    compare_methods,
    format_series,
    format_table,
    headline_summary,
    summarise,
    table2_overview,
)
from repro.core import AutoFeatConfig
from repro.datasets import build_dataset


class TestFormatTable:
    def test_renders_columns(self):
        text = format_table([{"a": 1, "b": "x"}, {"a": 22, "b": "yy"}])
        lines = text.splitlines()
        assert lines[0].split() == ["a", "b"]
        assert "22" in lines[3]

    def test_title(self):
        assert format_table([{"a": 1}], title="T").startswith("T\n")

    def test_empty(self):
        assert "(no rows)" in format_table([])

    def test_float_formatting(self):
        assert "0.1235" in format_table([{"v": 0.123456}])

    def test_column_selection(self):
        text = format_table([{"a": 1, "b": 2}], columns=["b"])
        assert "a" not in text.splitlines()[0]

    def test_missing_cell_blank(self):
        text = format_table([{"a": 1}, {"b": 2}], columns=["a", "b"])
        assert text  # renders without raising

    def test_empty_with_explicit_columns_renders_header(self):
        text = format_table([], columns=["a", "bb"])
        lines = text.splitlines()
        assert lines[0].split() == ["a", "bb"]
        assert lines[-1] == "(no rows)"

    def test_empty_with_title(self):
        assert format_table([], title="T") == "T\n(no rows)"

    def test_heterogeneous_rows_union_columns(self):
        # Header is the union of keys in first-seen order; missing cells
        # render empty instead of raising.
        text = format_table([{"a": 1}, {"b": 2, "a": 3}, {"c": 4}])
        lines = text.splitlines()
        assert lines[0].split() == ["a", "b", "c"]
        assert lines[4].split() == ["4"]  # row {"c": 4}: a and b blank

    def test_extra_keys_outside_columns_dropped(self):
        text = format_table([{"a": 1, "noise": "zz"}], columns=["a"])
        assert "zz" not in text
        assert "noise" not in text

    def test_non_numeric_cells_stringified(self):
        rows = [{"v": None, "w": [1, 2], "x": True, "y": "s"}]
        text = format_table(rows)
        body = text.splitlines()[2]
        assert "None" in body
        assert "[1, 2]" in body
        assert "True" in body

    def test_wide_cell_sets_column_width(self):
        text = format_table([{"a": "xxxxxxxxxx"}, {"a": 1}])
        header, rule = text.splitlines()[:2]
        assert len(rule) == 10
        assert header.startswith("a")


class TestSeriesAndSummaries:
    def test_series(self):
        text = format_series("k", [1, 2], {"acc": [0.5, 0.6]})
        assert "acc" in text
        assert "0.6000" in text

    def test_summarise(self):
        out = summarise([1.0, 2.0, 3.0])
        assert out == {"mean": 2.0, "min": 1.0, "max": 3.0}

    def test_summarise_empty(self):
        assert summarise([]) == {"mean": 0.0, "min": 0.0, "max": 0.0}


class TestProfile:
    def test_quick_profile(self):
        profile = BenchProfile.quick()
        assert len(profile.datasets) == 3
        assert profile.methods[-1] == "AutoFeat"

    def test_full_profile_covers_table2(self):
        assert len(BenchProfile.full().datasets) == 8
        assert len(BenchProfile.full().models) == 4


class TestHarness:
    def test_build_setting_variants(self):
        bundle = build_dataset("credit")
        assert build_setting(bundle, "benchmark").n_relationships == 5
        assert build_setting(bundle, "datalake").n_relationships > 0
        with pytest.raises(ValueError):
            build_setting(bundle, "prod")

    def test_compare_methods_rows(self):
        profile = BenchProfile(
            datasets=("credit",),
            models=("lightgbm",),
            methods=("BASE", "AutoFeat"),
            config=AutoFeatConfig(sample_size=300, top_k=2),
            seed=1,
        )
        rows = compare_methods(profile, "benchmark")
        assert len(rows) == 2
        assert {r["method"] for r in rows} == {"BASE", "AutoFeat"}
        assert all(r["status"] == "ok" for r in rows)

    def test_datalake_skips_joinall(self):
        profile = BenchProfile(
            datasets=("credit",),
            models=("lightgbm",),
            methods=("BASE", "JoinAll", "JoinAll+F"),
            config=AutoFeatConfig(sample_size=300),
            seed=1,
        )
        rows = compare_methods(profile, "datalake")
        assert {r["method"] for r in rows} == {"BASE"}

    def test_average_by_method(self):
        rows = [
            {"method": "A", "accuracy": 0.5},
            {"method": "A", "accuracy": 0.7},
            {"method": "B", "accuracy": None},
        ]
        out = {r["method"]: r for r in average_by_method(rows)}
        assert out["A"]["mean_accuracy"] == pytest.approx(0.6)
        assert "B" not in out

    def test_headline_summary_speedups(self):
        rows = [
            {"method": "AutoFeat", "accuracy": 0.9, "fs_seconds": 0.1},
            {"method": "ARDA", "accuracy": 0.8, "fs_seconds": 1.0},
        ]
        out = {r["method"]: r for r in headline_summary(rows)}
        assert out["ARDA"]["autofeat_speedup"] == pytest.approx(10.0)
        assert out["ARDA"]["autofeat_acc_delta"] == pytest.approx(0.1)


class TestTable2:
    def test_eight_rows_with_paper_shape(self):
        rows = table2_overview()
        assert len(rows) == 8
        by_name = {r["dataset"]: r for r in rows}
        assert by_name["credit"]["paper_rows"] == 1001
        assert by_name["bioresponse"]["joinable"] == 40
