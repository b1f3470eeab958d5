"""Unit tests for the lake builders and the Table II registry."""

import pytest

from repro.datasets import (
    DATASETS,
    benchmark_drg,
    build_dataset,
    datalake_drg,
    rename_for_lake,
)
from repro.errors import DatasetError


@pytest.fixture(scope="module")
def bundle():
    return build_dataset("credit")


class TestRegistry:
    def test_eight_datasets(self):
        assert len(DATASETS) == 8
        assert list(DATASETS)[0] == "credit"

    def test_paper_metadata_recorded(self):
        spec = DATASETS["school"]
        assert spec.paper_rows == 1775
        assert spec.paper_joinable_tables == 16
        assert spec.paper_features == 731

    def test_unknown_dataset_raises(self):
        with pytest.raises(DatasetError):
            build_dataset("imagenet")

    def test_joinable_tables_match_table2(self, bundle):
        assert bundle.n_tables - 1 == DATASETS["credit"].paper_joinable_tables

    @pytest.mark.parametrize("name", ["credit", "eyemove", "steel"])
    def test_buildable_and_consistent(self, name):
        built = build_dataset(name)
        spec = DATASETS[name]
        assert built.base_table.n_rows == spec.rows
        assert built.n_tables - 1 == spec.n_satellites
        # region/status spurious columns may add a handful of extras.
        assert built.total_features >= spec.n_features


class TestBenchmarkSetting:
    def test_kfk_edges_only(self, bundle):
        drg = benchmark_drg(bundle)
        assert drg.n_relationships == len(bundle.constraints)
        assert all(e.weight == 1.0 for e in drg.graph.all_edges())


class TestDataLakeSetting:
    def test_edges_are_discovered_not_declared(self, bundle):
        drg = datalake_drg(bundle)
        assert drg.n_relationships > 0
        assert any(e.weight < 1.0 for e in drg.graph.all_edges())

    def test_true_edges_recoverable(self, bundle):
        drg = datalake_drg(bundle)
        # Every directly-attached satellite must be reachable from the base:
        # its true edge survives discovery as the best option for the pair.
        base_children = {
            c.table_b for c in bundle.constraints if c.table_a == bundle.base_name
        }
        reachable = set(drg.neighbors(bundle.base_name))
        assert base_children <= reachable

    def test_rename_breaks_exact_names_partially(self, bundle):
        renamed = rename_for_lake(bundle, rename_fraction=1.0)
        tables = {t.name: t for t in renamed}
        ref_columns = [
            c
            for t in tables.values()
            for c in t.column_names
            if c.endswith("_ref")
        ]
        assert ref_columns  # all parent-side keys renamed

    def test_rename_fraction_zero_keeps_names(self, bundle):
        renamed = rename_for_lake(bundle, rename_fraction=0.0)
        for original, after in zip(bundle.tables, renamed):
            assert original.column_names == after.column_names

    def test_spurious_edges_exist(self, bundle):
        drg = datalake_drg(bundle)
        truth = set()
        for c in bundle.constraints:
            truth.add(frozenset([(c.table_a, c.table_b)]))
        true_pairs = {
            frozenset((c.table_a, c.table_b)) for c in bundle.constraints
        }
        all_pairs = {
            frozenset((e.node_a, e.node_b)) for e in drg.graph.all_edges()
        }
        assert all_pairs - true_pairs, "expected at least one spurious pair"

    def test_threshold_tightening_reduces_edges(self, bundle):
        loose = datalake_drg(bundle, threshold=0.55)
        tight = datalake_drg(bundle, threshold=0.9)
        assert tight.n_relationships <= loose.n_relationships


class TestBuildAll:
    def test_all_eight_lakes_build(self):
        for name, spec in DATASETS.items():
            bundle = build_dataset(name)
            assert bundle.n_tables - 1 == spec.n_satellites, name
            assert bundle.base_table.n_rows == spec.rows, name
            assert len(bundle.constraints) == spec.n_satellites, name

    def test_school_is_star_schema(self):
        bundle = build_dataset("school")
        assert max(bundle.depths.values()) == 1

    def test_depths_within_spec(self):
        for name in ("covertype", "jannis", "miniboone"):
            bundle = build_dataset(name)
            assert max(bundle.depths.values()) <= DATASETS[name].max_depth
