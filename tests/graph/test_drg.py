"""Unit tests for the Dataset Relation Graph."""

import pytest

from repro.dataframe import Table
from repro.errors import GraphError
from repro.graph import DatasetRelationGraph, KFKConstraint
from tests.matchers import PairFake


@pytest.fixture
def tables():
    a = Table({"id": [1, 2, 3], "x": [1.0, 2.0, 3.0]}, name="a")
    b = Table({"id": [1, 2, 9], "fk": [10, 20, 30], "y": [5, 6, 7]}, name="b")
    c = Table({"fk": [10, 20, 40], "z": [1, 2, 3]}, name="c")
    return [a, b, c]


@pytest.fixture
def drg(tables):
    return DatasetRelationGraph.from_constraints(
        tables,
        [
            KFKConstraint("a", "id", "b", "id"),
            KFKConstraint("b", "fk", "c", "fk"),
        ],
    )


class TestConstruction:
    def test_counts(self, drg):
        assert drg.n_tables == 3
        assert drg.n_relationships == 2

    def test_anonymous_table_raises(self, tables):
        with pytest.raises(GraphError):
            DatasetRelationGraph([Table({"x": [1]})])

    def test_duplicate_names_raise(self, tables):
        with pytest.raises(GraphError):
            DatasetRelationGraph([tables[0], tables[0]])

    def test_kfk_edges_have_weight_one(self, drg):
        assert all(e.weight == 1.0 for e in drg.graph.all_edges())

    def test_unknown_table_in_constraint_raises(self, tables):
        with pytest.raises(GraphError):
            DatasetRelationGraph.from_constraints(
                tables, [KFKConstraint("a", "id", "zzz", "id")]
            )

    def test_unknown_column_in_constraint_raises(self, tables):
        with pytest.raises(GraphError):
            DatasetRelationGraph.from_constraints(
                tables, [KFKConstraint("a", "zzz", "b", "id")]
            )


class TestDiscoveryConstruction:
    def test_matcher_driven_edges(self, tables):
        def rule(t1, t2):
            if {t1.table_name, t2.table_name} == {"a", "b"}:
                yield "id", "id", 0.9
                yield "id", "fk", 0.6
            if {t1.table_name, t2.table_name} == {"b", "c"}:
                yield "fk", "fk", 0.8

        drg = DatasetRelationGraph.from_discovery(tables, PairFake(rule), threshold=0.55)
        assert drg.n_relationships == 3
        assert len(drg.join_options("a", "b")) == 2

    def test_threshold_filters(self, tables):
        def rule(t1, t2):
            yield t1.columns[0].column_name, t2.columns[0].column_name, 0.5

        drg = DatasetRelationGraph.from_discovery(tables, PairFake(rule), threshold=0.55)
        assert drg.n_relationships == 0

    def test_invalid_threshold_raises(self, tables):
        with pytest.raises(GraphError):
            DatasetRelationGraph.from_discovery(
                tables, PairFake(lambda a, b: []), threshold=0
            )


class TestQueries:
    def test_table_lookup(self, drg):
        assert drg.table("a").name == "a"

    def test_unknown_table_raises(self, drg):
        with pytest.raises(GraphError):
            drg.table("zzz")

    def test_neighbors(self, drg):
        assert drg.neighbors("b") == ["a", "c"]

    def test_join_options_oriented(self, drg):
        options = drg.join_options("b", "a")
        assert options[0].source == "b"
        assert options[0].source_column == "id"


class TestSimilarityPruning:
    def test_best_keeps_top_score(self, tables):
        def rule(t1, t2):
            if {t1.table_name, t2.table_name} == {"a", "b"}:
                yield "id", "id", 0.9
                yield "id", "fk", 0.6

        drg = DatasetRelationGraph.from_discovery(tables, PairFake(rule), threshold=0.55)
        best = drg.best_join_options("a", "b")
        assert len(best) == 1
        assert best[0].weight == 0.9

    def test_ties_all_survive(self, tables):
        def rule(t1, t2):
            if {t1.table_name, t2.table_name} == {"a", "b"}:
                yield "id", "id", 0.8
                yield "id", "fk", 0.8

        drg = DatasetRelationGraph.from_discovery(tables, PairFake(rule), threshold=0.55)
        assert len(drg.best_join_options("a", "b")) == 2

    def test_no_options_empty(self, drg):
        assert drg.best_join_options("a", "c") == []


class TestSimpleGraphVariant:
    def test_collapse(self, tables):
        def rule(t1, t2):
            if {t1.table_name, t2.table_name} == {"a", "b"}:
                yield "id", "id", 0.9
                yield "id", "fk", 0.6

        drg = DatasetRelationGraph.from_discovery(tables, PairFake(rule), threshold=0.55)
        simple = drg.with_simple_graph()
        assert simple.n_relationships == 1
        assert drg.n_relationships == 2  # original untouched

    def test_tables_shared(self, drg):
        simple = drg.with_simple_graph()
        assert simple.table_names == drg.table_names
