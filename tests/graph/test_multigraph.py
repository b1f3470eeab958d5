"""Unit tests for the weighted undirected multigraph."""

import pytest

from repro.errors import GraphError
from repro.graph import MultiGraph


@pytest.fixture
def graph():
    g = MultiGraph()
    for name in ("a", "b", "c"):
        g.add_node(name)
    g.add_edge("a", "b", "x", "y", 0.9)
    g.add_edge("a", "b", "x2", "y2", 0.7)  # parallel edge
    g.add_edge("b", "c", "k", "k", 1.0)
    return g


class TestConstruction:
    def test_counts(self, graph):
        assert len(graph.nodes) == 3
        assert graph.n_edges == 3

    def test_add_node_idempotent(self, graph):
        graph.add_node("a")
        assert len(graph.nodes) == 3

    def test_empty_node_name_raises(self):
        with pytest.raises(GraphError):
            MultiGraph().add_node("")

    def test_edge_to_unknown_node_raises(self, graph):
        with pytest.raises(GraphError):
            graph.add_edge("a", "zzz", "x", "y", 0.5)

    def test_self_loop_raises(self, graph):
        with pytest.raises(GraphError):
            graph.add_edge("a", "a", "x", "y", 0.5)

    def test_invalid_weight_raises(self, graph):
        with pytest.raises(GraphError):
            graph.add_edge("a", "c", "x", "y", 0.0)
        with pytest.raises(GraphError):
            graph.add_edge("a", "c", "x", "y", 1.5)

    def test_duplicate_edge_keeps_max_weight(self, graph):
        graph.add_edge("a", "b", "x", "y", 0.5)  # lower than existing 0.9
        edges = graph.edges_between("a", "b")
        weights = {(e.source_column, e.target_column): e.weight for e in edges}
        assert weights[("x", "y")] == 0.9
        graph.add_edge("a", "b", "x", "y", 0.95)
        edges = graph.edges_between("a", "b")
        weights = {(e.source_column, e.target_column): e.weight for e in edges}
        assert weights[("x", "y")] == 0.95
        assert graph.n_edges == 3

    def test_duplicate_detected_from_either_direction(self, graph):
        graph.add_edge("b", "a", "y", "x", 0.8)  # same edge, reversed
        assert graph.n_edges == 3


class TestQueries:
    def test_contains(self, graph):
        assert "a" in graph
        assert "z" not in graph

    def test_neighbors(self, graph):
        assert graph.neighbors("a") == ["b"]
        assert set(graph.neighbors("b")) == {"a", "c"}

    def test_edges_of_orientation(self, graph):
        for edge in graph.edges_of("b"):
            assert edge.source == "b"

    def test_oriented_columns_flip(self, graph):
        edge = graph.edges_between("b", "a")[0]
        assert edge.source_column in ("y", "y2")
        assert edge.target_column in ("x", "x2")

    def test_degree_counts_parallel(self, graph):
        assert len(graph.edges_of("a")) == 2

    def test_edges_between_empty(self, graph):
        assert graph.edges_between("a", "c") == []

    def test_unknown_node_raises(self, graph):
        with pytest.raises(GraphError):
            graph.edges_of("zzz")

    def test_all_edges_each_once(self, graph):
        assert len(graph.all_edges()) == 3

    def test_oriented_from_non_incident_raises(self, graph):
        edge = graph.all_edges()[0]
        with pytest.raises(GraphError):
            edge.oriented_from("c" if edge.node_a != "c" and edge.node_b != "c" else "zzz")


class TestSimpleGraph:
    def test_collapses_parallel_edges(self, graph):
        simple = graph.simple_graph()
        assert simple.n_edges == 2
        assert len(simple.edges_between("a", "b")) == 1

    def test_keeps_heaviest(self, graph):
        simple = graph.simple_graph()
        edge = simple.edges_between("a", "b")[0]
        assert edge.weight == 0.9

    def test_original_untouched(self, graph):
        graph.simple_graph()
        assert graph.n_edges == 3

    def test_repr(self, graph):
        assert "nodes=3" in repr(graph)
