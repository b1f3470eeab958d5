"""Unit tests for join-path enumeration and Equation 3."""

from math import factorial

import networkx as nx
import pytest

from repro.errors import GraphError
from repro.graph import (
    JoinPath,
    MultiGraph,
    bfs_levels,
    enumerate_paths,
    join_all_path_count,
)


def chain_graph(n: int) -> MultiGraph:
    g = MultiGraph()
    for i in range(n):
        g.add_node(f"t{i}")
    for i in range(n - 1):
        g.add_edge(f"t{i}", f"t{i+1}", "k", "k", 1.0)
    return g


def star_graph(leaves: int) -> MultiGraph:
    g = MultiGraph()
    g.add_node("hub")
    for i in range(leaves):
        g.add_node(f"l{i}")
        g.add_edge("hub", f"l{i}", "k", "k", 1.0)
    return g


@pytest.fixture
def multi():
    g = MultiGraph()
    for n in ("a", "b", "c"):
        g.add_node(n)
    g.add_edge("a", "b", "x", "y", 0.9)
    g.add_edge("a", "b", "x2", "y2", 0.8)
    g.add_edge("b", "c", "k", "k", 1.0)
    return g


class TestJoinPath:
    def test_empty_path(self):
        path = JoinPath("a")
        assert path.length == 0
        assert path.terminal == "a"
        assert path.nodes == ("a",)

    def test_extend(self, multi):
        edge = multi.edges_between("a", "b")[0]
        path = JoinPath("a").extend(edge)
        assert path.length == 1
        assert path.terminal == "b"

    def test_discontinuous_raises(self, multi):
        edge = multi.edges_between("b", "c")[0]
        with pytest.raises(GraphError):
            JoinPath("a", (edge,))

    def test_cycle_raises(self, multi):
        ab = multi.edges_between("a", "b")[0]
        ba = multi.edges_between("b", "a")[0]
        with pytest.raises(GraphError):
            JoinPath("a", (ab, ba))

    def test_describe(self, multi):
        edge = multi.edges_between("a", "b")[0]
        text = JoinPath("a").extend(edge).describe()
        assert "a.x -> b.y" == text


class TestEnumeration:
    def test_chain_counts(self):
        g = chain_graph(4)
        assert len(enumerate_paths(g, "t0", max_length=3)) == 3

    def test_multi_edges_multiply_paths(self, multi):
        paths = enumerate_paths(multi, "a", max_length=1)
        assert len(paths) == 2  # two parallel a-b edges

    def test_two_hops_through_parallel_edges(self, multi):
        paths = enumerate_paths(multi, "a", max_length=2)
        # 2 one-hop paths + 2 two-hop continuations to c.
        assert len(paths) == 4

    def test_bfs_order_by_level(self, multi):
        lengths = [p.length for p in enumerate_paths(multi, "a", max_length=2)]
        assert lengths == sorted(lengths)

    def test_acyclic(self):
        g = chain_graph(3)
        g.add_edge("t0", "t2", "z", "z", 1.0)  # triangle
        for path in enumerate_paths(g, "t0", max_length=3):
            assert len(set(path.nodes)) == len(path.nodes)

    def test_unknown_base_raises(self, multi):
        with pytest.raises(GraphError):
            enumerate_paths(multi, "zzz")

    def test_invalid_length_raises(self, multi):
        with pytest.raises(GraphError):
            enumerate_paths(multi, "a", max_length=0)

    def test_matches_networkx_simple_paths(self):
        # Cross-check path counts against networkx on a random simple graph.
        gnx = nx.gnp_random_graph(7, 0.45, seed=4)
        g = MultiGraph()
        for node in gnx.nodes:
            g.add_node(f"n{node}")
        for u, v in gnx.edges:
            g.add_edge(f"n{u}", f"n{v}", "k", "k", 1.0)
        ours = len(enumerate_paths(g, "n0", max_length=6))
        theirs = sum(
            1
            for target in gnx.nodes
            if target != 0
            for __ in nx.all_simple_paths(gnx, 0, target, cutoff=6)
        )
        assert ours == theirs


class TestBfsLevels:
    def test_chain_levels(self):
        levels = bfs_levels(chain_graph(4), "t0")
        assert levels == {"t0": 0, "t1": 1, "t2": 2, "t3": 3}

    def test_unreachable_nodes_absent(self):
        g = chain_graph(2)
        g.add_node("island")
        assert "island" not in bfs_levels(g, "t0")

    def test_unknown_base_raises(self):
        with pytest.raises(GraphError):
            bfs_levels(chain_graph(2), "zzz")


class TestJoinAllCount:
    def test_star_is_factorial(self):
        g = star_graph(5)
        assert join_all_path_count(g, "hub") == factorial(5)

    def test_chain_is_one(self):
        assert join_all_path_count(chain_graph(5), "t0") == 1

    def test_school_like_explosion(self):
        # The paper's school dataset: star schema with 15 satellites -> 15!.
        assert join_all_path_count(star_graph(15), "hub") == factorial(15)

    def test_two_level_tree(self):
        g = star_graph(3)
        g.add_node("deep")
        g.add_edge("l0", "deep", "k", "k", 1.0)
        # hub has 3 unvisited neighbours, l0 has 1 -> 3! * 1! = 6.
        assert join_all_path_count(g, "hub") == 6
