"""Property-based tests for the multigraph and path enumeration."""

import networkx as nx
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.graph import MultiGraph, bfs_levels, enumerate_paths, iter_paths_bfs


@st.composite
def random_multigraph(draw):
    """A small random multigraph plus its networkx shadow."""
    n_nodes = draw(st.integers(min_value=2, max_value=6))
    names = [f"n{i}" for i in range(n_nodes)]
    g = MultiGraph()
    shadow = nx.MultiGraph()
    for name in names:
        g.add_node(name)
        shadow.add_node(name)
    n_edges = draw(st.integers(min_value=1, max_value=10))
    for e in range(n_edges):
        a = draw(st.integers(min_value=0, max_value=n_nodes - 1))
        b = draw(st.integers(min_value=0, max_value=n_nodes - 1))
        if a == b:
            continue
        col = f"c{e}"
        g.add_edge(names[a], names[b], col, col, 1.0)
        shadow.add_edge(names[a], names[b], key=col)
    return g, shadow


@given(random_multigraph())
@settings(max_examples=60)
def test_edge_count_matches_shadow(pair):
    g, shadow = pair
    assert g.n_edges == shadow.number_of_edges()


@given(random_multigraph())
@settings(max_examples=60)
def test_neighbors_match_shadow(pair):
    g, shadow = pair
    for node in g.nodes:
        assert set(g.neighbors(node)) == set(shadow.neighbors(node))


@given(random_multigraph())
@settings(max_examples=60)
def test_bfs_levels_match_shortest_paths(pair):
    g, shadow = pair
    source = g.nodes[0]
    ours = bfs_levels(g, source)
    theirs = nx.single_source_shortest_path_length(shadow, source)
    assert ours == dict(theirs)


@given(random_multigraph(), st.integers(min_value=1, max_value=4))
@settings(max_examples=40, deadline=None)
def test_paths_are_acyclic_and_bounded(pair, max_length):
    g, __ = pair
    source = g.nodes[0]
    for path in iter_paths_bfs(g, source, max_length=max_length):
        assert 1 <= path.length <= max_length
        assert len(set(path.nodes)) == len(path.nodes)
        assert path.base == source


@given(random_multigraph())
@settings(max_examples=40, deadline=None)
def test_path_multiset_unique(pair):
    """No join path is enumerated twice (edges included in identity)."""
    g, __ = pair
    source = g.nodes[0]
    seen = set()
    for path in iter_paths_bfs(g, source, max_length=4):
        key = tuple(e.key for e in path.edges)
        assert key not in seen
        seen.add(key)


@given(random_multigraph())
@settings(max_examples=40, deadline=None)
def test_simple_graph_never_more_paths(pair):
    g, __ = pair
    source = g.nodes[0]
    assert len(enumerate_paths(g.simple_graph(), source, 3)) <= len(enumerate_paths(g, source, 3))
