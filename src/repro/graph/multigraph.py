"""A weighted undirected multigraph over datasets.

The Dataset Relation Graph needs parallel edges: two tables can be joinable
through several different column pairs, each with its own similarity score
(Definition IV.3).  Nodes are dataset names; each edge records the join
column on *both* endpoints plus a weight in (0, 1].

Edges are stored once and exposed through :class:`OrientedEdge` views so
traversal code always sees "my column -> their column" from the perspective
of the node it stands on.  Each node's edges are kept sorted by
``(target, source_column, target_column)``, so no ranking follows listing order.
"""

from __future__ import annotations

import bisect
from dataclasses import dataclass
from operator import attrgetter

from ..errors import GraphError

__all__ = ["Edge", "OrientedEdge", "MultiGraph"]


@dataclass(frozen=True)
class Edge:
    """An undirected join opportunity between two datasets."""

    node_a: str
    node_b: str
    column_a: str
    column_b: str
    weight: float

    def oriented_from(self, node: str) -> "OrientedEdge":
        """View this edge from ``node``'s side."""
        if node == self.node_a:
            return OrientedEdge(
                source=self.node_a,
                target=self.node_b,
                source_column=self.column_a,
                target_column=self.column_b,
                weight=self.weight,
            )
        if node == self.node_b:
            return OrientedEdge(
                source=self.node_b,
                target=self.node_a,
                source_column=self.column_b,
                target_column=self.column_a,
                weight=self.weight,
            )
        raise GraphError(f"edge {self} is not incident to node {node!r}")


@dataclass(frozen=True)
class OrientedEdge:
    """An edge as seen while standing on ``source`` and looking at ``target``."""

    source: str
    target: str
    source_column: str
    target_column: str
    weight: float

    @property
    def key(self) -> tuple[str, str, str, str]:
        """Identity of the underlying join opportunity, direction-free."""
        forward = (self.source, self.source_column, self.target, self.target_column)
        backward = (self.target, self.target_column, self.source, self.source_column)
        return min(forward, backward)


def _order_from(node: str):
    """The sort key of ``node``'s adjacency list: ``(target, source_column,
    target_column)`` as seen from ``node``."""
    forward = attrgetter("node_b", "column_a", "column_b")
    backward = attrgetter("node_a", "column_b", "column_a")
    return lambda edge: forward(edge) if edge.node_a == node else backward(edge)


class MultiGraph:
    """Adjacency-list multigraph keyed by dataset name."""

    def __init__(self) -> None:
        self._adjacency: dict[str, list[Edge]] = {}

    # -- construction -------------------------------------------------------

    def add_node(self, name: str) -> None:
        """Register a dataset node (idempotent)."""
        if not name:
            raise GraphError("node name must be non-empty")
        self._adjacency.setdefault(name, [])

    def add_edge(
        self,
        node_a: str,
        node_b: str,
        column_a: str,
        column_b: str,
        weight: float = 1.0,
    ) -> Edge:
        """Add a join opportunity between two existing nodes.

        Parallel edges with different column pairs are allowed; adding the
        exact same (nodes, columns) pair twice keeps the higher weight
        instead of duplicating.
        """
        for node in (node_a, node_b):
            if node not in self._adjacency:
                raise GraphError(f"unknown node {node!r}; add_node it first")
        if node_a == node_b:
            raise GraphError(f"self-join edges are not allowed (node {node_a!r})")
        if not 0.0 < weight <= 1.0:
            raise GraphError(f"edge weight must be in (0, 1], got {weight}")

        edge = Edge(node_a, node_b, column_a, column_b, weight)
        existing = self._find_duplicate(edge)
        if existing is not None:
            if weight > existing.weight:
                self._remove_edge(existing)
            else:
                return existing
        for node in (node_a, node_b):
            bisect.insort(self._adjacency[node], edge, key=_order_from(node))
        return edge

    def _find_duplicate(self, edge: Edge) -> Edge | None:
        # Seen from one endpoint, the sort key is the edge's identity.
        order, edges = _order_from(edge.node_a), self._adjacency[edge.node_a]
        at = bisect.bisect_left(edges, order(edge), key=order)
        if at < len(edges) and order(edges[at]) == order(edge):
            return edges[at]
        return None

    def _remove_edge(self, edge: Edge) -> None:
        self._adjacency[edge.node_a].remove(edge)
        self._adjacency[edge.node_b].remove(edge)

    # -- queries -------------------------------------------------------------

    @property
    def nodes(self) -> list[str]:
        """Dataset names in insertion order."""
        return list(self._adjacency.keys())

    @property
    def n_edges(self) -> int:
        """Number of distinct undirected edges."""
        return sum(len(edges) for edges in self._adjacency.values()) // 2

    def __contains__(self, name: str) -> bool:
        return name in self._adjacency

    def edges_of(self, node: str) -> list[OrientedEdge]:
        """All incident edges oriented outward from ``node``, sorted by
        ``(target, source_column, target_column)``."""
        if node not in self._adjacency:
            raise GraphError(f"unknown node {node!r}")
        return [edge.oriented_from(node) for edge in self._adjacency[node]]

    def neighbors(self, node: str) -> list[str]:
        """Distinct adjacent nodes, in name order."""
        seen: dict[str, None] = {}
        for oriented in self.edges_of(node):
            seen.setdefault(oriented.target)
        return list(seen.keys())

    def edges_between(self, node_a: str, node_b: str) -> list[OrientedEdge]:
        """All parallel edges between two nodes, oriented from ``node_a``."""
        return [e for e in self.edges_of(node_a) if e.target == node_b]

    def all_edges(self) -> list[Edge]:
        """Every undirected edge exactly once, deterministic order."""
        seen: set[tuple[str, str, str, str]] = set()
        out: list[Edge] = []
        for node in self._adjacency:
            for edge in self._adjacency[node]:
                key = edge.oriented_from(edge.node_a).key
                if key not in seen:
                    seen.add(key)
                    out.append(edge)
        return out

    def simple_graph(self) -> "MultiGraph":
        """Collapse parallel edges, keeping only the heaviest per node pair.

        This is the "simple graph" DRG variant that ARDA/MAB assume
        (Table I); used by the multigraph-vs-simple ablation.
        """
        collapsed = MultiGraph()
        for node in self.nodes:
            collapsed.add_node(node)
        best: dict[tuple[str, str], Edge] = {}
        for edge in self.all_edges():
            pair = tuple(sorted((edge.node_a, edge.node_b)))
            current = best.get(pair)
            if current is None or edge.weight > current.weight:
                best[pair] = edge
        for edge in best.values():
            collapsed.add_edge(
                edge.node_a, edge.node_b, edge.column_a, edge.column_b, edge.weight
            )
        return collapsed

    def __repr__(self) -> str:
        return f"MultiGraph(nodes={len(self._adjacency)}, edges={self.n_edges})"
