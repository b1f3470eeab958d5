"""Join paths and the join-path search space (Definitions IV.2–IV.4).

A :class:`JoinPath` is a sequence of oriented edges starting at the base
table, visiting distinct nodes.  Every parallel edge in the multigraph
spawns a distinct path, so the search space grows with both path length and
join-column multiplicity — exactly the explosion AutoFeat's pruning is
designed to contain.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from math import factorial
from typing import Iterator

from ..errors import GraphError
from .multigraph import MultiGraph, OrientedEdge

__all__ = [
    "JoinPath",
    "enumerate_paths",
    "iter_paths_bfs",
    "bfs_levels",
    "join_all_path_count",
]


@dataclass(frozen=True)
class JoinPath:
    """An acyclic sequence of join hops starting from the base table."""

    base: str
    edges: tuple[OrientedEdge, ...] = field(default_factory=tuple)

    def __post_init__(self) -> None:
        current = self.base
        seen = {self.base}
        for edge in self.edges:
            if edge.source != current:
                raise GraphError(
                    f"discontinuous path: hop starts at {edge.source!r} "
                    f"but previous hop ended at {current!r}"
                )
            if edge.target in seen:
                raise GraphError(f"cyclic path: {edge.target!r} visited twice")
            seen.add(edge.target)
            current = edge.target

    @property
    def length(self) -> int:
        """Number of hops (paper: minimum meaningful length is 1)."""
        return len(self.edges)

    @property
    def nodes(self) -> tuple[str, ...]:
        """Visited datasets, base first."""
        return (self.base,) + tuple(edge.target for edge in self.edges)

    @property
    def terminal(self) -> str:
        """The dataset the path currently ends at."""
        return self.edges[-1].target if self.edges else self.base

    def extend(self, edge: OrientedEdge) -> "JoinPath":
        """A new path with one more hop appended."""
        return JoinPath(self.base, self.edges + (edge,))

    def describe(self) -> str:
        """Human-readable ``A.col -> B.col -> ...`` rendering."""
        if not self.edges:
            return self.base
        hops = [
            f"{e.source}.{e.source_column} -> {e.target}.{e.target_column}"
            for e in self.edges
        ]
        return " | ".join(hops)

    def __repr__(self) -> str:
        return f"JoinPath({self.describe()})"


def iter_paths_bfs(
    graph: MultiGraph, base: str, max_length: int = 3
) -> Iterator[JoinPath]:
    """Yield every acyclic join path from ``base`` in breadth-first order.

    Paths of length 1 are yielded before any of length 2, and so on —
    the level-at-a-time exploration the paper argues for (Section IV-A):
    data quality can be assessed after each level and errors do not
    propagate silently into deep paths.
    """
    if base not in graph:
        raise GraphError(f"base table {base!r} is not a node of the graph")
    if max_length < 1:
        raise GraphError(f"max_length must be >= 1, got {max_length}")
    queue: deque[JoinPath] = deque([JoinPath(base)])
    while queue:
        path = queue.popleft()
        if path.length >= max_length:
            continue
        visited = set(path.nodes)
        for edge in graph.edges_of(path.terminal):
            if edge.target in visited:
                continue
            extended = path.extend(edge)
            yield extended
            queue.append(extended)


def enumerate_paths(
    graph: MultiGraph, base: str, max_length: int = 3
) -> list[JoinPath]:
    """Materialised :func:`iter_paths_bfs`."""
    return list(iter_paths_bfs(graph, base, max_length))


def bfs_levels(graph: MultiGraph, base: str) -> dict[str, int]:
    """Hop distance of every reachable node from ``base``."""
    if base not in graph:
        raise GraphError(f"base table {base!r} is not a node of the graph")
    levels = {base: 0}
    queue: deque[str] = deque([base])
    while queue:
        node = queue.popleft()
        for neighbor in graph.neighbors(node):
            if neighbor not in levels:
                levels[neighbor] = levels[node] + 1
                queue.append(neighbor)
    return levels


def join_all_path_count(graph: MultiGraph, base: str) -> int:
    """Number of distinct JoinAll orderings, Equation (3) of the paper.

    P = Π_{d=0..D} Π_{v ∈ N(d)} k(v)!  where k(v) is the number of
    not-yet-visited neighbours of node v when the BFS frontier reaches it.
    This is the quantity that makes the JoinAll baseline infeasible on
    dense (data-lake) graphs.
    """
    levels = bfs_levels(graph, base)
    product = 1
    for node, level in levels.items():
        unvisited = [
            n
            for n in graph.neighbors(node)
            if levels.get(n, level + 1) > level
        ]
        product *= factorial(len(unvisited))
    return product
