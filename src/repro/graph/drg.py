"""The Dataset Relation Graph (DRG) — the paper's offline component.

The DRG couples the table collection with a weighted multigraph of join
opportunities.  It is built in one of two ways, mirroring the paper's two
experimental settings:

* **benchmark setting** — from known key/foreign-key constraints, each
  ingested as an edge with weight 1 (:meth:`DatasetRelationGraph.from_constraints`);
* **data-lake setting** — by running a schema-matching dataset-discovery
  algorithm over every table pair and keeping matches above a similarity
  threshold (:meth:`DatasetRelationGraph.from_discovery`).  Any matcher
  with the lake pass of :mod:`repro.discovery` (``match_lake(tables,
  floor)``) can be plugged in.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations
from typing import Iterable, Sequence

from ..dataframe import Table
from ..errors import GraphError
from ..obs import NULL_TRACER
from .multigraph import MultiGraph, OrientedEdge

__all__ = ["KFKConstraint", "DatasetRelationGraph"]


@dataclass(frozen=True)
class KFKConstraint:
    """A known key/foreign-key relationship between two datasets."""

    table_a: str
    column_a: str
    table_b: str
    column_b: str


class DatasetRelationGraph:
    """Tables plus the multigraph of join opportunities between them."""

    def __init__(self, tables: Sequence[Table]):
        self._tables: dict[str, Table] = {}
        self._graph = MultiGraph()
        for table in tables:
            if not table.name:
                raise GraphError("every table in a DRG needs a non-empty name")
            if table.name in self._tables:
                raise GraphError(f"duplicate table name {table.name!r}")
            self._tables[table.name] = table
            self._graph.add_node(table.name)

    # -- construction -------------------------------------------------------

    @classmethod
    def from_constraints(
        cls,
        tables: Sequence[Table],
        constraints: Iterable[KFKConstraint],
    ) -> "DatasetRelationGraph":
        """Benchmark setting: ingest integrity constraints as weight-1 edges."""
        drg = cls(tables)
        for constraint in constraints:
            drg.add_relationship(
                constraint.table_a,
                constraint.column_a,
                constraint.table_b,
                constraint.column_b,
                weight=1.0,
            )
        return drg

    @classmethod
    def from_discovery(
        cls,
        tables: Sequence[Table],
        matcher,
        threshold: float = 0.55,
        tracer=NULL_TRACER,
    ) -> "DatasetRelationGraph":
        """Data-lake setting: discover edges with a schema matcher.

        Every unordered table pair is matched once; matches whose score is
        at or above ``threshold`` become edges weighted by that score.  The
        paper's default threshold of 0.55 deliberately lets spurious (but
        not absurd) connections through — AutoFeat's pruning is supposed to
        handle them.

        ``matcher.match_lake(tables, floor)`` scores the whole lake in one
        pass and returns a :class:`~repro.discovery.coma.LakeMatches`,
        whose pairs are read in ``combinations`` order; traversal and
        ranking do not follow it, since every adjacency list is kept
        sorted (:class:`~repro.graph.multigraph.MultiGraph`).  The
        matcher is handed ``threshold`` as its floor, so it may skip
        whatever cannot become an edge; the check here stays, so a
        matcher that ignores the floor is still correct.
        """
        if not 0.0 < threshold <= 1.0:
            raise GraphError(f"threshold must be in (0, 1], got {threshold}")
        drg = cls(tables)
        pairs = list(combinations(range(len(tables)), 2))
        with tracer.span(
            "drg.match", tables=len(tables), table_pairs=len(pairs)
        ):
            lake = matcher.match_lake(tables, threshold)
            for i, j in pairs:
                for match in lake[i, j]:
                    if match.score >= threshold:
                        drg.add_relationship(
                            tables[i].name, match.column_a,
                            tables[j].name, match.column_b,
                            weight=match.score,
                        )
        return drg

    def add_relationship(
        self,
        table_a: str,
        column_a: str,
        table_b: str,
        column_b: str,
        weight: float,
    ) -> None:
        """Add one join opportunity, validating both endpoints exist."""
        for table_name, column_name in ((table_a, column_a), (table_b, column_b)):
            table = self.table(table_name)
            if column_name not in table:
                raise GraphError(
                    f"table {table_name!r} has no column {column_name!r}"
                )
        self._graph.add_edge(table_a, table_b, column_a, column_b, weight)

    def edge_fingerprint(self) -> tuple[tuple[str, str, str, str, float], ...]:
        """Canonical, order-independent digest of every edge and weight.

        Used by the incremental-vs-rebuild equivalence gates: two DRGs
        over the same lake are equivalent iff their fingerprints (and
        table orders) match.
        """
        rows = []
        for edge in self._graph.all_edges():
            forward = (edge.node_a, edge.column_a, edge.node_b, edge.column_b)
            backward = (edge.node_b, edge.column_b, edge.node_a, edge.column_a)
            rows.append(min(forward, backward) + (edge.weight,))
        return tuple(sorted(rows))

    # -- queries -------------------------------------------------------------

    @property
    def graph(self) -> MultiGraph:
        """The underlying multigraph."""
        return self._graph

    @property
    def table_names(self) -> list[str]:
        return list(self._tables.keys())

    @property
    def n_tables(self) -> int:
        return len(self._tables)

    @property
    def n_relationships(self) -> int:
        return self._graph.n_edges

    def table(self, name: str) -> Table:
        """Look up a dataset by name."""
        try:
            return self._tables[name]
        except KeyError:
            raise GraphError(
                f"unknown table {name!r}; known: {self.table_names}"
            ) from None

    def neighbors(self, name: str) -> list[str]:
        """Datasets joinable with ``name`` through at least one edge."""
        return self._graph.neighbors(name)

    def join_options(self, table_a: str, table_b: str) -> list[OrientedEdge]:
        """All parallel join opportunities between two datasets."""
        return self._graph.edges_between(table_a, table_b)

    def best_join_options(self, table_a: str, table_b: str) -> list[OrientedEdge]:
        """Similarity-score pruning at the join-column level (Section IV-C).

        Keeps only the edge(s) with the maximum similarity score between
        the two datasets; ties all survive, each as its own join path.
        """
        options = self.join_options(table_a, table_b)
        if not options:
            return []
        top = max(edge.weight for edge in options)
        return [edge for edge in options if edge.weight == top]

    def with_simple_graph(self) -> "DatasetRelationGraph":
        """A copy whose multigraph is collapsed to a simple graph.

        Used by the multigraph-vs-simple-graph ablation (Table I contrasts
        AutoFeat's multigraph with the simple graphs of ARDA/MAB).
        """
        clone = DatasetRelationGraph(list(self._tables.values()))
        clone._graph = self._graph.simple_graph()
        return clone

    def __repr__(self) -> str:
        return (
            f"DatasetRelationGraph(tables={self.n_tables}, "
            f"relationships={self.n_relationships})"
        )
