"""Shared immutable state of the always-on discovery service.

The service never mutates a DRG in place: every lake mutation replays the
stored pair matches into a fresh DRG and publishes it as a new
:class:`LakeSnapshot`, while requests already executing keep the snapshot
they started with: a run never sees another's writes.

Nothing derived from a snapshot is invalidated when the next one is
published.  A cached result is instead checked on read against its
:class:`Envelope`, the part of the lake its traversal can observe.  A
discovery traversal from ``base`` under hop budget ``L`` never expands a
path of length ``L``, so every table it reads lies within ``L`` hops of
``base`` and every edge it walks joins two such tables, read in adjacency
order.  Two snapshots with equal envelopes therefore give bit-identical
answers, and a lookup is a hit iff the stored envelope equals the
current one; the property suite in
``tests/service/test_incremental_equivalence.py`` checks served hits
against a cold rebuild.  Tables compare by identity: a table is immutable
and a mutation replaces the object, so ``is`` is exact and O(1).
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from dataclasses import dataclass, field

from ..core.result import AugmentationResult, DiscoveryResult
from ..dataframe import Table
from ..graph import DatasetRelationGraph, OrientedEdge

__all__ = [
    "RESULT_ENTRIES",
    "Envelope",
    "LakeSnapshot",
    "ResultStore",
    "reachable_within",
]

#: Results the service keeps (LRU).  An ``augment`` result carries its
#: augmented table and pickles to ≈ 0.9 MB on the ``service_mixed`` lake,
#: so the bound caps the store near 60 MB on a lake that size, while a
#: client cycling through a few dozen request configs still hits (the
#: e2e service workload uses 6).
RESULT_ENTRIES = 64


def reachable_within(
    drg: DatasetRelationGraph, base: str, max_hops: int
) -> frozenset[str]:
    """Tables within ``max_hops`` edges of ``base`` (``base`` included).

    The discovery BFS enumerates paths of at most ``max_path_length``
    edges, so this is a superset of every table any ranked path — or any
    pruned attempt — can touch.
    """
    if base not in drg.graph:
        return frozenset()
    seen = {base}
    frontier = [base]
    for _ in range(max_hops):
        grown: list[str] = []
        for node in frontier:
            for neighbor in drg.neighbors(node):
                if neighbor not in seen:
                    seen.add(neighbor)
                    grown.append(neighbor)
        if not grown:
            break
        frontier = grown
    return frozenset(seen)


@dataclass(frozen=True)
class LakeSnapshot:
    """One immutable version of the lake: the DRG plus its version stamp."""

    version: int
    drg: DatasetRelationGraph
    #: ``(base, max_hops) -> Envelope``, derived from this snapshot only.
    _envelopes: dict = field(
        default_factory=dict, init=False, repr=False, compare=False
    )

    @property
    def n_tables(self) -> int:
        return self.drg.n_tables

    def envelope(self, base: str, max_hops: int) -> "Envelope":
        """:meth:`Envelope.of` this snapshot, computed once per argument
        pair (two racing readers both compute it and store equal values)."""
        key = (base, max_hops)
        envelope = self._envelopes.get(key)
        if envelope is None:
            envelope = self._envelopes[key] = Envelope.of(self.drg, base, max_hops)
        return envelope


@dataclass(frozen=True, eq=False)
class Envelope:
    """What a traversal from ``base`` under hop budget ``L`` can observe.

    ``tables`` are the tables within ``L`` hops of ``base`` in canonical
    order; ``edges`` are every edge among them, node by node in adjacency
    order.  Equality is identity on the tables and value on the edges.
    """

    tables: tuple[Table, ...]
    edges: tuple[OrientedEdge, ...]

    @classmethod
    def of(cls, drg: DatasetRelationGraph, base: str, max_hops: int) -> "Envelope":
        reach = reachable_within(drg, base, max_hops)
        names = [name for name in drg.table_names if name in reach]
        return cls(
            tables=tuple(drg.table(name) for name in names),
            edges=tuple(
                edge
                for name in names
                for edge in drg.graph.edges_of(name)
                if edge.target in reach
            ),
        )

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Envelope):
            return NotImplemented
        return self is other or (
            len(self.tables) == len(other.tables)
            and all(a is b for a, b in zip(self.tables, other.tables))
            and self.edges == other.edges
        )


class ResultStore:
    """Bounded, thread-safe map from a request key to the last result
    computed for it and the :class:`Envelope` it was computed on."""

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._entries: OrderedDict[
            tuple, tuple[Envelope, DiscoveryResult | AugmentationResult]
        ] = OrderedDict()

    def __len__(self) -> int:
        with self._lock:
            return len(self._entries)

    def get(self, key: tuple, envelope: Envelope):
        """The stored result if it was computed on ``envelope``, else None."""
        with self._lock:
            entry = self._entries.get(key)
            if entry is None or entry[0] != envelope:
                return None
            self._entries.move_to_end(key)
            return entry[1]

    def put(self, key: tuple, envelope: Envelope, result) -> None:
        """Store ``result``, replacing whatever ``key`` held."""
        with self._lock:
            self._entries[key] = (envelope, result)
            self._entries.move_to_end(key)
            while len(self._entries) > RESULT_ENTRIES:
                self._entries.popitem(last=False)
