"""Cross-path caching of join-hop build state.

The discovery BFS (Algorithm 1) revisits the same right-hand table on many
different join paths: every acyclic path that reaches dataset ``T`` through
key column ``k`` needs the *identical* deduped table and hash index,
because deduplication is deterministic in ``(table, key_column, seed)``.
The :class:`HopCache` memoizes that build state so it is computed once per
discovery run instead of once per frontier hop — the reuse lever
FeatNavigator and Hippasus identify as dominant for data-lake-scale
augmentation.

Correctness note: a cached :class:`~repro.dataframe.JoinIndex` is
immutable, and the representative-row choice inside
:meth:`~repro.dataframe.JoinIndex.build` depends only on the cache key, so
executing through the cache is bit-identical to rebuilding per hop
(``tests/engine/test_engine.py`` checks a cached materialisation against
per-hop ``JoinIndex.build`` + probe + attach with no cache involved).

Freshness is checked on read.  An entry stores the :class:`Table` object
it was built from, and a lookup whose table ``is not`` that object is a
miss that rebuilds the entry in place.  Tables are immutable and a lake
mutation replaces a table object, so nothing ever has to invalidate an
entry, and the cache holds at most one entry per ``(table name, key
column, seed)`` however many versions of a table come and go.

Thread safety: :class:`repro.service.DiscoveryService` shares one cache
between its request threads, so :meth:`HopCache.get_or_build` is single-flight —
concurrent probes of a cold key elect exactly one builder while the rest
wait on its result.  The counters stay *exact* under contention: each key
costs one miss and one build no matter how many workers race it, and every
other lookup is a hit — the same totals a serial traversal produces.
"""

from __future__ import annotations

import threading
from dataclasses import replace
from typing import Callable

from ..dataframe import JoinIndex, Table
from .stats import ExecutionStats

__all__ = ["HopCache"]


class HopCache:
    """Memoizes :class:`JoinIndex` objects keyed by ``(table, key, seed)``."""

    def __init__(self):
        #: ``key -> (the table the index was built from, the index)``.
        self._indexes: dict[tuple[str, str, int], tuple[Table, JoinIndex]] = {}
        self._lock = threading.Lock()
        #: Per-key build latches: present while exactly one caller builds.
        self._building: dict[tuple[str, str, int], threading.Event] = {}
        #: Cache-lifetime counters (``cache_hits`` / ``cache_misses`` /
        #: ``index_builds``), moved under ``_lock`` beside the per-run
        #: record a caller passes in.
        self._counters = ExecutionStats()

    def __len__(self) -> int:
        return len(self._indexes)

    def __contains__(self, key: tuple[str, str, int]) -> bool:
        return key in self._indexes

    def counters(self) -> ExecutionStats:
        """A copy of the cache-lifetime counters."""
        with self._lock:
            return replace(self._counters)

    def get_or_build(
        self,
        table: Table,
        key_column: str,
        seed: int,
        builder: Callable[[], JoinIndex],
        stats: ExecutionStats | None = None,
    ) -> JoinIndex:
        """Return the index built from ``table``, building it on first use.

        ``builder`` is only invoked on a miss, so callers can defer *all*
        build-side work — including column prefixing — behind it.  ``stats``
        counters are updated in place: ``cache_hits`` on a hit,
        ``cache_misses`` and ``index_builds`` on a miss.  A stored entry
        built from another object of the same name is a miss, and the
        rebuild replaces it.

        Single-flight under threads: concurrent calls for the same cold key
        run ``builder`` exactly once; the losers block until the winner
        publishes the index and then look it up again.  If the winner's
        builder raises, the waiters retry the lookup themselves (one becomes
        the new builder and surfaces the same deterministic error), which
        matches the serial counter sequence for failing builds exactly.
        """
        key = (table.name, key_column, seed)
        records = (self._counters,) if stats is None else (self._counters, stats)
        while True:
            with self._lock:
                cached = self._indexes.get(key)
                if cached is not None and cached[0] is table:
                    for record in records:
                        record.cache_hits += 1
                    return cached[1]
                event = self._building.get(key)
                if event is None:
                    event = threading.Event()
                    self._building[key] = event
                    # Counters move under the lock, and only for the
                    # elected builder — one miss + one build per cold key.
                    for record in records:
                        record.cache_misses += 1
                        record.index_builds += 1
                    break
            event.wait()
        try:
            index = builder()
        except BaseException:
            with self._lock:
                self._building.pop(key, None)
            event.set()
            raise
        with self._lock:
            self._indexes[key] = (table, index)
            self._building.pop(key, None)
        event.set()
        return index
