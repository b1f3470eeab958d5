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
:func:`~repro.dataframe.dedup_by_key` depends only on the cache key, so
executing through the cache is bit-identical to rebuilding per hop
(``tests/engine/test_engine.py`` checks a cached materialisation against
per-hop ``JoinIndex.build`` + ``left_join`` with no cache involved).

Thread safety: :class:`repro.service.DiscoveryService` shares one cache
between its request threads, so :meth:`HopCache.get_or_build` is single-flight —
concurrent probes of a cold key elect exactly one builder while the rest
wait on its result.  The counters stay *exact* under contention: each key
costs one miss and one build no matter how many workers race it, and every
other lookup is a hit — the same totals a serial traversal produces.
"""

from __future__ import annotations

import threading
from typing import Callable

from ..dataframe import JoinIndex
from .stats import ExecutionStats

__all__ = ["HopCache"]


class HopCache:
    """Memoizes :class:`JoinIndex` objects keyed by ``(table, key, seed)``."""

    def __init__(self):
        self._indexes: dict[tuple[str, str, int], JoinIndex] = {}
        self._lock = threading.Lock()
        #: Per-key build latches: present while exactly one caller builds.
        self._building: dict[tuple[str, str, int], threading.Event] = {}
        #: Per-table invalidation epochs: a builder that started before an
        #: :meth:`invalidate` of its table publishes nothing (its caller
        #: still gets the index it built — that request began against the
        #: pre-mutation snapshot — but the stale index never enters the
        #: cache).
        self._epochs: dict[str, int] = {}
        #: Cumulative cache-lifetime counters (exact under concurrency:
        #: every update happens under ``_lock``).  Distinct from the
        #: per-run :class:`ExecutionStats` callers pass in — these span the
        #: cache's whole life, which is what a long-lived service's
        #: warm-hit-rate gauge reports.
        self._counters = {
            "hits": 0,
            "misses": 0,
            "builds": 0,
            "invalidations": 0,
            "entries_invalidated": 0,
        }

    def __len__(self) -> int:
        return len(self._indexes)

    def __contains__(self, key: tuple[str, str, int]) -> bool:
        return key in self._indexes

    def counters(self) -> dict[str, int]:
        """Snapshot of the cache-lifetime counters."""
        with self._lock:
            return dict(self._counters)

    @property
    def hit_rate(self) -> float:
        """Lifetime hits over lookups (0.0 before any lookup)."""
        with self._lock:
            lookups = self._counters["hits"] + self._counters["misses"]
            return self._counters["hits"] / lookups if lookups else 0.0

    def clear(self) -> None:
        """Drop every cached index (e.g. between unrelated discovery runs)."""
        with self._lock:
            for table_name in {key[0] for key in self._indexes}:
                self._epochs[table_name] = self._epochs.get(table_name, 0) + 1
            self._indexes.clear()

    def invalidate(self, table_name: str) -> int:
        """Surgically drop every entry built from ``table_name``.

        The per-table mutation hook of the always-on service: an
        ``update_table``/``drop_table`` only stales the indexes built
        *from that table's rows* — entries for every other table (any
        key column, any seed) stay warm.  Returns the number of entries
        dropped.

        Safe under concurrency: the table's epoch is bumped under the
        lock, so a builder elected *before* the invalidation completes
        its build but never publishes — waiters retry and rebuild
        against whatever the caller's builder closure now reads.
        """
        with self._lock:
            doomed = [key for key in self._indexes if key[0] == table_name]
            for key in doomed:
                del self._indexes[key]
            self._epochs[table_name] = self._epochs.get(table_name, 0) + 1
            self._counters["invalidations"] += 1
            self._counters["entries_invalidated"] += len(doomed)
        return len(doomed)

    def get_or_build(
        self,
        table_name: str,
        key_column: str,
        seed: int,
        builder: Callable[[], JoinIndex],
        stats: ExecutionStats | None = None,
    ) -> JoinIndex:
        """Return the cached index for the key, building it on first use.

        ``builder`` is only invoked on a miss, so callers can defer *all*
        build-side work — including column prefixing — behind it.  ``stats``
        counters are updated in place: ``cache_hits`` on a hit,
        ``cache_misses`` and ``index_builds`` on a miss.

        Single-flight under threads: concurrent calls for the same cold key
        run ``builder`` exactly once; the losers block until the winner
        publishes the index and then count an ordinary hit.  If the winner's
        builder raises, the waiters retry the lookup themselves (one becomes
        the new builder and surfaces the same deterministic error), which
        matches the serial counter sequence for failing builds exactly.
        """
        key = (table_name, key_column, seed)
        while True:
            with self._lock:
                cached = self._indexes.get(key)
                if cached is not None:
                    if stats is not None:
                        stats.cache_hits += 1
                    self._counters["hits"] += 1
                    return cached
                event = self._building.get(key)
                if event is None:
                    event = threading.Event()
                    self._building[key] = event
                    # Counters move under the lock, and only for the
                    # elected builder — one miss + one build per cold key.
                    if stats is not None:
                        stats.cache_misses += 1
                        stats.index_builds += 1
                    self._counters["misses"] += 1
                    self._counters["builds"] += 1
                    epoch = self._epochs.get(table_name, 0)
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
            # Publish only if the table was not invalidated mid-build;
            # the caller still gets the index it built either way.
            if self._epochs.get(table_name, 0) == epoch:
                self._indexes[key] = index
            self._building.pop(key, None)
        event.set()
        return index
