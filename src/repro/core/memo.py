"""One content-addressed outcome memo for a long-lived owner.

Two steps of Algorithm 1 are pure functions of bytes a long-lived
:class:`repro.service.DiscoveryService` sees again and again across
requests:

* ``selection`` — one :meth:`StreamingFeatureSelector.process_batch`
  step, keyed by (config, label, accepted features, batch);
* ``train`` — one top-k fit, keyed by :func:`repro.ml.fit_key` over
  exactly the arguments :func:`repro.ml.evaluate_accuracy` receives.

:class:`OutcomeMemo` stores both, each namespace in its own bounded LRU,
so one block's selection churn cannot evict fit outcomes.  The key is a
digest of the bytes a step reads, so an entry can never go stale and
there is nothing to invalidate (DESIGN.md §12).  Without a memo nothing
is hashed.
"""

from __future__ import annotations

import hashlib
import threading
from collections import OrderedDict
from dataclasses import dataclass, replace

from ..obs.metrics import CounterRecord

__all__ = ["MEMO_ENTRIES", "MEMO_NAMESPACES", "MemoCounters", "OutcomeMemo", "digest"]

#: The steps an :class:`OutcomeMemo` answers for.
MEMO_NAMESPACES = ("selection", "train")

#: Entries each namespace keeps (LRU).  A ``selection`` entry is a few
#: hundred bytes — names, floats and column positions, never a matrix; a
#: ``train`` entry is one accuracy float — never a model or a table.
MEMO_ENTRIES = 4096


def digest(*parts) -> bytes:
    """128-bit blake2b of length-prefixed ``parts`` (bytes or C arrays)."""
    h = hashlib.blake2b(digest_size=16)
    for part in parts:
        view = memoryview(part)
        h.update(view.nbytes.to_bytes(8, "little"))
        h.update(view)
    return h.digest()


@dataclass
class MemoCounters(CounterRecord):
    """Lifetime accounting of one memo namespace (``entries`` is live)."""

    hits: int = 0
    misses: int = 0
    entries: int = 0
    evictions: int = 0

    prefix = "memo"


class OutcomeMemo:
    """Bounded, thread-safe map from ``(namespace, input digest)`` to what
    that step returned.

    Two threads racing one key both compute and store the same value: a
    step is a pure function of its key, so there is no single-flight.
    """

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._entries: dict[str, OrderedDict] = {
            name: OrderedDict() for name in MEMO_NAMESPACES
        }
        self._counters = {name: MemoCounters() for name in MEMO_NAMESPACES}

    def get(self, namespace: str, key: bytes):
        """The stored value, or None (counted as a miss)."""
        with self._lock:
            entries = self._entries[namespace]
            value = entries.get(key)
            counters = self._counters[namespace]
            if value is None:
                counters.misses += 1
            else:
                counters.hits += 1
                entries.move_to_end(key)
            return value

    def holds(self, namespace: str, key: bytes) -> bool:
        """Whether ``key`` is stored; counts nothing (a later :meth:`get`
        may still miss if another run evicts it in between)."""
        with self._lock:
            return key in self._entries[namespace]

    def put(self, namespace: str, key: bytes, value) -> None:
        with self._lock:
            entries = self._entries[namespace]
            counters = self._counters[namespace]
            entries[key] = value
            while len(entries) > MEMO_ENTRIES:
                entries.popitem(last=False)
                counters.evictions += 1
            counters.entries = len(entries)

    def counters(self) -> dict[str, MemoCounters]:
        """A copy of every namespace's counters."""
        with self._lock:
            return {name: replace(c) for name, c in self._counters.items()}
