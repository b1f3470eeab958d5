"""Metrics registry: named counters and gauges.

One :class:`MetricsRegistry` collects a run's numeric observability
signals under dotted names (``engine.cache_hits``,
``selection.codes_reused``, ``faults.recorded``).  The stats records —
every :class:`CounterRecord` (:class:`repro.engine.ExecutionStats`,
:class:`repro.selection.SelectionStats`, the discovery layer's two) plus
:class:`repro.engine.FailureReport` and ``NavigationStats`` — publish
into a registry via ``publish()``; the registry's
:meth:`MetricsRegistry.as_dict` payload is what a
:class:`repro.obs.RunManifest` embeds.

Two instrument kinds, mirroring the usual metrics vocabulary:

* **Counter** — monotonically increasing integer (``inc``);
* **Gauge** — last-written float (``set``).
"""

from __future__ import annotations

import threading
from dataclasses import fields

__all__ = ["Counter", "CounterRecord", "Gauge", "MetricsRegistry"]


class Counter:
    """Monotonic counter; negative increments are rejected, concurrent
    ones exact (``lock`` is the owning registry's)."""

    __slots__ = ("name", "value", "_lock")

    def __init__(self, name: str, lock=None):
        self.name = name
        self.value = 0
        self._lock = lock or threading.RLock()

    def inc(self, amount: int = 1) -> "Counter":
        if amount < 0:
            raise ValueError(f"counter {self.name!r} cannot decrease (got {amount})")
        with self._lock:
            self.value += amount
        return self


class Gauge:
    """Last-value-wins float instrument."""

    __slots__ = ("name", "value")

    def __init__(self, name: str):
        self.name = name
        self.value = 0.0

    def set(self, value: float) -> "Gauge":
        self.value = float(value)
        return self


class MetricsRegistry:
    """Get-or-create registry of named instruments.

    A name belongs to exactly one instrument kind for the registry's
    lifetime; asking for the same name as a different kind raises, which
    catches taxonomy typos early.

    Thread-safe: get-or-create and ``inc`` run under the
    re-entrant :attr:`lock` (a gauge's ``set`` is one store); a caller may
    hold it across a read-several-then-write sequence.
    """

    def __init__(self):
        self.lock = threading.RLock()
        self._counters: dict[str, Counter] = {}
        self._gauges: dict[str, Gauge] = {}

    def _check_unique(self, name: str, kind: str) -> None:
        owners = {"counter": self._counters, "gauge": self._gauges}
        for other_kind, table in owners.items():
            if other_kind != kind and name in table:
                raise ValueError(
                    f"metric {name!r} is already registered as a {other_kind}"
                )

    def counter(self, name: str) -> Counter:
        with self.lock:
            if name not in self._counters:
                self._check_unique(name, "counter")
                self._counters[name] = Counter(name, self.lock)
            return self._counters[name]

    def gauge(self, name: str) -> Gauge:
        with self.lock:
            if name not in self._gauges:
                self._check_unique(name, "gauge")
                self._gauges[name] = Gauge(name)
            return self._gauges[name]

    def __contains__(self, name: str) -> bool:
        return name in self._counters or name in self._gauges

    def __len__(self) -> int:
        return len(self._counters) + len(self._gauges)

    def as_dict(self) -> dict:
        """JSON-safe payload (the manifest's ``metrics`` section)."""
        with self.lock:
            return {
                "counters": {n: c.value for n, c in sorted(self._counters.items())},
                "gauges": {n: g.value for n, g in sorted(self._gauges.items())},
            }


class CounterRecord:
    """Base of every stats record: a dataclass of summable counters.

    A subclass is a ``@dataclass`` declaring its zero-defaulted fields
    once, the read-only properties reported beside them (``derived``) and
    the ``prefix`` its metrics publish under; summing, publishing and
    flattening are written here only.  An ``int`` publishes as a
    counter, a ``float`` as a gauge rounded to six places.
    """

    prefix = ""
    derived: tuple[str, ...] = ()

    def merged(self, other):
        """Field-wise sum — e.g. discovery-phase + training-phase stats."""
        return type(self)(
            **{f.name: getattr(self, f.name) + getattr(other, f.name) for f in fields(self)}
        )

    def as_dict(self) -> dict:
        """Flat dict of the fields, then the derived values."""
        names = [f.name for f in fields(self)] + list(self.derived)
        values = ((name, getattr(self, name)) for name in names)
        return {n: v if isinstance(v, int) else round(v, 6) for n, v in values}

    def publish(self, registry: MetricsRegistry, prefix: str | None = None) -> MetricsRegistry:
        """Publish every :meth:`as_dict` entry as ``<prefix>.<name>``."""
        for name, value in self.as_dict().items():
            metric = f"{prefix or self.prefix}.{name}"
            if isinstance(value, int):
                registry.counter(metric).inc(value)
            else:
                registry.gauge(metric).set(value)
        return registry
