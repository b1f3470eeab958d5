"""Hierarchical tracing: nested wall-clock spans over the pipeline.

One :class:`Tracer` spans one logical run, exactly like
:class:`repro.engine.JoinEngine` and :class:`repro.engine.FaultManager`.
Every timed region of the pipeline enters a :class:`Span` via the context
manager returned by :meth:`Tracer.span`::

    tracer = Tracer()
    with tracer.span("discover", base="applicants"):
        with tracer.span("hop", table="loans", key="loan_id"):
            with tracer.span("join"):
                ...
            with tracer.span("selection"):
                ...

Spans nest into a tree (children attach to the innermost open span), time
with :func:`time.perf_counter_ns`, and carry structured events
(:meth:`Tracer.event` — e.g. the engine's hop-cache hits and misses).
The resulting tree is the timing backbone of a
:class:`repro.obs.RunManifest` and of the Chrome-trace export.

A disabled tracer keeps totals, not trees: :meth:`Tracer.span` returns a
slotted timing-only span — two clock reads, no tree, no attrs, no events —
that adds its duration into a per-name total, so the tracer is the run's
only clock in both modes (``scripts/trace_smoke.py`` asserts the
timing-only cost stays under 2% of discovery wall time).

The module is dependency-free by design: it imports only :mod:`time`.
"""

from __future__ import annotations

import time

__all__ = ["Span", "Tracer", "NULL_TRACER", "flat_node"]


def flat_node(name: str, seconds: float, children: list[dict] | None = None, **attrs) -> dict:
    """A leaf (or shallow) span-tree node from a plain wall-clock total."""
    return {
        "name": name,
        "start_ns": 0,
        "duration_ns": max(int(seconds * 1e9), 0),
        "attrs": dict(attrs),
        "events": [],
        "children": list(children or ()),
    }


class Span:
    """One timed node of the trace tree; also its own context manager.

    ``start_ns`` / ``end_ns`` are raw :func:`time.perf_counter_ns` stamps
    (monotonic, comparable only within one process); exporters normalise
    them against the root span's start.
    """

    __slots__ = ("name", "attrs", "start_ns", "end_ns", "children", "events", "_tracer")

    def __init__(self, name: str, attrs: dict | None = None, tracer: "Tracer | None" = None):
        self.name = name
        self.attrs: dict = attrs or {}
        self.start_ns = 0
        self.end_ns = 0
        self.children: list[Span] = []
        self.events: list[dict] = []
        self._tracer = tracer

    # -- timing -------------------------------------------------------------

    @property
    def duration_ns(self) -> int:
        """Elapsed nanoseconds (0 while the span is still open)."""
        return max(self.end_ns - self.start_ns, 0) if self.end_ns else 0

    @property
    def seconds(self) -> float:
        return self.duration_ns / 1e9

    @property
    def finished(self) -> bool:
        return self.end_ns != 0

    # -- structure ----------------------------------------------------------

    def event(self, name: str, **attrs) -> None:
        """Attach one timestamped structured event to this span."""
        self.events.append({"name": name, "t_ns": time.perf_counter_ns(), **attrs})

    def iter_spans(self):
        """This span and every descendant, pre-order."""
        yield self
        for child in self.children:
            yield from child.iter_spans()

    def total_named_seconds(self, name: str) -> float:
        """Summed duration of all spans named ``name`` in this subtree.

        Same-named spans are assumed not to nest inside each other (true
        for the pipeline's taxonomy), so the sum is not double-counted.
        """
        return sum(s.seconds for s in self.iter_spans() if s.name == name)

    def as_dict(self) -> dict:
        """JSON-safe tree rendering (the manifest's ``timing`` payload)."""
        return {
            "name": self.name,
            "start_ns": self.start_ns,
            "duration_ns": self.duration_ns,
            "attrs": dict(self.attrs),
            "events": [dict(e) for e in self.events],
            "children": [child.as_dict() for child in self.children],
        }

    @classmethod
    def from_dict(cls, data: dict) -> "Span":
        """Inverse of :meth:`as_dict` — rebuild a finished span tree.

        How worker span trees come back across the parallel executor's
        pool boundary: workers serialise their roots with :meth:`as_dict`
        and the coordinator grafts them into the parent trace here.
        """
        span = cls(str(data.get("name", "span")), dict(data.get("attrs", {})))
        span.start_ns = int(data.get("start_ns", 0))
        span.end_ns = span.start_ns + int(data.get("duration_ns", 0))
        span.events = [dict(event) for event in data.get("events", ())]
        span.children = [cls.from_dict(child) for child in data.get("children", ())]
        return span

    def shift(self, delta_ns: int) -> "Span":
        """Shift this subtree's clock by ``delta_ns`` in place; returns self.

        ``perf_counter_ns`` stamps are only comparable within one process,
        so span trees returned by *process* workers are rebased into the
        parent's clock (durations are untouched) before grafting.
        """
        for span in self.iter_spans():
            span.start_ns += delta_ns
            span.end_ns += delta_ns
            for event in span.events:
                if "t_ns" in event:
                    event["t_ns"] += delta_ns
        return self

    # -- context manager ----------------------------------------------------

    def __enter__(self) -> "Span":
        tracer = self._tracer
        if tracer is not None:
            if tracer._stack:
                tracer._stack[-1].children.append(self)
            else:
                tracer.roots.append(self)
            tracer._stack.append(self)
        self.start_ns = time.perf_counter_ns()
        return self

    def __exit__(self, exc_type, exc, tb) -> bool:
        self.end_ns = time.perf_counter_ns()
        if exc_type is not None:
            # A span that exits through an exception records it, so failed
            # joins/hops stay visible in the timing tree.
            self.attrs["error"] = exc_type.__name__
        tracer = self._tracer
        if tracer is not None and tracer._stack and tracer._stack[-1] is self:
            tracer._stack.pop()
        return False

    def __repr__(self) -> str:
        return f"Span({self.name!r}, {self.seconds:.6f}s, {len(self.children)} children)"


class _TimedSpan:
    """Timing-only span of a disabled tracer; adds into its name's total."""

    __slots__ = ("name", "start_ns", "end_ns", "_totals")

    def __init__(self, name: str, totals: dict[str, int]):
        self.name = name
        self.start_ns = self.end_ns = 0
        self._totals = totals

    @property
    def seconds(self) -> float:
        return (self.end_ns - self.start_ns) / 1e9 if self.end_ns else 0.0

    def event(self, name: str, **attrs) -> None:
        pass

    def __enter__(self) -> "_TimedSpan":
        self.start_ns = time.perf_counter_ns()
        return self

    def __exit__(self, exc_type, exc, tb) -> bool:
        self.end_ns = time.perf_counter_ns()
        totals = self._totals
        totals[self.name] = totals.get(self.name, 0) + self.end_ns - self.start_ns
        return False


class Tracer:
    """Builds one run's span tree (per-name totals only when disabled).

    Parameters
    ----------
    enabled:
        When False, :meth:`span` returns timing-only spans that feed
        per-name totals and :meth:`event` is a no-op — the cheap mode
        production runs use via ``AutoFeatConfig(enable_tracing=False)``.
    """

    def __init__(self, enabled: bool = True):
        self.enabled = enabled
        self.roots: list[Span] = []
        self._stack: list[Span] = []
        #: Disabled mode: nanoseconds per span name; the outermost span.
        self._totals: dict[str, int] = {}
        self._outer: _TimedSpan | None = None

    def span(self, name: str, **attrs):
        """A context manager timing one named region (nestable)."""
        if self.enabled:
            return Span(name, attrs, tracer=self)
        span = _TimedSpan(name, self._totals)
        if self._outer is None:
            self._outer = span
        return span

    def event(self, name: str, **attrs) -> None:
        """Attach a structured event to the innermost open span."""
        if self.enabled and self._stack:
            self._stack[-1].event(name, **attrs)

    @property
    def current(self) -> Span | None:
        """The innermost open span, or None outside any span."""
        return self._stack[-1] if self._stack else None

    @property
    def root(self) -> Span | None:
        """The first root span recorded (a run's outermost region)."""
        return self.roots[0] if self.roots else None

    def iter_spans(self):
        """Every recorded span across all roots, pre-order."""
        for root in self.roots:
            yield from root.iter_spans()

    def n_spans(self) -> int:
        return sum(1 for _ in self.iter_spans())

    def total_seconds(self, name: str) -> float:
        """Summed duration of every span named ``name`` (see caveat on
        :meth:`Span.total_named_seconds`)."""
        if not self.enabled:
            return self._totals.get(name, 0) / 1e9
        return sum(s.seconds for s in self.iter_spans() if s.name == name)

    def timing_tree(self) -> dict:
        """The root span as a JSON-safe dict ({} when nothing was timed);
        disabled: the outermost span over one flat ``traced: False`` child
        per other span name."""
        if self.enabled:
            return self.root.as_dict() if self.root is not None else {}
        outer = self._outer
        if outer is None:
            return {}
        totals = self._totals.items()
        stages = [flat_node(n, ns / 1e9) for n, ns in totals if n != outer.name]
        return flat_node(outer.name, outer.seconds, stages, traced=False)


#: Shared disabled tracer for callers that want tracing to be optional.
#: Every such caller adds into its totals, so nothing reads them.
NULL_TRACER = Tracer(enabled=False)
