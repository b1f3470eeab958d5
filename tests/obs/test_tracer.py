"""Tracer: span nesting, timing invariants, events, no-op mode."""

import time

import pytest

from repro.obs import NULL_TRACER, Span, Tracer


class TestSpanTree:
    def test_nesting_builds_tree(self):
        tracer = Tracer()
        with tracer.span("discover", base="b"):
            with tracer.span("hop", table="t"):
                with tracer.span("join"):
                    pass
                with tracer.span("selection"):
                    pass
            with tracer.span("hop", table="u"):
                pass
        root = tracer.root
        assert root.name == "discover"
        assert [c.name for c in root.children] == ["hop", "hop"]
        assert [c.name for c in root.children[0].children] == ["join", "selection"]
        assert len(list(tracer.iter_spans())) == 5

    def test_attrs_recorded(self):
        tracer = Tracer()
        with tracer.span("hop", table="loans", key="loan_id"):
            pass
        assert tracer.root.attrs == {"table": "loans", "key": "loan_id"}

    def test_current_tracks_innermost_open_span(self):
        tracer = Tracer()
        tracer.event("outside")  # no open span: dropped
        with tracer.span("a") as a:
            tracer.event("in_a")
            with tracer.span("b") as b:
                tracer.event("in_b")
            tracer.event("back_in_a")
        tracer.event("after")
        assert [e["name"] for e in a.events] == ["in_a", "back_in_a"]
        assert [e["name"] for e in b.events] == ["in_b"]

    def test_multiple_roots(self):
        tracer = Tracer()
        with tracer.span("first"):
            pass
        with tracer.span("second"):
            pass
        assert [r.name for r in tracer.roots] == ["first", "second"]
        assert tracer.root.name == "first"

    def test_exception_recorded_and_propagated(self):
        tracer = Tracer()
        with pytest.raises(ValueError):
            with tracer.span("discover"):
                with tracer.span("hop"):
                    raise ValueError("boom")
        hop = tracer.root.children[0]
        assert hop.attrs["error"] == "ValueError"
        assert hop.duration_ns > 0
        assert tracer.root.duration_ns > 0
        with tracer.span("next"):  # stack unwound: a new root
            pass
        assert [r.name for r in tracer.roots] == ["discover", "next"]


class TestTiming:
    def test_child_time_never_exceeds_parent(self):
        """Regression for the double-bookkeeping bug: timings derived from
        one span tree can never have a child outlast its parent, which the
        old parallel perf_counter accumulators could not guarantee."""
        tracer = Tracer()
        with tracer.span("parent"):
            for __ in range(3):
                with tracer.span("child"):
                    time.sleep(0.002)
        parent = tracer.root
        child_total = sum(c.seconds for c in parent.children)
        assert child_total <= parent.seconds
        assert parent.seconds > 0

    def test_duration_zero_while_open(self):
        tracer = Tracer()
        with tracer.span("open") as span:
            assert span.duration_ns == 0
        assert span.duration_ns > 0

    def test_total_seconds_sums_same_named_spans(self):
        tracer = Tracer()
        with tracer.span("run"):
            with tracer.span("selection"):
                time.sleep(0.001)
            with tracer.span("selection"):
                time.sleep(0.001)
        total = tracer.total_seconds("selection")
        assert total == pytest.approx(
            sum(c.seconds for c in tracer.root.children)
        )
        assert 0 < total <= tracer.root.seconds

    def test_timing_tree_dict_shape(self):
        tracer = Tracer()
        with tracer.span("a", x=1):
            with tracer.span("b"):
                pass
        tree = tracer.timing_tree()
        assert tree["name"] == "a"
        assert tree["attrs"] == {"x": 1}
        assert tree["children"][0]["name"] == "b"
        assert tree["duration_ns"] >= tree["children"][0]["duration_ns"]


class TestEvents:
    def test_event_attaches_to_innermost_open_span(self):
        tracer = Tracer()
        with tracer.span("outer"):
            with tracer.span("inner"):
                tracer.event("cache_hit", table="t")
        inner = tracer.root.children[0]
        assert inner.events[0]["name"] == "cache_hit"
        assert inner.events[0]["table"] == "t"
        assert inner.events[0]["t_ns"] > 0
        assert tracer.root.events == []

    def test_event_outside_any_span_is_dropped(self):
        tracer = Tracer()
        tracer.event("orphan")  # no crash, nowhere to attach
        assert tracer.roots == []


class TestNoOpMode:
    def test_disabled_tracer_keeps_totals_not_trees(self):
        tracer = Tracer(enabled=False)
        with tracer.span("run", attr=1) as run:
            for _ in range(2):
                with tracer.span("stage") as stage:
                    time.sleep(0.001)
            assert run.seconds == 0.0  # still open
        assert not hasattr(stage, "children")
        assert tracer.roots == [] and list(tracer.iter_spans()) == []
        assert 0.002 <= tracer.total_seconds("stage") <= run.seconds
        assert tracer.total_seconds("run") == run.seconds
        assert tracer.total_seconds("never") == 0.0
        tree = tracer.timing_tree()
        assert tree["name"] == "run" and tree["attrs"] == {"traced": False}
        assert tree["duration_ns"] == pytest.approx(run.seconds * 1e9, abs=1)
        assert [c["name"] for c in tree["children"]] == ["stage"]
        assert tree["children"][0]["duration_ns"] == pytest.approx(
            tracer.total_seconds("stage") * 1e9, abs=1
        )
        assert Tracer(enabled=False).timing_tree() == {}

    def test_disabled_event_is_noop(self):
        NULL_TRACER.event("anything", x=1)
        assert list(NULL_TRACER.iter_spans()) == []

    def test_null_span_event_is_noop(self):
        tracer = Tracer(enabled=False)
        with tracer.span("offer") as span:
            span.event("e")
        assert tracer.timing_tree()["events"] == []

    def test_null_tracer_shared_instance_disabled(self):
        assert NULL_TRACER.enabled is False


class TestSpanStandalone:
    def test_span_without_tracer_still_times(self):
        with Span("lone") as span:
            time.sleep(0.001)
        assert span.seconds > 0

    def test_iter_spans_preorder(self):
        tracer = Tracer()
        with tracer.span("a"):
            with tracer.span("b"):
                with tracer.span("c"):
                    pass
            with tracer.span("d"):
                pass
        assert [s.name for s in tracer.iter_spans()] == ["a", "b", "c", "d"]
