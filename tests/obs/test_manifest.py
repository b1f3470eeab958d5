"""RunManifest assembly, (de)serialisation, schema validation, exporters, CLI."""

import json

import pytest

from repro.dataframe import Table
from repro.obs import (
    MetricsRegistry,
    RunManifest,
    Tracer,
    build_manifest,
    chrome_trace_json,
    config_snapshot,
    dataset_fingerprint,
    flat_node,
    git_revision,
    render_text_report,
    synthetic_root,
    to_chrome_trace,
    validate_manifest,
)
from repro.obs.__main__ import main as obs_cli


def traced_manifest(**kwargs):
    tracer = Tracer()
    with tracer.span("discover", base="b"):
        with tracer.span("hop", table="t"):
            tracer.event("cache_miss", table="t")
        with tracer.span("selection"):
            pass
    registry = MetricsRegistry()
    registry.counter("engine.hops_executed").inc(1)
    return build_manifest("discovery", tracer=tracer, registry=registry, **kwargs)


class TestBuildManifest:
    def test_traced_build_carries_tree_metrics_events(self):
        manifest = traced_manifest(seed=7)
        assert manifest.stage == "discovery"
        assert manifest.seed == 7
        assert manifest.timing["name"] == "discover"
        assert manifest.metrics["counters"]["engine.hops_executed"] == 1
        assert manifest.n_events() == 1
        assert manifest.events[0]["span"] == "discover/hop"
        assert manifest.created_at  # stamped
        assert validate_manifest(manifest.as_dict()) == []

    def test_wall_seconds_defaults_to_root_duration(self):
        manifest = traced_manifest()
        assert manifest.wall_seconds == pytest.approx(
            manifest.timing_total_seconds()
        )

    def test_untraced_build_synthesises_single_node_tree(self):
        manifest = build_manifest(
            "discovery", tracer=Tracer(enabled=False), wall_seconds=1.5
        )
        assert manifest.timing["name"] == "discovery"
        assert manifest.timing["attrs"] == {"traced": False}
        assert manifest.stage_seconds() == {"discovery": pytest.approx(1.5)}
        assert validate_manifest(manifest.as_dict()) == []

    def test_stage_seconds_aggregates_same_named_spans(self):
        tracer = Tracer()
        with tracer.span("run"):
            with tracer.span("hop"):
                pass
            with tracer.span("hop"):
                pass
        manifest = build_manifest("x", tracer=tracer)
        stages = manifest.stage_seconds()
        assert set(stages) == {"run", "hop"}
        assert "hop=" in manifest.stage_summary()

    def test_dataset_fingerprint_and_config_embedded(self):
        table = Table({"a": [1, 2], "b": [3.0, 4.0]}, name="t")
        manifest = build_manifest(
            "x",
            tracer=Tracer(enabled=False),
            wall_seconds=0.1,
            dataset=[table],
            config={"tau": 0.65, "kappa": 15},
        )
        assert manifest.dataset_fingerprint == dataset_fingerprint([table])
        assert manifest.config == {"tau": 0.65, "kappa": 15}


class TestHelpers:
    def test_config_snapshot_stringifies_non_scalars(self):
        snap = config_snapshot({"a": 1, "b": None, "c": [1, 2], "d": "x"})
        assert snap == {"a": 1, "b": None, "c": "[1, 2]", "d": "x"}
        assert config_snapshot(None) == {}

    def test_dataset_fingerprint_order_invariant_and_shape_sensitive(self):
        t1 = Table({"a": [1, 2]}, name="t1")
        t2 = Table({"b": [1.0]}, name="t2")
        assert dataset_fingerprint([t1, t2]) == dataset_fingerprint([t2, t1])
        t1_wider = Table({"a": [1, 2], "z": [0, 0]}, name="t1")
        assert dataset_fingerprint([t1, t2]) != dataset_fingerprint([t1_wider, t2])

    def test_git_revision_resolves_each_ref_layout(self, tmp_path):
        # A throwaway repository per layout, so the test needs no checkout.
        # git_revision is cached per start directory: each layout has its
        # own directory and its own revision, so no answer can be stale.
        layouts = {
            "loose": {"HEAD": "ref: refs/heads/main", "refs/heads/main": "{rev}"},
            "packed": {
                "HEAD": "ref: refs/heads/main",
                "packed-refs": "# pack-refs with: peeled\n{rev} refs/heads/main",
            },
            "detached": {"HEAD": "{rev}"},
        }
        for k, (layout, files) in enumerate(layouts.items()):
            rev = f"{k}{'0123456789abcdef' * 3}"[:40]
            for name, text in files.items():
                path = tmp_path / layout / ".git" / name
                path.parent.mkdir(parents=True, exist_ok=True)
                path.write_text(text.format(rev=rev) + "\n")
            inside = tmp_path / layout / "src" / "pkg"
            inside.mkdir(parents=True)
            assert git_revision(inside) == rev[:12], layout

    def test_flat_node_and_synthetic_root_compose(self):
        child_a = flat_node("discover", 1.0)
        child_b = flat_node("train", 0.5)
        root = synthetic_root("augment", [child_a, child_b])
        assert root["duration_ns"] == child_a["duration_ns"] + child_b["duration_ns"]
        manifest = build_manifest("augment", timing=root)
        assert manifest.stage_seconds()["augment"] == pytest.approx(1.5)
        assert validate_manifest(manifest.as_dict()) == []


class TestRoundTrip:
    def test_save_load_round_trip(self, tmp_path):
        manifest = traced_manifest(seed=3)
        path = manifest.save(tmp_path / "m.json")
        restored = RunManifest.from_dict(json.loads(path.read_text()))
        assert restored == manifest

    def test_from_dict_tolerates_missing_optionals(self):
        manifest = RunManifest.from_dict({"stage": "x"})
        assert manifest.stage == "x"
        assert manifest.seed == 0
        assert manifest.timing == {}


class TestSchemaValidation:
    def test_rejects_missing_required_property(self):
        data = traced_manifest().as_dict()
        del data["stage"]
        assert any("stage" in e for e in validate_manifest(data))

    def test_rejects_empty_timing_tree(self):
        data = traced_manifest().as_dict()
        data["timing"] = {}
        assert any("missing" in e for e in validate_manifest(data))

    def test_rejects_negative_duration(self):
        data = traced_manifest().as_dict()
        data["timing"]["duration_ns"] = -5
        assert any("minimum" in e for e in validate_manifest(data))

    def test_rejects_children_overrunning_parent(self):
        data = traced_manifest().as_dict()
        data["timing"]["children"][0]["duration_ns"] = (
            data["timing"]["duration_ns"] + 10_000_000
        )
        assert any("exceeding" in e for e in validate_manifest(data))

    def test_rejects_wrong_types(self):
        data = traced_manifest().as_dict()
        data["wall_seconds"] = "fast"
        assert any("wall_seconds" in e for e in validate_manifest(data))


class TestExporters:
    def test_chrome_trace_structure(self):
        manifest = traced_manifest()
        trace = to_chrome_trace(manifest)
        events = trace["traceEvents"]
        spans = [e for e in events if e["ph"] == "X"]
        instants = [e for e in events if e["ph"] == "i"]
        assert [s["name"] for s in spans] == ["discover", "hop", "selection"]
        assert len(instants) == 1 and instants[0]["name"] == "cache_miss"
        # root starts at the origin; all timestamps are non-negative µs
        assert spans[0]["ts"] == 0.0
        assert all(e["ts"] >= 0 for e in events)
        json.loads(chrome_trace_json(manifest))  # loads cleanly

    def test_text_report_renders_tree_and_metrics(self):
        report = render_text_report(traced_manifest())
        assert "run manifest — stage=discovery" in report
        assert "timing tree" in report
        assert "engine.hops_executed" in report
        assert "cache_miss x1" in report


class TestCLI:
    def test_text_json_chrome_and_validate(self, tmp_path, capsys):
        path = traced_manifest().save(tmp_path / "m.json")
        assert obs_cli([str(path)]) == 0
        assert "timing tree" in capsys.readouterr().out

        assert obs_cli([str(path), "--format", "json"]) == 0
        assert json.loads(capsys.readouterr().out)["stage"] == "discovery"

        chrome = tmp_path / "trace.json"
        assert obs_cli([str(path), "--chrome", str(chrome)]) == 0
        capsys.readouterr()
        assert json.loads(chrome.read_text())["traceEvents"]

        assert obs_cli([str(path), "--validate"]) == 0
        assert "valid" in capsys.readouterr().out

    def test_invalid_manifest_fails_validation(self, tmp_path, capsys):
        data = traced_manifest().as_dict()
        del data["timing"]
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(data))
        assert obs_cli([str(path), "--validate"]) == 1
        assert "INVALID" in capsys.readouterr().err

    @pytest.mark.parametrize("payload", [{}, [1, 2]], ids=["empty-object", "array"])
    @pytest.mark.parametrize(
        "flags", [[], ["--validate"], ["--format", "json"]], ids=["text", "validate", "json"]
    )
    def test_json_that_is_not_a_manifest_exits_1(self, tmp_path, capsys, payload, flags):
        path = tmp_path / "other.json"
        path.write_text(json.dumps(payload))
        chrome = tmp_path / "trace.json"
        assert obs_cli([str(path), *flags, "--chrome", str(chrome)]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        lines = captured.err.splitlines()
        assert lines and all(line.startswith("INVALID  $") for line in lines)
        assert not chrome.exists()

    def test_unreadable_manifest_exits_2(self, tmp_path, capsys):
        path = tmp_path / "nope.json"
        assert obs_cli([str(path)]) == 2
        path.write_text("{not json")
        assert obs_cli([str(path)]) == 2
        capsys.readouterr()
