"""Smoke test of the end-to-end benchmark: ``pytest benchmarks/e2e``.

Outside ``testpaths``, so tier-1 time is unchanged.  Runs the whole
benchmark once in ``--smoke`` mode (tiny lakes, ~25 s) into a temp dir and
checks the contract between ``BENCHMARK.json``, the code and the output.
"""

from __future__ import annotations

import json
import re
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent.parent
NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")
UNIT = re.compile(r"[A-Za-z0-9_/%.-]{1,16}")

sys.path.insert(0, str(HERE))


@pytest.fixture(scope="module")
def spec() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text())


@pytest.fixture(scope="module")
def record(tmp_path_factory) -> dict:
    out = tmp_path_factory.mktemp("e2e") / "smoke.json"
    tracked_before = (ROOT / "BENCHMARK.json").read_bytes()
    done = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--smoke", "--out", str(out)],
        capture_output=True, text=True, timeout=300,
    )
    assert done.returncode == 0, done.stdout + done.stderr
    assert (ROOT / "BENCHMARK.json").read_bytes() == tracked_before
    return json.loads(out.read_text())


def test_spec_shape(spec):
    assert set(spec) == {
        "command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"
    }
    assert spec["paths"] == ["benchmarks/e2e"]
    assert 2 <= len(spec["workloads"]) <= 8
    assert 1 <= len(spec["end_to_end"]) <= 16
    assert 1 <= len(spec["per_layer"]) <= 128
    names = [m["name"] for m in spec["end_to_end"] + spec["per_layer"]]
    names += [w["name"] for w in spec["workloads"]]
    assert len(names) == len(set(names))
    for name in names:
        assert NAME.fullmatch(name), name
    for metric in spec["end_to_end"] + spec["per_layer"]:
        assert UNIT.fullmatch(metric["unit"]), metric
        assert metric["better"] in ("lower", "higher")
    for metric in spec["end_to_end"]:
        assert 0 < metric["bound"] <= 0.25
    setup = [m for m in spec["end_to_end"] if m["name"] == "setup_s"]
    assert setup and setup[0]["unit"] == "s" and setup[0]["better"] == "lower"
    for workload in spec["workloads"]:
        assert set(workload) == {"name", "why"} and len(workload["why"]) <= 200


def test_code_and_spec_agree(spec):
    import run
    from workloads import WORKLOADS

    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS) == list(run.WORKLOAD_NAMES)
    assert [w["why"] for w in spec["workloads"]] == [w.why for w in WORKLOADS.values()]
    assert [
        (m["name"], m["unit"], m["better"], m["bound"]) for m in spec["end_to_end"]
    ] == list(run.END_TO_END)
    assert [
        (m["name"], m["unit"], m["better"]) for m in spec["per_layer"]
    ] == list(run.PER_LAYER)


def test_every_declared_metric_is_emitted(spec, record):
    assert record["mode"] == "smoke"
    for workload in spec["workloads"]:
        entry = record["workloads"][workload["name"]]
        for run_record in entry["runs"]:
            assert run_record["correct"] and run_record["failed"] == 0
            assert run_record["attempted"] >= 1
            assert {
                name: m["unit"] for name, m in run_record["metrics"].items()
            } == {m["name"]: m["unit"] for m in spec["end_to_end"]}
            for metric in run_record["metrics"].values():
                assert metric["value"] > 0
        traced = entry["traced"]
        assert traced["correct"], traced["failure_messages"]
        assert {
            name: m["unit"] for name, m in traced["metrics"].items()
        } == {m["name"]: m["unit"] for m in spec["per_layer"]}
        assert traced["trace"], "the traced run keeps its spans"


def test_hygiene_is_recorded(record):
    for entry in record["workloads"].values():
        for run_record in entry["runs"]:
            hygiene = run_record["hygiene"]
            assert {"seed", "git_rev", "nproc", "python", "numpy", "threads", "loadavg_1m"} <= set(hygiene)
            assert set(hygiene["threads"].values()) == {"1"}
            for op in run_record["ops"]:
                assert {"wall_s", "cpu_s", "contended"} <= set(op)
