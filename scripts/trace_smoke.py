#!/usr/bin/env python
"""Observability smoke gate.

Runs a traced AutoFeat augmentation over the diamond lake and asserts the
observability contract end to end:

1. the result carries a RunManifest that passes JSON-schema validation;
2. the manifest's timing tree accounts for the run's wall clock;
3. the Chrome-trace export loads cleanly and is non-empty;
4. the ``python -m repro.obs`` CLI accepts the saved manifest;
5. the disabled tracer is cheap: the measured per-span cost of its
   timing-only spans, scaled to this run's span count, stays under 2% of
   the traced wall time.

Exits non-zero on the first violated invariant.  Run with
``PYTHONPATH=src python scripts/trace_smoke.py`` or ``scripts/check.sh``.
"""

import json
import sys
import tempfile
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import numpy as np

from repro.core import AutoFeat, AutoFeatConfig
from repro.dataframe import Table
from repro.graph import DatasetRelationGraph, KFKConstraint
from repro.obs import Tracer, chrome_trace_json, validate_manifest
from repro.obs.__main__ import main as obs_cli


def diamond_lake(n=400, seed=3):
    rng = np.random.default_rng(seed)
    a_key = rng.permutation(n) + 1_000
    b_key = rng.permutation(n) + 5_000
    shared = rng.permutation(n) + 9_000
    signal = rng.normal(0, 1, n)
    label = ((signal + rng.normal(0, 0.3, n)) > 0).astype(int)
    base = Table(
        {
            "id": np.arange(n),
            "a_key": a_key,
            "b_key": b_key,
            "weak": rng.normal(0, 1, n),
            "label": label,
        },
        name="base",
    )
    a = Table(
        {"a_key": a_key, "shared_key": shared, "a_noise": rng.normal(0, 1, n)},
        name="a",
    )
    b = Table(
        {"b_key": b_key, "shared_key": shared, "b_noise": rng.normal(0, 1, n)},
        name="b",
    )
    c = Table({"shared_key": shared, "signal": signal}, name="c")
    return DatasetRelationGraph.from_constraints(
        [base, a, b, c],
        [
            KFKConstraint("base", "a_key", "a", "a_key"),
            KFKConstraint("base", "b_key", "b", "b_key"),
            KFKConstraint("a", "shared_key", "c", "shared_key"),
            KFKConstraint("b", "shared_key", "c", "shared_key"),
        ],
    )


def gate(ok, message):
    status = "ok" if ok else "FAIL"
    print(f"  [{status}] {message}")
    if not ok:
        sys.exit(1)


def count_nodes(tree):
    return 1 + sum(count_nodes(c) for c in tree.get("children", ()))


def null_span_cost_seconds(iterations=200_000):
    """Measured per-span cost of a disabled tracer (enter + exit)."""
    tracer = Tracer(enabled=False)
    started = time.perf_counter()
    for _ in range(iterations):
        with tracer.span("x"):
            pass
    return (time.perf_counter() - started) / iterations


def main():
    print("trace smoke: traced diamond-lake augmentation")
    drg = diamond_lake()
    config = AutoFeatConfig(sample_size=200, top_k=2, seed=0)
    result = AutoFeat(drg, config).augment("base", "label", "knn")
    manifest = result.run_manifest

    gate(manifest is not None, "result carries a run manifest")
    errors = validate_manifest(manifest.as_dict())
    gate(errors == [], f"manifest passes schema validation {errors or ''}")

    total = manifest.timing_total_seconds()
    wall = result.total_seconds
    gate(
        abs(total - wall) <= max(0.02, 0.05 * wall),
        f"timing tree ({total:.4f}s) accounts for wall clock ({wall:.4f}s)",
    )
    stages = manifest.stage_seconds()
    gate(
        stages and all(s >= 0 for s in stages.values()),
        f"stage timings non-negative: {manifest.stage_summary()}",
    )

    trace = json.loads(chrome_trace_json(manifest))
    gate(bool(trace["traceEvents"]), f"chrome trace has {len(trace['traceEvents'])} events")

    with tempfile.TemporaryDirectory() as tmp:
        path = manifest.save(Path(tmp) / "manifest.json")
        gate(obs_cli([str(path), "--validate"]) == 0, "obs CLI validates the manifest")
        chrome_path = Path(tmp) / "trace.json"
        gate(
            obs_cli([str(path), "--chrome", str(chrome_path)]) == 0
            and bool(json.loads(chrome_path.read_text())["traceEvents"]),
            "obs CLI exports a loadable chrome trace",
        )

    n_spans = count_nodes(manifest.timing)
    overhead = null_span_cost_seconds() * n_spans
    budget = 0.02 * wall
    gate(
        overhead < budget,
        f"disabled tracer overhead {overhead * 1e6:.1f}µs for {n_spans} spans "
        f"< 2% of wall ({budget * 1e6:.0f}µs)",
    )

    print("trace smoke passed")


if __name__ == "__main__":
    main()
