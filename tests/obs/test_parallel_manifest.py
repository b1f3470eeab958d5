"""Observability of the training wave: stitched spans, gauges, valid manifests.

Discovery runs in process on every backend, so its tree is
``discover > {sample, selection, hop > join}`` with no wave in it.  The
training wave's path units execute inline or in worker processes, yet the
run manifest must stay one coherent tree of the same shape on every
backend: the wave span carries the ``parallel`` marker plus
backend/worker attributes, worker spans are grafted (and, for processes,
rebased onto the coordinator's clock) as its children, and the schema
validator's concurrency-aware rule — max child duration, not the sum,
bounded by the parent — holds for it.
"""

import numpy as np
import pytest

from repro.core import AutoFeat, AutoFeatConfig
from repro.dataframe import Table
from repro.graph import DatasetRelationGraph, KFKConstraint
from repro.obs import validate_manifest

PARALLEL = ("processes",)


def diamond_lake(n=300, seed=3):
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


@pytest.fixture(scope="module")
def drg():
    return diamond_lake()


def config(backend, **overrides):
    return AutoFeatConfig(
        sample_size=100,
        tau=0.0,
        top_k=2,
        parallel_backend=backend,
        **overrides,
    )


def iter_tree(node):
    if not node:
        return
    yield node
    for child in node.get("children", ()):
        yield from iter_tree(child)


def wave_nodes(manifest):
    return [
        node
        for node in iter_tree(manifest.timing)
        if node.get("attrs", {}).get("parallel")
    ]


def assert_no_wave(discovery):
    """Discovery's tree holds no wave and its manifest no pool metrics."""
    assert wave_nodes(discovery.run_manifest) == []
    names = {node["name"] for node in iter_tree(discovery.run_manifest.timing)}
    assert "wave" not in names
    metrics = discovery.run_manifest.metrics
    assert not any(name.startswith("parallel.") for name in metrics["gauges"])
    assert "discovery.waves" not in metrics["counters"]


@pytest.mark.parametrize("backend", PARALLEL)
class TestParallelDiscoveryManifest:
    def test_manifest_validates_against_schema(self, drg, backend):
        discovery = AutoFeat(drg, config(backend)).discover("base", "label")
        manifest = discovery.run_manifest
        assert validate_manifest(manifest.as_dict()) == []
        assert manifest.wall_seconds == pytest.approx(
            discovery.discovery_seconds, abs=1e-6
        )

    def test_wave_spans_carry_backend_attrs_and_worker_children(
        self, drg, backend
    ):
        result = AutoFeat(drg, config(backend)).augment("base", "label", "knn")
        assert_no_wave(result.discovery)
        waves = wave_nodes(result.run_manifest)
        assert len(waves) == 1, "the training wave is the only wave"
        (wave,) = waves
        assert wave["name"] == "wave"
        assert wave["attrs"]["backend"] == backend
        assert wave["attrs"]["workers"] == 2
        # Worker path spans are stitched back under the wave.
        assert {child["name"] for child in wave["children"]} == {"path"}

    def test_child_time_bounded_by_parent_time(self, drg, backend):
        # Concurrent children may *sum* past the parent's wall time, but no
        # single child can exceed it (1ms clock tolerance, as the schema
        # validator allows).
        result = AutoFeat(drg, config(backend)).augment("base", "label", "knn")
        for wave in wave_nodes(result.run_manifest):
            for child in wave.get("children", ()):
                assert child["duration_ns"] <= wave["duration_ns"] + 1_000_000

    def test_workers_used_gauge_recorded(self, drg, backend):
        result = AutoFeat(drg, config(backend)).augment("base", "label", "knn")
        assert_no_wave(result.discovery)
        gauges = result.run_manifest.metrics["gauges"]
        assert gauges["parallel.workers_used"] == 2
        assert gauges["parallel.speedup"] >= 0.0
        assert gauges["parallel.wall_seconds"] >= 0.0
        assert gauges["parallel.busy_seconds"] >= 0.0

    def test_augment_manifest_covers_both_phases(self, drg, backend):
        result = AutoFeat(drg, config(backend)).augment("base", "label", "knn")
        manifest = result.run_manifest
        assert validate_manifest(manifest.as_dict()) == []
        stages = manifest.stage_seconds()
        assert "discover" in stages and "train" in stages
        assert manifest.metrics["gauges"]["parallel.workers_used"] == 2
        # The training wave stitches per-path worker spans back in.
        names = {node["name"] for node in iter_tree(manifest.timing)}
        assert "path" in names


class TestSerialManifestUnchanged:
    def test_serial_manifest_has_pool_shape(self, drg):
        serial = AutoFeat(drg, config("serial")).augment("base", "label", "knn")
        pooled = AutoFeat(drg, config("processes")).augment("base", "label", "knn")
        for result in (serial, pooled):
            assert_no_wave(result.discovery)
            assert validate_manifest(result.run_manifest.as_dict()) == []
        (wave,) = wave_nodes(serial.run_manifest)
        assert wave["attrs"]["backend"] == "serial"
        assert wave["attrs"]["workers"] == 1
        # selection is coordinator work: a sibling of the hop it scores.
        discover_root = serial.discovery.run_manifest.timing
        assert {c["name"] for c in discover_root["children"]} == {
            "sample", "selection", "hop",
        }
        assert {n["name"] for n in iter_tree(serial.run_manifest.timing)} == {
            n["name"] for n in iter_tree(pooled.run_manifest.timing)
        }
        for ours, theirs in (
            (serial.discovery.run_manifest, pooled.discovery.run_manifest),
            (serial.run_manifest, pooled.run_manifest),
        ):
            for kind in ("gauges", "counters"):
                assert set(ours.metrics[kind]) == set(theirs.metrics[kind])
        assert serial.run_manifest.metrics["gauges"]["parallel.workers_used"] == 1

    def test_untraced_parallel_run_still_manifests(self, drg):
        cfg = config("processes", enable_tracing=False)
        result = AutoFeat(drg, cfg).augment("base", "label", "knn")
        manifest = result.run_manifest
        assert validate_manifest(manifest.as_dict()) == []
        # Gauges survive without tracing; the timing tree collapses.
        assert manifest.metrics["gauges"]["parallel.workers_used"] == 2
