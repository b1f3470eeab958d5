"""Observability of training, inline or pooled: one tree, valid manifests.

Discovery runs in process whatever the CPU count, so its tree is
``discover > {sample, selection, hop > join}``.  Training materialises
every path in the coordinator too and only its fits may run in a pool, so
its tree is ``train > {path > hop > join, evaluate}`` on both routes:
every ``path`` comes first, then one ``evaluate`` per path, timing the
inline fit or the wait for the pooled one.  The ``train`` span carries
the worker count, and its children run one after another, so the schema
validator's rule — the children's durations sum to no more than their
parent's — holds for it.  The runs here train ``lightgbm``, a tree model,
so on two CPUs their two fits pool.
"""

import numpy as np
import pytest

from repro.core import AutoFeat, AutoFeatConfig
from repro.dataframe import Table
from repro.graph import DatasetRelationGraph, KFKConstraint
from repro.obs import validate_manifest

from tests.conftest import ROUTES, cpus

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


def config(**overrides):
    return AutoFeatConfig(sample_size=100, tau=0.0, top_k=2, **overrides)


def augment(drg, route, **overrides):
    """A ``lightgbm`` augment on the CPUs of ``route``."""
    with cpus(ROUTES[route]):
        return AutoFeat(drg, config(**overrides)).augment("base", "label", "lightgbm")


def iter_tree(node):
    if not node:
        return
    yield node
    for child in node.get("children", ()):
        yield from iter_tree(child)


def train_node(manifest):
    (train,) = [n for n in iter_tree(manifest.timing) if n["name"] == "train"]
    return train


def assert_no_pool(discovery):
    """Discovery's tree and manifest hold no trace of a pool."""
    names = {node["name"] for node in iter_tree(discovery.run_manifest.timing)}
    assert "wave" not in names and "train" not in names
    metrics = discovery.run_manifest.metrics
    assert not any(name.startswith("parallel.") for name in metrics["gauges"])


@pytest.mark.parametrize("backend", PARALLEL)
class TestParallelDiscoveryManifest:
    def test_manifest_validates_against_schema(self, drg, backend):
        with cpus(ROUTES[backend]):
            discovery = AutoFeat(drg, config()).discover("base", "label")
        manifest = discovery.run_manifest
        assert validate_manifest(manifest.as_dict()) == []
        assert manifest.wall_seconds == pytest.approx(
            discovery.discovery_seconds, abs=1e-6
        )

    def test_train_span_carries_backend_attrs_and_fit_children(
        self, drg, backend, pools
    ):
        result = augment(drg, backend)
        assert pools == [2]
        assert_no_pool(result.discovery)
        names = {node["name"] for node in iter_tree(result.run_manifest.timing)}
        assert "wave" not in names
        train = train_node(result.run_manifest)
        assert train["attrs"] == {"base": "base", "model": "lightgbm", "workers": 2}
        # Every path is materialised before the first fit is awaited.
        assert [child["name"] for child in train["children"]] == ["path"] * 2 + [
            "evaluate"
        ] * 2

    def test_child_time_bounded_by_parent_time(self, drg, backend):
        # The fits run in the pool, but the spans time the coordinator's
        # own work and waits, one after another: the children's durations
        # sum to no more than the train span's (1ms clock tolerance, as the
        # schema validator allows).
        result = augment(drg, backend)
        train = train_node(result.run_manifest)
        children = sum(child["duration_ns"] for child in train["children"])
        assert children <= train["duration_ns"] + 1_000_000

    def test_workers_used_gauge_recorded(self, drg, backend):
        result = augment(drg, backend)
        assert_no_pool(result.discovery)
        gauges = result.run_manifest.metrics["gauges"]
        assert gauges["parallel.workers_used"] == 2
        # The executor's utilisation gauges went with the executor.
        assert [name for name in gauges if name.startswith("parallel.")] == [
            "parallel.workers_used"
        ]

    def test_augment_manifest_covers_both_phases(self, drg, backend):
        result = augment(drg, backend)
        manifest = result.run_manifest
        assert validate_manifest(manifest.as_dict()) == []
        stages = manifest.stage_seconds()
        assert "discover" in stages and "train" in stages
        assert manifest.metrics["gauges"]["parallel.workers_used"] == 2
        names = {node["name"] for node in iter_tree(manifest.timing)}
        assert {"path", "evaluate"} <= names


class TestSerialManifestUnchanged:
    def test_serial_manifest_has_pool_shape(self, drg, pools):
        serial = augment(drg, "serial")
        pooled = augment(drg, "processes")
        assert pools == [2]
        for result in (serial, pooled):
            assert_no_pool(result.discovery)
            assert validate_manifest(result.run_manifest.as_dict()) == []
        train = train_node(serial.run_manifest)
        assert train["attrs"]["workers"] == 1
        # The fits run inline, after every path is materialised.
        assert [child["name"] for child in train["children"]] == [
            "path"
        ] * 2 + ["evaluate"] * 2
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
        result = augment(drg, "processes", enable_tracing=False)
        manifest = result.run_manifest
        assert validate_manifest(manifest.as_dict()) == []
        # Gauges survive without tracing; the timing tree collapses.
        assert manifest.metrics["gauges"]["parallel.workers_used"] == 2
