"""Route parity: inline and pooled fits are bit-identical to the frozen
serial driver.

The determinism contract of :mod:`repro.engine.parallel` (DESIGN.md §11)
says that for any lake, any seed and any CPU count, ``discover`` /
``train_top_k`` return exactly the same thing — same ranked paths, same
scores, same selected features, same failure reports — whether the fits
run inline or in a pool.  Two layers pin it, each on one CPU and on two
(``tests.conftest.ROUTES``):

* the **golden matrix** compares both routes to
  ``tests/core/goldens/driver.json``, frozen from the classic
  ``_discover_serial`` / ``_train_serial`` loops at the last commit that
  had them (46971f6), with this PR's ``tests/`` copied over that
  checkout: ``PYTHONPATH=src python -m tests.core.driver_goldens``;
* the **hypothesis suite** compares the routes to each other over
  drawn lake topologies and seeds, including runs under fault injection.
"""

import json
import os
import subprocess
import sys
from functools import lru_cache
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import repro
from repro.core import AutoFeat, AutoFeatConfig
from repro.datasets import datalake_drg

from tests.conftest import ROUTES, cpus
from tests.core.driver_goldens import (
    HOP_CAPS,
    _lake,
    as_json,
    cell_keys,
    expected_cell,
    run_cell,
)
from tests.fault_hooks import FaultInjector


@pytest.mark.parametrize("route", ROUTES)
@pytest.mark.parametrize("lake", sorted(HOP_CAPS))
def test_backend_reproduces_frozen_serial_driver(lake, route):
    """traversal x seed x fault policy x budget, one lake per test."""
    mismatched = [
        key
        for key in cell_keys()
        if key.startswith(f"{lake}/")
        and as_json(run_cell(key, route)) != expected_cell(key)
    ]
    assert mismatched == []


def discovery_fingerprint(discovery):
    """Everything order- or value-sensitive in a DiscoveryResult."""
    return {
        "ranked": [
            (
                r.path.describe(),
                r.score,
                r.selected_features,
                r.relevance_scores,
                r.redundancy_scores,
                r.completeness,
                r.relevant_names,
            )
            for r in discovery.ranked_paths
        ],
        "explored": discovery.n_paths_explored,
        "pruned_quality": discovery.n_paths_pruned_quality,
        "pruned_similarity": discovery.n_joins_pruned_similarity,
        "empty_contribution": discovery.n_hops_empty_contribution,
        "failures": [
            (f.stage, f.error_kind, f.message, f.base_table, f.path, f.edge)
            for f in discovery.failure_report.records
        ],
    }


def _discover(drg, bundle, route, *, config_seed=0, hop_hook=None, **overrides):
    config = AutoFeatConfig(sample_size=120, seed=config_seed, **overrides)
    autofeat = AutoFeat(drg, config, hop_hook=hop_hook)
    with cpus(ROUTES[route]):
        return autofeat.discover(bundle.base_name, bundle.label_column)


@lru_cache(maxsize=16)
def _dense_lake(n_satellites, max_depth, seed):
    bundle, __ = _lake(n_satellites, max_depth, seed)
    return bundle, datalake_drg(bundle)


lakes = st.tuples(
    st.integers(min_value=3, max_value=6),  # n_satellites
    st.integers(min_value=1, max_value=3),  # max_depth
    st.integers(min_value=0, max_value=2),  # lake seed
)


@settings(
    max_examples=6,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large],
)
@given(
    lake=lakes,
    config_seed=st.integers(min_value=0, max_value=2),
    traversal=st.sampled_from(["bfs", "dfs"]),
)
def test_backends_bit_identical_on_random_lakes(lake, config_seed, traversal):
    bundle, drg = _lake(*lake)
    results = {
        route: discovery_fingerprint(
            _discover(drg, bundle, route, config_seed=config_seed, traversal=traversal)
        )
        for route in ROUTES
    }
    assert results["processes"] == results["serial"]


@settings(
    max_examples=4,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large],
)
@given(lake=lakes, fault_seed=st.integers(min_value=0, max_value=3))
def test_backends_bit_identical_under_fault_injection(lake, fault_seed):
    # The rediscovered (dense) DRG reaches a table over several paths, so
    # one faulty edge is attempted by several units.
    bundle, drg = _dense_lake(*lake)
    injector = FaultInjector(
        failure_probability=0.2, timeout_probability=0.1, seed=fault_seed
    )
    results = {
        route: discovery_fingerprint(_discover(drg, bundle, route, hop_hook=injector))
        for route in ROUTES
    }
    assert results["processes"] == results["serial"]


class TestEngineStatsParity:
    def test_engine_stats_identical_across_backends(self):
        bundle, drg = _lake(5, 3, 0)
        serial = _discover(drg, bundle, "serial")
        procs = _discover(drg, bundle, "processes")
        assert procs.engine_stats == serial.engine_stats

    def test_training_engine_stats_equal_across_pool_runs(self, pools):
        # Every join of training runs on the coordinator's one engine, so
        # its cache counters do not depend on which worker got which path.
        # At the default sample size the top 4 paths add 0, 2, 1 and 0
        # features: three distinct fits, so two CPUs pool them.
        bundle, drg = _lake(5, 2, 2)
        stats = []
        for route in ("processes", "processes", "serial"):
            autofeat = AutoFeat(drg, AutoFeatConfig())
            with cpus(ROUTES[route]):
                result = autofeat.augment(
                    bundle.base_name, bundle.label_column, "random_forest"
                )
            stats.append(result.engine_stats)
        assert pools == [2, 2]
        assert stats[0] == stats[1] == stats[2]
        assert stats[0].cache_hits > 0

    def test_selection_stats_identical_across_backends(self):
        bundle, drg = _lake(4, 2, 1)
        stats = [_discover(drg, bundle, route).selection_stats for route in ROUTES]
        assert stats[0] == stats[1]


class TestAugmentParity:
    """train_top_k merges trained paths deterministically too."""

    def test_full_pipeline_identical_across_backends(self, pools):
        bundle, drg = _lake(5, 2, 2)
        outputs = {}
        for route in ROUTES:
            # At the default sample size the top 3 paths add 0, 2 and 1
            # features: three distinct fits, so two CPUs pool them.
            config = AutoFeatConfig(seed=0, top_k=3)
            with cpus(ROUTES[route]):
                result = AutoFeat(drg, config).augment(
                    bundle.base_name, bundle.label_column, model_name="random_forest"
                )
            outputs[route] = {
                "trained": [
                    (t.ranked.path.describe(), t.accuracy, t.n_features_used)
                    for t in result.trained
                ],
                "best": result.best.ranked.path.describe(),
                "best_accuracy": result.best.accuracy,
                "columns": result.augmented_table.column_names,
                "failures": result.failure_report.records,
            }
        assert outputs["processes"] == outputs["serial"]
        assert pools == [2]


#: A slice of the golden matrix: every lake, fault mode and budget at
#: (bfs, seed 0) and (dfs, seed 1) — unbudgeted cells run augment("knn").
HASH_SEED_SLICE = [
    key for key in cell_keys() if key.split("/")[1:3] in (["bfs", "0"], ["dfs", "1"])
]

_REMOTE = """
import json, sys
from tests.conftest import ROUTES
from tests.core.driver_goldens import run_cell
keys = json.loads(sys.argv[1])
print(json.dumps({r: {k: run_cell(k, r) for k in keys} for r in ROUTES}))
"""


class TestHashSeed:
    def test_driver_is_independent_of_pythonhashseed(self):
        # Sets of strings iterate in PYTHONHASHSEED order; no ranking,
        # score, trained accuracy or failure record may follow it.
        assert any(key.endswith("/clean/unbudgeted") for key in HASH_SEED_SLICE)
        src = str(Path(repro.__file__).resolve().parent.parent)
        root = str(Path(__file__).resolve().parents[2])
        for seed in ("0", "4242"):
            env = {
                **os.environ,
                "PYTHONHASHSEED": seed,
                "PYTHONPATH": os.pathsep.join((src, root)),
            }
            done = subprocess.run(
                [sys.executable, "-c", _REMOTE, json.dumps(HASH_SEED_SLICE)],
                capture_output=True,
                env=env,
                timeout=600,
                check=True,
            )
            cells = json.loads(done.stdout)
            for route in ROUTES:
                mismatched = [
                    key
                    for key in HASH_SEED_SLICE
                    if cells[route][key] != expected_cell(key)
                ]
                assert mismatched == [], (seed, route)
