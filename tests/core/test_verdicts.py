"""The verdict log: one decision per generated hop, every count read off it.

``AutoFeat.discover`` turns each hop it runs into exactly one
:class:`~repro.core.HopVerdict`, and each parallel join option similarity
pruning drops into one ``similarity`` verdict.  Over the frozen driver
matrix (``tests/core/goldens/driver.json``) on one CPU and on two this suite
checks that the log accounts for every hop, that its reductions are the
golden counters, and that it is the same log on both; a deadline
run checks that the one aborted hop is logged last but not counted as
explored.
"""

from functools import lru_cache

import pytest

from repro.core import AutoFeat, AutoFeatConfig
from repro.core.result import EXPLORED_KINDS
from repro.engine import JoinEngine

from tests.conftest import ROUTES, cpus
from tests.core.driver_goldens import (
    HOP_CAPS,
    _autofeat,
    cell_keys,
    expected_cell,
    golden_lake,
)
from tests.core.test_parallel_faults import diamond_lake
from tests.fault_hooks import HopLatency


def logged_discover(autofeat, base, label, monkeypatch):
    """``(discovery, hops run)`` of one ``discover`` call: every hop
    enters at ``JoinEngine.probe_hop``, with the path it extends."""
    handed = []
    probe_hop = JoinEngine.probe_hop

    def recording(self, current, edge, base_name, path=None, **kwargs):
        handed.append((path, edge))
        return probe_hop(self, current, edge, base_name, path=path, **kwargs)

    with monkeypatch.context() as patch:
        patch.setattr(JoinEngine, "probe_hop", recording)
        return autofeat.discover(base, label), handed


@lru_cache(maxsize=None)
def run_logged(key: str, route: str):
    """One matrix cell's ``(discovery, hops run)``."""
    lake, traversal, seed, faults, budget = key.split("/")
    bundle, __ = golden_lake(lake)
    autofeat = _autofeat(lake, traversal, int(seed), faults, budget)
    with cpus(ROUTES[route]), pytest.MonkeyPatch.context() as monkeypatch:
        return logged_discover(
            autofeat, bundle.base_name, bundle.label_column, monkeypatch
        )


def lake_cells(lake: str) -> list[str]:
    return [key for key in cell_keys() if key.startswith(f"{lake}/")]


@pytest.mark.parametrize("route", ROUTES)
@pytest.mark.parametrize("lake", sorted(HOP_CAPS))
def test_every_cell_logs_one_verdict_per_hop(lake, route):
    for key in lake_cells(lake):
        golden = expected_cell(key)
        discovery, handed = run_logged(key, route)
        hops = [v for v in discovery.verdicts if v.kind != "similarity"]
        # Exactly one hop verdict per probed hop, in the order they ran.
        assert [(v.path, v.edge) for v in hops] == handed, key
        similarity = [v for v in discovery.verdicts if v.kind == "similarity"]
        assert len(similarity) == golden["discovery"]["pruned_similarity"], key
        assert all(v.edge.weight < v.kept_weight for v in similarity), key
        assert discovery.n_paths_explored == (
            len(discovery.ranked_paths)
            + discovery.n_paths_pruned_quality
            + len(discovery.failure_report.records)
        ), key
        assert discovery.n_paths_explored == golden["discovery"]["explored"], key


@pytest.mark.parametrize("lake", sorted(HOP_CAPS))
def test_verdict_logs_equal_across_backends(lake):
    # No matrix cell sets budget_seconds: every cut is a max_hops cut.
    for key in lake_cells(lake):
        serial, processes = (run_logged(key, route) for route in ROUTES)
        assert serial[0].verdicts == processes[0].verdicts, key


@pytest.mark.parametrize("route", ROUTES)
def test_deadline_aborts_are_logged_but_not_explored(route, monkeypatch):
    # Each hop sleeps past the deadline, so the engine's check after the
    # index build aborts the first one, and that abort ends the run.
    config = AutoFeatConfig(sample_size=100, budget_seconds=0.2)
    autofeat = AutoFeat(diamond_lake(n=120), config, hop_hook=HopLatency(0.3))
    with cpus(ROUTES[route]):
        discovery, handed = logged_discover(autofeat, "base", "label", monkeypatch)
    assert discovery.budget_exhausted
    hops = [v for v in discovery.verdicts if v.kind != "similarity"]
    assert [(v.path, v.edge) for v in hops] == handed
    aborted = [v for v in hops if v.kind == "deadline"]
    assert aborted == hops[-1:], "exactly one deadline verdict, and it is last"
    explored = len(hops) - len(aborted)
    assert explored == sum(v.kind in EXPLORED_KINDS for v in hops)
    assert discovery.n_paths_explored == explored
    assert discovery.navigation.hops_executed == explored
    counters = discovery.run_manifest.metrics["counters"]
    assert counters["discovery.paths_explored"] == explored
