"""Stress: discovery under heavy fault injection, on every route.

Runs the diamond lake of ``test_fault_isolation`` through ``discover``
with 30% injected failure rates on one CPU and on two
(``tests.conftest.ROUTES``), asserting the degradation contract against
the outputs frozen from the deleted classic serial loop
(``tests/core/driver_goldens.py`` records how they were generated):

* failure reports (kinds, messages, edges) are identical to the goldens
  for every (route, seed) combination;
* the shared error budget trips **exactly once**, at the same canonical
  failure as the classic loop did;
* same-seed runs are bit-reproducible;
* unexpected exceptions (outside the managed ``JoinError`` /
  ``FaultError`` family) are never swallowed.
"""

import numpy as np
import pytest

from repro import ml
from repro.core import AutoFeat, AutoFeatConfig
from repro.dataframe import Table
from repro.engine import JoinEngine
from repro.errors import ErrorBudgetExceeded, FaultError
from repro.graph import DatasetRelationGraph, KFKConstraint

from tests.conftest import ROUTES, cpus, error_budget
from tests.core.driver_goldens import POLICIES, as_json, load_goldens
from tests.fault_hooks import FaultInjector


def golden(key):
    return load_goldens()["diamond"][key]


def diamond_lake(n=400, seed=3):
    rng = np.random.default_rng(seed)
    ids = np.arange(n)
    a_key = rng.permutation(n) + 1_000
    b_key = rng.permutation(n) + 5_000
    shared = rng.permutation(n) + 9_000
    signal = rng.normal(0, 1, n)
    label = ((signal + rng.normal(0, 0.3, n)) > 0).astype(int)
    base = Table(
        {
            "id": ids,
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


def run_discovery(drg, route, *, fault_seed=0):
    """One discovery run on the CPUs of ``route``; returns ('ok',
    fingerprint) or ('raised', ...)."""
    injector = FaultInjector(
        failure_probability=0.3, timeout_probability=0.15, seed=fault_seed
    )
    autofeat = AutoFeat(drg, AutoFeatConfig(sample_size=200, seed=1), hop_hook=injector)
    try:
        with cpus(ROUTES[route]):
            discovery = autofeat.discover("base", "label")
    except FaultError as exc:
        return ("raised", type(exc).__name__, str(exc))
    return (
        "ok",
        [
            (f.stage, f.error_kind, f.message, f.base_table, f.path, f.edge)
            for f in discovery.failure_report.records
        ],
        [(r.path.describe(), r.score, r.selected_features)
         for r in discovery.ranked_paths],
    )


@pytest.mark.parametrize("route", ROUTES)
@pytest.mark.parametrize("policy", POLICIES)
@pytest.mark.parametrize("fault_seed", (0, 1, 2))
def test_30pct_fault_stress_matches_serial(drg, route, policy, fault_seed):
    run = run_discovery(drg, route, fault_seed=fault_seed)
    assert as_json(run) == golden(f"stress/{policy}/{fault_seed}")


@pytest.mark.parametrize("route", ROUTES)
@pytest.mark.parametrize("policy", ("skip_and_record",))
def test_error_budget_trips_exactly_once(drg, route, policy):
    # Budget 0: the first recorded failure aborts the run.  Every route
    # must raise the *same* ErrorBudgetExceeded as the classic loop did —
    # same message, same failure count, same last edge — which proves the
    # budget is shared at the merge point and tripped once, not once per
    # worker.
    frozen = golden(f"budget0/{policy}")
    assert frozen[0] == "raised"
    assert frozen[1] == "ErrorBudgetExceeded"
    assert "1 failures exceed the budget of 0" in frozen[2]
    with error_budget(0):
        assert as_json(run_discovery(drg, route)) == frozen


@pytest.mark.parametrize("route", ROUTES)
def test_budget_trip_is_typed_and_catchable(drg, route):
    config = AutoFeatConfig(sample_size=200, seed=1)
    autofeat = AutoFeat(
        drg, config, hop_hook=FaultInjector(failure_probability=0.3, seed=0)
    )
    with error_budget(0), cpus(ROUTES[route]), pytest.raises(ErrorBudgetExceeded):
        autofeat.discover("base", "label")


@pytest.mark.parametrize("route", ROUTES)
@pytest.mark.parametrize("policy", POLICIES)
def test_same_seed_runs_are_reproducible(drg, route, policy):
    first = run_discovery(drg, route, fault_seed=0)
    second = run_discovery(drg, route, fault_seed=0)
    assert first == second


@pytest.mark.parametrize("route", ROUTES)
def test_unexpected_worker_exception_is_not_swallowed(drg, route, monkeypatch):
    # A bug in the join kernel (anything outside JoinError/FaultError) must
    # re-raise on the coordinating thread, never turn into a skipped path.
    original = JoinEngine.probe_hop

    def exploding(self, current, edge, base_name, **kwargs):
        if edge.target == "c":
            raise RuntimeError("worker bug: corrupted index")
        return original(self, current, edge, base_name, **kwargs)

    monkeypatch.setattr(JoinEngine, "probe_hop", exploding)
    config = AutoFeatConfig(sample_size=200, seed=1)
    with cpus(ROUTES[route]), pytest.raises(RuntimeError, match="worker bug"):
        AutoFeat(drg, config).discover("base", "label")


def run_training(drg, route):
    config = AutoFeatConfig(sample_size=200, seed=1, top_k=3)
    autofeat = AutoFeat(
        drg, config,
        hop_hook=FaultInjector(failure_probability=0.3, seed=0),
    )
    with cpus(ROUTES[route]):
        result = autofeat.augment("base", "label", model_name="random_forest")
    return (
        [(t.ranked.path.describe(), t.accuracy) for t in result.trained],
        [(f.stage, f.error_kind, f.message, f.path)
         for f in result.failure_report.records],
    )


@pytest.mark.parametrize("route", ROUTES)
def test_training_phase_fault_parity(drg, route, pools):
    assert as_json(run_training(drg, route)) == golden("training")
    # Two paths train, so random_forest pools them on two CPUs.
    assert pools == ([2] if route == "processes" else [])


_evaluate_accuracy = ml.evaluate_accuracy

#: The file :func:`logged_fit` appends one line per fit to; pool workers
#: forked after a test sets it share it.
FIT_LOG = None


def logged_fit(*fit):
    """The real fit, logged: found by name in a forked worker."""
    with open(FIT_LOG, "a") as log:
        log.write("fit\n")
    return _evaluate_accuracy(*fit)


#: Per-path accuracies of the diamond lake's top 6 (``lightgbm``, default
#: config), frozen from the loop that fitted every path: four paths add no
#: feature, two add ``c.signal``.
TOP_6 = [
    ("base.b_key -> b.b_key | b.shared_key -> c.shared_key", "0x1.8cccccccccccdp-2"),
    ("base.a_key -> a.a_key | a.shared_key -> c.shared_key", "0x1.b99999999999ap-1"),
    ("base.a_key -> a.a_key", "0x1.8cccccccccccdp-2"),
    ("base.b_key -> b.b_key", "0x1.8cccccccccccdp-2"),
    ("base.a_key -> a.a_key | a.shared_key -> c.shared_key | c.shared_key -> b.shared_key",
     "0x1.b99999999999ap-1"),
    ("base.b_key -> b.b_key | b.shared_key -> c.shared_key | c.shared_key -> a.shared_key",
     "0x1.8cccccccccccdp-2"),
]


@pytest.mark.parametrize("route", ROUTES)
def test_memoless_training_fits_the_base_only_model_once(drg, route, tmp_path, monkeypatch, pools):
    """Without a memo, paths that keep the same features along the same
    edges share one fit: 2 fits for the top 6 (the four that add no feature,
    and ``a -> c`` with ``a -> c -> b``, which keep only ``c.signal``), not
    6, with each path's accuracy unchanged."""
    global FIT_LOG
    FIT_LOG = tmp_path / "fits.log"
    monkeypatch.setattr(ml, "evaluate_accuracy", logged_fit)
    with cpus(ROUTES[route]):
        result = AutoFeat(drg, AutoFeatConfig(top_k=6)).augment("base", "label", "lightgbm")
    assert [(t.ranked.path.describe(), t.accuracy.hex()) for t in result.trained] == TOP_6
    assert FIT_LOG.read_text().count("fit") == 2
    assert pools == ([2] if route == "processes" else [])
