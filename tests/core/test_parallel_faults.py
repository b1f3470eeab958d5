"""Stress: discovery under heavy fault injection, every policy and backend.

Runs the diamond lake of ``test_fault_isolation`` through ``discover``
with 30% injected failure rates across all three ``FailurePolicy`` modes
and both backends, asserting the degradation contract against the
outputs frozen from the deleted classic serial loop
(``tests/core/driver_goldens.py`` records how they were generated):

* failure reports (kinds, messages, edges, retry counts) are identical to
  the goldens for every (policy, backend, seed) combination;
* the shared error budget trips **exactly once**, at the same canonical
  failure as the classic loop did — not once per worker;
* same-seed runs are bit-reproducible;
* unexpected worker exceptions (outside the managed ``JoinError`` /
  ``FaultError`` family) are never swallowed by the pool.
"""

import os

import numpy as np
import pytest

from repro.core import AutoFeat, AutoFeatConfig
from repro.dataframe import Table
from repro.engine import FaultInjector, JoinEngine
from repro.errors import ErrorBudgetExceeded, FaultError, InjectedFaultError
from repro.graph import DatasetRelationGraph, KFKConstraint

from tests.core.driver_goldens import BACKENDS, POLICIES, as_json, load_goldens


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


def run_discovery(drg, backend, policy, *, fault_seed=0, injector_kwargs=None,
                  **overrides):
    """One discovery run; returns ('ok', fingerprint) or ('raised', ...)."""
    kwargs = {"failure_probability": 0.3, "timeout_probability": 0.15,
              "seed": fault_seed}
    kwargs.update(injector_kwargs or {})
    config = AutoFeatConfig(
        sample_size=200,
        seed=1,
        parallel_backend=backend,
        failure_policy=policy,
        max_retries=2,
        **overrides,
    )
    autofeat = AutoFeat(drg, config, hop_hook=FaultInjector(**kwargs))
    try:
        discovery = autofeat.discover("base", "label")
    except FaultError as exc:
        return ("raised", type(exc).__name__, str(exc))
    return (
        "ok",
        [
            (f.stage, f.error_kind, f.message, f.base_table, f.path, f.edge, f.retries)
            for f in discovery.failure_report.records
        ],
        [(r.path.describe(), r.score, r.selected_features)
         for r in discovery.ranked_paths],
    )


@pytest.mark.parametrize("backend", BACKENDS)
@pytest.mark.parametrize("policy", POLICIES)
@pytest.mark.parametrize("fault_seed", (0, 1, 2))
def test_30pct_fault_stress_matches_serial(drg, backend, policy, fault_seed):
    run = run_discovery(drg, backend, policy, fault_seed=fault_seed)
    assert as_json(run) == golden(f"stress/{policy}/{fault_seed}")


@pytest.mark.parametrize("backend", BACKENDS)
@pytest.mark.parametrize("policy", ("skip_and_record", "retry"))
def test_error_budget_trips_exactly_once(drg, backend, policy):
    # Budget 0: the first recorded failure aborts the run.  Every backend
    # must raise the *same* ErrorBudgetExceeded as the classic loop did —
    # same message, same failure count, same last edge — which proves the
    # budget is shared at the merge point and tripped once, not once per
    # worker.
    frozen = golden(f"budget0/{policy}")
    assert frozen[0] == "raised"
    assert frozen[1] == "ErrorBudgetExceeded"
    assert "1 failures exceed the budget of 0" in frozen[2]
    assert as_json(run_discovery(drg, backend, policy, error_budget=0)) == frozen


@pytest.mark.parametrize("backend", BACKENDS)
def test_budget_trip_is_typed_and_catchable(drg, backend):
    config = AutoFeatConfig(
        sample_size=200, seed=1, parallel_backend=backend,
        failure_policy="skip_and_record", error_budget=0,
    )
    autofeat = AutoFeat(
        drg, config, hop_hook=FaultInjector(failure_probability=0.3, seed=0)
    )
    with pytest.raises(ErrorBudgetExceeded):
        autofeat.discover("base", "label")


@pytest.mark.parametrize("backend", BACKENDS)
@pytest.mark.parametrize("policy", POLICIES)
def test_same_seed_runs_are_reproducible(drg, backend, policy):
    first = run_discovery(drg, backend, policy, fault_seed=0)
    second = run_discovery(drg, backend, policy, fault_seed=0)
    assert first == second


@pytest.mark.parametrize("backend", BACKENDS)
def test_retry_with_transient_faults_recovers_cleanly(drg, backend):
    # recover_after=1: every injected fault clears on its first retry, so
    # the retry policy ends with an empty report and the full ranked set.
    clean = run_discovery(drg, "serial", "skip_and_record",
                          injector_kwargs={"failure_probability": 0.0,
                                           "timeout_probability": 0.0})
    recovered = run_discovery(drg, backend, "retry",
                              injector_kwargs={"recover_after": 1})
    assert recovered[0] == "ok"
    assert recovered[1] == []  # nothing recorded: all faults retried away
    assert recovered[2] == clean[2]


@pytest.mark.parametrize("backend", BACKENDS)
def test_unexpected_worker_exception_is_not_swallowed(drg, backend, monkeypatch):
    # A bug in the join kernel (anything outside JoinError/FaultError) must
    # re-raise on the coordinating thread, never turn into a skipped path.
    original = JoinEngine.apply_hop

    def exploding(self, current, edge, base_name, path=None, attempt=0):
        if edge.target == "c":
            raise RuntimeError("worker bug: corrupted index")
        return original(self, current, edge, base_name, path=path, attempt=attempt)

    monkeypatch.setattr(JoinEngine, "apply_hop", exploding)
    config = AutoFeatConfig(
        sample_size=200, seed=1, parallel_backend=backend,
        failure_policy="skip_and_record",
    )
    with pytest.raises(RuntimeError, match="worker bug"):
        AutoFeat(drg, config).discover("base", "label")


def run_training(drg, backend):
    config = AutoFeatConfig(
        sample_size=200, seed=1, parallel_backend=backend,
        failure_policy="skip_and_record", top_k=3,
    )
    autofeat = AutoFeat(
        drg, config,
        hop_hook=FaultInjector(failure_probability=0.3, seed=0),
    )
    result = autofeat.augment("base", "label", model_name="random_forest")
    return (
        [(t.ranked.path.describe(), t.accuracy) for t in result.trained],
        [(f.stage, f.error_kind, f.message, f.path, f.retries)
         for f in result.failure_report.records],
    )


@pytest.mark.parametrize("backend", BACKENDS)
def test_training_phase_fault_parity(drg, backend):
    assert as_json(run_training(drg, backend)) == golden("training")


def hop_budget_run(drg, backend, **budget):
    config = AutoFeatConfig(
        sample_size=200, seed=1, parallel_backend=backend,
        failure_policy="retry", max_retries=2, **budget,
    )
    discovery = AutoFeat(drg, config).discover("base", "label")
    first_level = {"base.a_key->a.a_key", "base.b_key->b.b_key"}
    records = discovery.failure_report.records
    assert {r.edge for r in records} == first_level and len(records) == 2
    assert all(r.error_kind == "HopBudgetExceeded" and r.retries == 2 for r in records)
    assert discovery.ranked_paths == ()
    return discovery


def test_real_row_cap_errors_are_retried_inside_the_unit(drg):
    # No injector: the engine's own pre-join guard fails every attempt, so
    # every hop is recorded after its retries and no join ever executes.
    runs = [hop_budget_run(drg, b, max_hop_output_rows=1) for b in BACKENDS]
    assert runs[0].failure_report == runs[1].failure_report
    assert all(run.engine_stats.hops_executed == 0 for run in runs)


def test_real_hop_timeouts_are_retried_inside_the_unit(drg):
    # A 1 ns wall-clock budget makes every real hop too slow: each of the
    # two first-level hops joins three times before it is recorded.  The
    # message carries the measured time, so compare the rest.
    runs = [hop_budget_run(drg, b, hop_timeout_seconds=1e-9) for b in BACKENDS]
    where = [
        [(r.stage, r.base_table, r.path, r.edge) for r in run.failure_report.records]
        for run in runs
    ]
    assert where[0] == where[1]
    assert all(run.engine_stats.hops_executed == 6 for run in runs)


class PidFault:
    """Hop hook failing every hop with the pid of the process it ran in."""

    def __call__(self, edge, attempt):
        raise InjectedFaultError(f"pid={os.getpid()}")


def test_pool_workers_consult_the_hop_hook_themselves(drg):
    config = AutoFeatConfig(sample_size=200, seed=1, parallel_backend="processes")
    discovery = AutoFeat(drg, config, hop_hook=PidFault()).discover("base", "label")
    records = discovery.failure_report.records
    assert len(records) == 2
    for record in records:
        assert record.message.startswith("pid=")
        assert not record.message.startswith(f"pid={os.getpid()};")
