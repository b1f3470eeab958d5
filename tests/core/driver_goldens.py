"""Frozen outputs of the pre-collapse serial driver (``goldens/driver.json``).

``AutoFeat.discover`` / ``train_top_k`` once had a classic loop
(``_discover_serial`` / ``_train_serial``) next to the wave driver.  Before
the classic loops were deleted their output was frozen here, so the one
remaining driver is pinned — on one CPU and on two — to what the deleted code
produced, not merely to itself.

Generated at commit 46971f6 (the last one carrying the classic loops, where
``parallel_backend="serial"`` routes to them) with this PR's ``tests/``
copied over that checkout::

    PYTHONPATH=src python -m tests.core.driver_goldens

The matrix: three lakes (a random split lake, ``credit``, 600-row
``covertype``) x traversal {bfs, dfs} x seeds {0, 1} x {no faults, 30 %
injected faults} x {unbudgeted, ``max_hops`` with
the fifo frontier, ``max_hops`` with the ucb frontier}.  Unbudgeted cells run
the whole ``augment("knn")``; unbudgeted fault cells also train the clean
discovery's top-k under a fresh injector, because permanent faults met in
discovery never reach training otherwise.  A second section freezes the
diamond-lake stress runs of ``tests/core/test_parallel_faults.py``.

Two hand edits since.  When the redundancy kernel stopped dropping to the
scalar estimators (mask-grouped contingency counts score every pair), the
12 ``covertype`` cells whose ``selection.scalar_fallbacks`` was 2, 4 or 6
were set to 0 — those 12 integers and nothing else; every ranking, score,
engine counter and the other four selection counters are the frozen bytes.
When the ``retry`` policy was deleted, the lines of its 40 cells were
deleted (matrix ``*/retry/*``, diamond ``stress/retry/*`` and
``budget0/retry``) and nothing else: the file keeps one cell per line, and
:func:`load_goldens` reads it line by line (the last matrix cell it lost
leaves a trailing comma) and drops the ``retries`` field the failure
records were frozen with, after checking it is 0.  When the ``fail_fast``
policy was deleted (every run skips and records), the lines of its 39 cells
were deleted the same way — the 36 matrix cells ``*/fail_fast/*`` and the
three diamond cells ``stress/fail_fast/*`` — and nothing else, so
:data:`POLICIES` holds one value.  No remaining matrix cell raises;
``budget0/skip_and_record`` is reproduced with the module constant
``repro.engine.faults.ERROR_BUDGET`` pinned to 0
(:func:`tests.conftest.error_budget`).
"""

from __future__ import annotations

import copy
import json
from contextlib import contextmanager
from dataclasses import asdict, replace
from functools import lru_cache
from itertools import product
from pathlib import Path

from repro import ml
from repro.core import AutoFeat, AutoFeatConfig
from repro.datasets import (
    DATASETS,
    benchmark_drg,
    make_classification,
    split_into_lake,
)
from repro.datasets.splitter import SplitPlan
from repro.engine import parallel

from tests.conftest import ROUTES, cpus, error_budget
from tests.fault_hooks import FaultInjector

GOLDENS_PATH = Path(__file__).parent / "goldens" / "driver.json"

POLICIES = ("skip_and_record",)

#: lake name -> the ``max_hops`` cap of its budgeted cells (about half of
#: the hops an unbudgeted run executes, so the cut lands mid-traversal).
HOP_CAPS = {"split": 3, "credit": 3, "covertype": 6}
TRAVERSALS = ("bfs", "dfs")
SEEDS = (0, 1)
FAULT_MODES = ("clean",) + POLICIES
BUDGETS = ("unbudgeted", "fifo", "ucb")


@lru_cache(maxsize=16)
def _lake(n_satellites: int, max_depth: int, seed: int):
    """Small deterministic snowflake lake (cached across examples)."""
    flat = make_classification(
        n_rows=240,
        n_informative=5,
        n_redundant=2,
        n_noise=3,
        class_sep=1.6,
        seed=seed,
    )
    plan = SplitPlan(
        name=f"lake{n_satellites}d{max_depth}s{seed}",
        n_satellites=n_satellites,
        n_base_features=2,
        max_depth=max_depth,
        match_rate_range=(0.75, 1.0),
        seed=seed,
    )
    bundle = split_into_lake(flat, plan)
    return bundle, bundle.benchmark_drg()


@lru_cache(maxsize=None)
def golden_lake(name: str):
    """``(bundle, drg)`` of one of the three golden lakes."""
    if name == "split":
        return _lake(4, 2, 0)
    spec = DATASETS[name]
    if name == "covertype":
        spec = replace(spec, rows=600)
    bundle = split_into_lake(spec.flat(), spec.plan())
    return bundle, benchmark_drg(bundle)


def cell_keys() -> list[str]:
    """Every ``lake/traversal/seed/faults/budget`` cell, in file order."""
    return [
        "/".join(map(str, cell))
        for cell in product(HOP_CAPS, TRAVERSALS, SEEDS, FAULT_MODES, BUDGETS)
    ]


def as_json(value):
    """``value`` as it reads back from the goldens file (tuples -> lists)."""
    return json.loads(json.dumps(value))


def failure_records(report) -> list:
    return [
        [f.stage, f.error_kind, f.message, f.base_table, f.path, f.edge]
        for f in report.records
    ]


def engine_counters(stats) -> dict:
    """Engine counters every route must reproduce: every join runs on
    the coordinator's one engine, so all of them are exact."""
    return {
        "hops_executed": stats.hops_executed,
        "rows_probed": stats.rows_probed,
        "cache_lookups": stats.cache_hits + stats.cache_misses,
        "index_builds": stats.index_builds,
        "cache_hits": stats.cache_hits,
        "cache_misses": stats.cache_misses,
    }


def discovery_record(discovery) -> dict:
    return {
        "ranked": [
            [
                r.path.describe(),
                float(r.score).hex(),
                list(r.selected_features),
                list(r.relevant_names),
                float(r.completeness).hex(),
            ]
            for r in discovery.ranked_paths
        ],
        "explored": discovery.n_paths_explored,
        "pruned_quality": discovery.n_paths_pruned_quality,
        "pruned_similarity": discovery.n_joins_pruned_similarity,
        "empty_contribution": discovery.n_hops_empty_contribution,
        "budget_exhausted": discovery.budget_exhausted,
        "failures": failure_records(discovery.failure_report),
        "engine": engine_counters(discovery.engine_stats),
        "selection": asdict(discovery.selection_stats),
    }


def training_record(result, with_engine: bool) -> dict:
    record = {
        "trained": [
            [t.ranked.path.describe(), float(t.accuracy).hex(), t.n_features_used]
            for t in result.trained
        ],
        "best": result.best.ranked.path.describe() if result.best else None,
        "columns": (
            list(result.augmented_table.column_names)
            if result.augmented_table is not None
            else None
        ),
        "failures": failure_records(result.failure_report),
    }
    if with_engine:
        # Pinned on clean runs only.  The fault cells were frozen without
        # training engine counters, because the wave driver of the time
        # planned faults before dispatch and charged no join work to a
        # path ending in one, unlike the classic loop.  Units now charge
        # the partial path up to the faulting edge, as the classic loop
        # did, but the file holds nothing to compare that with.
        record["engine"] = engine_counters(result.engine_stats)
    return record


def distinct_fits(trained) -> int:
    """Fits a memo-less ``train_top_k`` makes for its ``trained`` paths: its
    slot rule gives one fit per distinct pair of the path's edges up to the
    last hop whose target table holds a kept feature and the kept features,
    in order (a path that adds none has the empty prefix)."""
    slots = set()
    for t in trained:
        kept = tuple(t.ranked.selected_features)
        edges = t.ranked.path.edges
        last = max((i + 1 for i, edge in enumerate(edges)
                    if any(f.startswith(f"{edge.target}.") for f in kept)), default=0)
        slots.add((edges[:last], kept))
    return len(slots)


def _autofeat(lake, traversal, seed, faults, budget) -> AutoFeat:
    __, drg = golden_lake(lake)
    overrides = {}
    injector = None
    if faults != "clean":
        injector = FaultInjector(
            failure_probability=0.2, timeout_probability=0.1, seed=seed
        )
    if budget != "unbudgeted":
        overrides.update(max_hops=HOP_CAPS[lake], frontier_strategy=budget)
    config = AutoFeatConfig(
        sample_size=200,
        seed=seed,
        traversal=traversal,
        top_k=3,
        **overrides,
    )
    return AutoFeat(drg, config, hop_hook=injector)


@lru_cache(maxsize=None)
def _clean_discovery(lake: str, traversal: str, seed: int):
    bundle, __ = golden_lake(lake)
    autofeat = _autofeat(lake, traversal, seed, "clean", "unbudgeted")
    return autofeat.discover(bundle.base_name, bundle.label_column)


def run_cell(key: str, route: str) -> dict:
    """Run one matrix cell on the CPUs of ``route`` (:data:`ROUTES`); the
    JSON-able record to compare.

    The cells train ``knn``, which the rule fits inline, so on the
    ``processes`` route ``knn`` is made a tree model for the cell: every
    training call with two or more distinct fits then pools them, and the
    route checks that a pool of two workers started for each of them.
    Without a memo, paths that keep the same features along the same edges
    share one fit (:func:`distinct_fits`).
    """
    if route == "serial":
        with cpus(ROUTES[route]):
            return _run_cell(key)[0]
    started = []
    fit_pool = parallel.fit_pool

    def counted(workers):
        started.append(workers)
        return fit_pool(workers)

    with cpus(ROUTES[route]), _patched(ml, "TREE_MODELS", ml.TREE_MODELS + ("knn",)):
        with _patched(parallel, "fit_pool", counted):
            record, trainings = _run_cell(key)
    expected = [2 for trained in trainings if distinct_fits(trained) >= 2]
    assert started == expected, (key, started)
    return record


@contextmanager
def _patched(module, name, value):
    saved = getattr(module, name)
    setattr(module, name, value)
    try:
        yield
    finally:
        setattr(module, name, saved)


def _run_cell(key: str) -> tuple[dict, list]:
    """The cell's record and the ``trained`` paths of each training call."""
    lake, traversal, seed, faults, budget = key.split("/")
    seed = int(seed)
    bundle, __ = golden_lake(lake)
    autofeat = _autofeat(lake, traversal, seed, faults, budget)
    if budget != "unbudgeted":
        discovery = autofeat.discover(bundle.base_name, bundle.label_column)
        return {"discovery": discovery_record(discovery)}, []

    result = autofeat.augment(bundle.base_name, bundle.label_column, "knn")
    record = {
        "discovery": discovery_record(result.discovery),
        "training": training_record(result, with_engine=faults == "clean"),
    }
    trainings = [result.trained]
    if faults != "clean":
        fresh = _autofeat(lake, traversal, seed, faults, budget)
        trained = fresh.train_top_k(_clean_discovery(lake, traversal, seed), "knn")
        record["training_of_clean"] = training_record(trained, with_engine=False)
        trainings.append(trained.trained)
    return record, trainings


def _without_retries(records: list) -> list:
    """Failure records as the current code writes them: the frozen ones end
    in the deleted ``retries`` field, 0 outside the ``retry`` cells."""
    for record in records:
        assert record[-1] == 0, record
    return [record[:-1] for record in records]


@lru_cache(maxsize=None)
def load_goldens() -> dict:
    """``{section: {key: cell}}``, one cell per ``  "key": value,`` line."""
    goldens: dict = {}
    for line in GOLDENS_PATH.read_text().splitlines():
        if line.startswith('  "'):
            key, value = line.strip().rstrip(",").split(": ", 1)
            section[json.loads(key)] = json.loads(value)
        elif line.startswith(' "'):
            section = goldens.setdefault(json.loads(line.split(":")[0]), {})
    for cell in goldens["matrix"].values():
        for part in cell.values():
            if isinstance(part, dict) and "failures" in part:
                part["failures"] = _without_retries(part["failures"])
    diamond = goldens["diamond"]
    for key, run in diamond.items():
        if run[0] == "ok" or key == "training":
            run[1] = _without_retries(run[1])
    return goldens


def expected_cell(key: str) -> dict:
    """The golden record of ``key``, which every route must reproduce."""
    return copy.deepcopy(load_goldens()["matrix"][key])


def _generate() -> dict:
    # Lazy: the test module imports this one for ``load_goldens``.
    from tests.core import test_parallel_faults as stress

    drg = stress.diamond_lake()
    diamond = {}
    for policy, fault_seed in product(POLICIES, (0, 1, 2)):
        diamond[f"stress/{policy}/{fault_seed}"] = stress.run_discovery(
            drg, "serial", fault_seed=fault_seed
        )
    with error_budget(0):
        diamond["budget0/skip_and_record"] = stress.run_discovery(drg, "serial")
    diamond["training"] = stress.run_training(drg, "serial")
    return {
        "matrix": {key: run_cell(key, "serial") for key in cell_keys()},
        "diamond": diamond,
    }


if __name__ == "__main__":
    GOLDENS_PATH.parent.mkdir(exist_ok=True)
    lines = []
    for section, cells in _generate().items():
        body = ",\n".join(
            f"  {json.dumps(key)}: {json.dumps(cell, separators=(',', ':'))}"
            for key, cell in cells.items()
        )
        lines.append(f' {json.dumps(section)}: {{\n{body}\n }}')
    GOLDENS_PATH.write_text("{\n" + ",\n".join(lines) + "\n}\n")
    print(f"wrote {GOLDENS_PATH}")
