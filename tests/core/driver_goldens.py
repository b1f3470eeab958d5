"""Frozen outputs of the pre-collapse serial driver (``goldens/driver.json``).

``AutoFeat.discover`` / ``train_top_k`` once had a classic loop
(``_discover_serial`` / ``_train_serial``) next to the wave driver.  Before
the classic loops were deleted their output was frozen here, so the one
remaining driver is pinned — on every backend — to what the deleted code
produced, not merely to itself.

Generated at commit 46971f6 (the last one carrying the classic loops, where
``parallel_backend="serial"`` routes to them) with this PR's ``tests/``
copied over that checkout::

    PYTHONPATH=src python -m tests.core.driver_goldens

The matrix: three lakes (a random split lake, ``credit``, 600-row
``covertype``) x traversal {bfs, dfs} x seeds {0, 1} x {no faults, 30 %
injected faults under each failure policy} x {unbudgeted, ``max_hops`` with
the fifo frontier, ``max_hops`` with the ucb frontier}.  Unbudgeted cells run
the whole ``augment("knn")``; unbudgeted fault cells also train the clean
discovery's top-k under a fresh injector, because permanent faults met in
discovery never reach training otherwise.  A second section freezes the
diamond-lake stress runs of ``tests/core/test_parallel_faults.py``.

One hand edit since: when the redundancy kernel stopped dropping to the
scalar estimators (mask-grouped contingency counts score every pair), the
12 ``covertype`` cells whose ``selection.scalar_fallbacks`` was 2, 4 or 6
were set to 0 — those 12 integers and nothing else; every ranking, score,
engine counter and the other four selection counters are the frozen bytes.
"""

from __future__ import annotations

import copy
import json
from dataclasses import asdict, replace
from functools import lru_cache
from itertools import product
from pathlib import Path

from repro.core import AutoFeat, AutoFeatConfig
from repro.datasets import (
    DATASETS,
    benchmark_drg,
    make_classification,
    split_into_lake,
)
from repro.datasets.splitter import SplitPlan
from repro.engine import FaultInjector
from repro.errors import FaultError

GOLDENS_PATH = Path(__file__).parent / "goldens" / "driver.json"

BACKENDS = ("serial", "processes")
POLICIES = ("fail_fast", "skip_and_record", "retry")

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
        [f.stage, f.error_kind, f.message, f.base_table, f.path, f.edge, f.retries]
        for f in report.records
    ]


def engine_counters(stats, backend: str) -> dict:
    """Engine counters a backend must reproduce.

    ``processes`` keeps one hop cache per worker, so only the join work and
    the number of cache lookups are invariant there, not the hit/miss split.
    """
    counters = {
        "hops_executed": stats.hops_executed,
        "rows_probed": stats.rows_probed,
        "cache_lookups": stats.cache_hits + stats.cache_misses,
    }
    if backend != "processes":
        counters.update(
            index_builds=stats.index_builds,
            cache_hits=stats.cache_hits,
            cache_misses=stats.cache_misses,
        )
    return counters


def discovery_record(discovery, backend: str) -> dict:
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
        "engine": engine_counters(discovery.engine_stats, backend),
        "selection": asdict(discovery.selection_stats),
    }


def training_record(result, backend: str, with_engine: bool) -> dict:
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
        record["engine"] = engine_counters(result.engine_stats, backend)
    return record


def _raised(exc: Exception) -> dict:
    return {"raised": [type(exc).__name__, str(exc)]}


def _autofeat(lake, traversal, seed, faults, budget, backend) -> AutoFeat:
    __, drg = golden_lake(lake)
    overrides = {}
    injector = None
    if faults != "clean":
        overrides.update(failure_policy=faults, max_retries=2)
        # Transient under (retry, seed 1): the retries recover the hop.
        injector = FaultInjector(
            failure_probability=0.2,
            timeout_probability=0.1,
            seed=seed,
            recover_after=seed if faults == "retry" else 0,
        )
    if budget != "unbudgeted":
        overrides.update(max_hops=HOP_CAPS[lake], frontier_strategy=budget)
    config = AutoFeatConfig(
        sample_size=200,
        seed=seed,
        traversal=traversal,
        top_k=3,
        parallel_backend=backend,
        **overrides,
    )
    return AutoFeat(drg, config, hop_hook=injector)


@lru_cache(maxsize=None)
def _clean_discovery(lake: str, traversal: str, seed: int):
    bundle, __ = golden_lake(lake)
    autofeat = _autofeat(lake, traversal, seed, "clean", "unbudgeted", "serial")
    return autofeat.discover(bundle.base_name, bundle.label_column)


def run_cell(key: str, backend: str) -> dict:
    """Run one matrix cell on ``backend``; the JSON-able record to compare."""
    lake, traversal, seed, faults, budget = key.split("/")
    seed = int(seed)
    bundle, __ = golden_lake(lake)
    autofeat = _autofeat(lake, traversal, seed, faults, budget, backend)
    if budget != "unbudgeted":
        try:
            discovery = autofeat.discover(bundle.base_name, bundle.label_column)
        except FaultError as exc:
            return _raised(exc)
        return {"discovery": discovery_record(discovery, backend)}

    record = {}
    try:
        result = autofeat.augment(bundle.base_name, bundle.label_column, "knn")
    except FaultError as exc:
        record.update(_raised(exc))
    else:
        record["discovery"] = discovery_record(result.discovery, backend)
        record["training"] = training_record(
            result, backend, with_engine=faults == "clean"
        )
    if faults != "clean":
        fresh = _autofeat(lake, traversal, seed, faults, budget, backend)
        try:
            trained = fresh.train_top_k(
                _clean_discovery(lake, traversal, seed), "knn"
            )
        except FaultError as exc:
            record["training_of_clean"] = _raised(exc)
        else:
            record["training_of_clean"] = training_record(
                trained, backend, with_engine=False
            )
    return record


@lru_cache(maxsize=None)
def load_goldens() -> dict:
    return json.loads(GOLDENS_PATH.read_text())


def expected_cell(key: str, backend: str) -> dict:
    """The golden record of ``key``, reduced to what ``backend`` pins."""
    record = copy.deepcopy(load_goldens()["matrix"][key])
    if backend == "processes":
        for part in record.values():
            if isinstance(part, dict) and "engine" in part:
                for name in ("index_builds", "cache_hits", "cache_misses"):
                    del part["engine"][name]
    return record


def _generate() -> dict:
    # Lazy: the test module imports this one for ``load_goldens``.
    from tests.core import test_parallel_faults as stress

    drg = stress.diamond_lake()
    diamond = {}
    for policy, fault_seed in product(POLICIES, (0, 1, 2)):
        diamond[f"stress/{policy}/{fault_seed}"] = stress.run_discovery(
            drg, "serial", policy, fault_seed=fault_seed
        )
    for policy in ("skip_and_record", "retry"):
        diamond[f"budget0/{policy}"] = stress.run_discovery(
            drg, "serial", policy, error_budget=0
        )
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
