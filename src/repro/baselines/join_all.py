"""JoinAll and JoinAll+F baselines (paper Section VII-B).

JoinAll left-joins every reachable table onto the base table.  When joins
are KFK and 1:1 there is a single possible result; otherwise the join
*order* matters and the number of distinct orderings explodes factorially
(Equation 3) — :func:`repro.graph.join_all_path_count` computes that
number, and :func:`run_join_all` refuses to run past a feasibility cap the
same way the paper's baseline timed out on the *school* dataset.

We execute one canonical ordering (BFS discovery order), which is how the
baseline is realised in practice for the feasible cases.  JoinAll+F runs a
filter feature selection (top-κ Spearman) over the single wide table
before training — cheap selection, expensive join.
"""

from __future__ import annotations

from ..dataframe import Table
from ..engine import FaultManager, JoinEngine
from ..errors import JoinError
from ..graph import DatasetRelationGraph, bfs_levels, join_all_path_count
from ..ml import evaluate_accuracy
from ..obs import Tracer, build_manifest
from ..selection import SelectionStats, select_k_best_named
from .common import BaselineResult, join_neighbor

__all__ = ["run_join_all", "join_all_table", "FEASIBILITY_CAP"]

#: Orderings beyond this are treated as "did not finish" (school's 15!).
FEASIBILITY_CAP = 10_000_000


def join_all_table(
    drg: DatasetRelationGraph,
    base_name: str,
    engine: JoinEngine,
    faults: FaultManager,
) -> tuple[Table, int]:
    """Join every reachable table in BFS order; returns (wide, n_joined).

    Hops run on ``engine``; a failed one is recorded on ``faults``.
    """
    base = drg.table(base_name)
    levels = bfs_levels(drg.graph, base_name)
    order = sorted(
        (name for name in levels if name != base_name),
        key=lambda n: (levels[n], n),
    )
    current = base
    links = {base_name: (base, None)}
    for name in order:
        # Join through any already-joined neighbour on a shallower level.
        sources = [
            n
            for n in drg.neighbors(name)
            if levels.get(n, 10**9) < levels[name] and n in links
        ]
        for source in sources:
            result = join_neighbor(
                current, links, drg, source, name, base_name, engine, faults
            )
            if result is not None:
                current = result
                break
    return current, len(links) - 1


def run_join_all(
    drg: DatasetRelationGraph,
    base_name: str,
    label_column: str,
    model_name: str = "lightgbm",
    with_filter: bool = False,
    kappa: int = 15,
    seed: int = 0,
    feasibility_cap: int = FEASIBILITY_CAP,
    hop_hook=None,
) -> BaselineResult:
    """JoinAll (``with_filter=False``) or JoinAll+F (``True``).

    Raises :class:`JoinError` when Equation (3) puts the number of
    orderings past ``feasibility_cap`` — the "did not finish within the
    time constraint" outcome of the paper.  Failed hops are skipped and
    accounted on the result's ``failure_report``.
    """
    method = "JoinAll+F" if with_filter else "JoinAll"
    orderings = join_all_path_count(drg.graph, base_name)
    if orderings > feasibility_cap:
        raise JoinError(
            f"JoinAll is infeasible on {base_name!r}: {orderings} possible "
            f"join orderings exceed the cap of {feasibility_cap}"
        )
    tracer = Tracer()
    engine = JoinEngine(drg, seed=seed, hop_hook=hop_hook, tracer=tracer)
    faults = FaultManager("join_all")
    selection_stats = SelectionStats() if with_filter else None
    with tracer.span("join_all", base=base_name, model=model_name) as root:
        wide, joined = join_all_table(drg, base_name, engine, faults)
        feature_names = [n for n in wide.column_names if n != label_column]
        if with_filter:
            with tracer.span("selection", features=len(feature_names)):
                label = wide.column(label_column).to_float()
                matrix = wide.numeric_matrix(feature_names)
                kept, __ = select_k_best_named(
                    matrix,
                    feature_names,
                    label,
                    k=kappa,
                    metric="spearman",
                    seed=seed,
                    counters=selection_stats,
                )
            if kept:
                feature_names = kept
        with tracer.span("evaluate", model=model_name):
            acc = evaluate_accuracy(
                wide, label_column, model_name,
                feature_names=feature_names, seed=seed,
            )
    fs_seconds = tracer.total_seconds("selection")
    elapsed = root.seconds
    manifest = build_manifest(
        "join_all",
        tracer=tracer,
        dataset=drg,
        seed=seed,
        wall_seconds=elapsed,
        records=[engine.snapshot(), selection_stats, faults.report()],
        counters={"join_all.tables_joined": joined},
    )
    return BaselineResult(
        method=method,
        dataset=drg.table(base_name).name,
        model_name=model_name,
        accuracy=acc,
        feature_selection_seconds=fs_seconds,
        total_seconds=elapsed,
        n_joined_tables=joined,
        n_features_used=len(feature_names),
        engine_stats=engine.snapshot(),
        selection_stats=selection_stats,
        failure_report=faults.report(),
        run_manifest=manifest,
    )
