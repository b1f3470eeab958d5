"""MAB — multi-armed-bandit feature augmentation (Liu et al.).

Each candidate table reachable from the current augmented table is an arm;
pulling an arm joins the table, retrains the model and collects the
accuracy delta as reward.  Arms are chosen by UCB1 over a fixed pull
budget, and joins that improved accuracy are kept.

Two published limitations are reproduced deliberately because the paper's
comparison depends on them:

* **same-name join columns only** — MAB connects tables through equally
  named columns (PK-FK with identical names), so it cannot follow the
  renamed/spurious edges a discovery algorithm emits;
* **model in the loop** — every pull trains the target model, which is
  where MAB's runtime goes (Figures 4 and 6).
"""

from __future__ import annotations

from ..core.navigation import UcbArm
from ..engine import (
    DEFAULT_ERROR_BUDGET,
    DEFAULT_MAX_RETRIES,
    FaultManager,
    JoinEngine,
)
from ..graph import DatasetRelationGraph
from ..ml import evaluate_accuracy
from ..obs import Tracer, build_manifest
from .common import BaselineResult

__all__ = ["run_mab"]


def _same_name_options(drg: DatasetRelationGraph, source: str, target: str):
    """Join options restricted to identically-named columns.

    MAB inspects the raw edge set (it has no similarity-pruning stage of
    its own): any equally-named column pair is a candidate, which in a
    noisy lake lets it join on spurious shared categoricals.
    """
    return [
        e
        for e in drg.join_options(source, target)
        if e.source_column == e.target_column
    ]


def run_mab(
    drg: DatasetRelationGraph,
    base_name: str,
    label_column: str,
    model_name: str = "lightgbm",
    budget: int = 12,
    exploration: float = 0.5,
    seed: int = 0,
    failure_policy: str = "skip_and_record",
    error_budget: int = DEFAULT_ERROR_BUDGET,
    max_retries: int = DEFAULT_MAX_RETRIES,
    hop_hook=None,
    enable_tracing: bool = True,
) -> BaselineResult:
    """UCB1 bandit augmentation with a pull budget.

    Failed pulls are handled per ``failure_policy`` (a failing join
    penalises and retires the arm, exactly as an unrewarding pull did
    before) and accounted on the result's ``failure_report``.
    """
    tracer = Tracer(enabled=enable_tracing)
    engine = JoinEngine(drg, seed=seed, hop_hook=hop_hook, tracer=tracer)
    faults = FaultManager(
        policy=failure_policy,
        error_budget=error_budget,
        max_retries=max_retries,
        stage="mab",
    )
    base = drg.table(base_name)
    joined: list[str] = []

    def candidate_arms() -> list[UcbArm]:
        sources = [base_name] + joined
        arms = []
        for source in sources:
            for target in drg.neighbors(source):
                if target == base_name or target in joined:
                    continue
                if _same_name_options(drg, source, target):
                    arms.append(UcbArm(key=(source, target)))
        return arms

    with tracer.span("mab", base=base_name, model=model_name) as root:
        current = base
        with tracer.span("evaluate", model=model_name):
            current_acc = evaluate_accuracy(
                current, label_column, model_name, seed=seed
            )

        arms = candidate_arms()
        arm_index = {a.key: a for a in arms}
        total_pulls = 0

        while total_pulls < budget and arm_index:
            # Deterministic tie order: among equal UCB scores (all arms
            # are +inf before their first pull) the earliest-inserted arm
            # wins, independent of float noise or dict rehashing.
            arm = max(
                enumerate(arm_index.values()),
                key=lambda pair: (pair[1].ucb(total_pulls, exploration), -pair[0]),
            )[1]
            source, target = arm.key
            total_pulls += 1
            options = _same_name_options(drg, source, target)
            with tracer.span("pull", source=source, target=target):
                result = None
                if options:
                    result = faults.execute(
                        lambda attempt: engine.apply_hop(
                            current, options[0], base_name, attempt=attempt
                        ),
                        base=base_name,
                        edge=options[0],
                    )
                if result is None:
                    tracer.event("arm_retired", target=target)
                    arm.pull(-0.01)
                    del arm_index[arm.key]
                    continue
                candidate_table, __ = result
                with tracer.span("evaluate", model=model_name):
                    acc = evaluate_accuracy(
                        candidate_table, label_column, model_name, seed=seed
                    )
            reward = acc - current_acc
            arm.pull(reward)
            if reward > 0.0:
                current = candidate_table
                current_acc = acc
                joined.append(target)
                del arm_index[arm.key]
                for fresh in candidate_arms():
                    arm_index.setdefault(fresh.key, fresh)
            elif arm.pulls >= 2:
                # Two unrewarding pulls: retire the arm.
                del arm_index[arm.key]

    # Every pull — joined, failed or retired — is selection work.
    fs_seconds = tracer.total_seconds("pull")
    elapsed = root.seconds
    manifest = build_manifest(
        "mab",
        tracer=tracer,
        dataset=drg,
        seed=seed,
        wall_seconds=elapsed,
        records=[engine.snapshot(), faults.report()],
        counters={
            "mab.pulls": total_pulls,
            "mab.tables_joined": len(joined),
        },
    )
    return BaselineResult(
        method="MAB",
        dataset=base.name,
        model_name=model_name,
        accuracy=current_acc,
        feature_selection_seconds=fs_seconds,
        total_seconds=elapsed,
        n_joined_tables=len(joined),
        n_features_used=current.n_cols - 1,
        engine_stats=engine.snapshot(),
        failure_report=faults.report(),
        run_manifest=manifest,
    )
