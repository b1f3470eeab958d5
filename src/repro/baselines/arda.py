"""ARDA — Automatic Relational Data Augmentation (Chepurko et al., 2020).

Reimplemented from the paper's description, as the AutoFeat authors also
had to do.  ARDA's shape:

1. **Single-hop star join**: every table directly joinable with the base
   table is left-joined onto it (ARDA only supports star schemata — this
   is the limitation AutoFeat's transitive traversal removes).
2. **RIFS — random-injection feature selection**: random noise features
   are injected into the wide table; a tree ensemble is fitted and
   features are kept only if their importance beats the injected noise.
   Several survival thresholds are tried and each candidate subset is
   *evaluated by training the model* — the model-in-the-loop step that
   makes ARDA slow relative to AutoFeat's heuristic ranking.
"""

from __future__ import annotations

import numpy as np

from ..dataframe import Table
from ..engine import FaultManager, JoinEngine
from ..graph import DatasetRelationGraph
from ..ml import RandomForestClassifier, TabularEncoder, encode_labels, evaluate_accuracy
from ..obs import Tracer, build_manifest
from .common import BaselineResult, join_neighbor

__all__ = ["rifs_select", "run_arda"]

_NOISE_FRACTION = 0.2
_RIFS_ROUNDS = 3
_SURVIVAL_THRESHOLDS = (0.3, 0.5, 0.7)


def rifs_select(
    X: np.ndarray,
    y: np.ndarray,
    feature_names: list[str],
    n_rounds: int = _RIFS_ROUNDS,
    noise_fraction: float = _NOISE_FRACTION,
    seed: int = 0,
) -> dict[float, list[str]]:
    """Random-injection feature selection.

    In each round, ``noise_fraction * d`` random features are appended and
    a random forest is fitted; a real feature "survives" the round when its
    importance exceeds the best injected-noise importance.  Returns, for
    each survival threshold, the features that survived at least that
    fraction of rounds.
    """
    X = np.asarray(X, dtype=np.float64)
    n, d = X.shape
    rng = np.random.default_rng(seed)
    n_noise = max(1, int(noise_fraction * d))
    survivals = np.zeros(d, dtype=np.float64)
    for _ in range(n_rounds):
        noise = rng.normal(0.0, 1.0, size=(n, n_noise))
        augmented = np.hstack([X, noise])
        forest = RandomForestClassifier(
            n_estimators=15, max_depth=8, seed=int(rng.integers(2**31 - 1))
        )
        forest.fit(augmented, y)
        importances = forest.feature_importances_
        noise_ceiling = importances[d:].max() if n_noise else 0.0
        survivals += (importances[:d] > noise_ceiling).astype(np.float64)
    survivals /= n_rounds
    return {
        threshold: [feature_names[j] for j in range(d) if survivals[j] >= threshold]
        for threshold in _SURVIVAL_THRESHOLDS
    }


def run_arda(
    drg: DatasetRelationGraph,
    base_name: str,
    label_column: str,
    model_name: str = "lightgbm",
    seed: int = 0,
    hop_hook=None,
) -> BaselineResult:
    """Full ARDA pipeline: star join, RIFS, model-based threshold pick.

    Failed star-join hops are skipped and accounted on the result's
    ``failure_report``.
    """
    tracer = Tracer()
    engine = JoinEngine(drg, seed=seed, hop_hook=hop_hook, tracer=tracer)
    faults = FaultManager("arda")
    base = drg.table(base_name)
    with tracer.span("arda", base=base_name, model=model_name) as root:
        current = base
        # A star join: every hop leaves the base, whose bare names are
        # unambiguous.
        links = {base_name: (base, None)}
        for neighbor in drg.neighbors(base_name):
            result = join_neighbor(
                current, links, drg, base_name, neighbor, base_name, engine, faults
            )
            if result is not None:
                current = result
        joined_tables = len(links) - 1

        feature_names = [n for n in current.column_names if n != label_column]
        encoder = TabularEncoder()
        X = encoder.fit_transform(current, feature_names)
        y, __ = encode_labels(
            np.asarray(current.column(label_column).to_list(), dtype=object)
        )

        with tracer.span("selection", features=len(feature_names)):
            candidates = rifs_select(X, y, feature_names, seed=seed)
            # Model-in-the-loop evaluation of each survival threshold.
            best_features = feature_names
            best_acc = -1.0
            for threshold in sorted(candidates):
                subset = candidates[threshold]
                if not subset:
                    continue
                with tracer.span(
                    "evaluate", threshold=threshold, features=len(subset)
                ):
                    acc = evaluate_accuracy(
                        current, label_column, model_name,
                        feature_names=subset, seed=seed,
                    )
                if acc > best_acc:
                    best_acc, best_features = acc, subset
        fs_seconds = tracer.total_seconds("selection")

        if best_acc < 0.0:
            with tracer.span("evaluate", features=len(best_features)):
                best_acc = evaluate_accuracy(
                    current, label_column, model_name,
                    feature_names=best_features, seed=seed,
                )
    elapsed = root.seconds
    manifest = build_manifest(
        "arda",
        tracer=tracer,
        dataset=drg,
        seed=seed,
        wall_seconds=elapsed,
        records=[engine.snapshot(), faults.report()],
        counters={"arda.tables_joined": joined_tables},
    )
    return BaselineResult(
        method="ARDA",
        dataset=base.name,
        model_name=model_name,
        accuracy=best_acc,
        feature_selection_seconds=fs_seconds,
        total_seconds=elapsed,
        n_joined_tables=joined_tables,
        n_features_used=len(best_features),
        engine_stats=engine.snapshot(),
        failure_report=faults.report(),
        run_manifest=manifest,
    )
