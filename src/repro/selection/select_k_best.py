"""Top-κ feature selection ("select κ best", paper Section VI).

Sorts features by a relevance score and keeps the κ best with strictly
positive scores.  Used by AutoFeat's relevance analysis step and by the
JoinAll+F filter baseline.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..errors import SelectionError
from .kernels import batch_relevance_scores
from .stats import SelectionStats

__all__ = ["SelectionOutcome", "select_k_best", "select_k_best_named"]


@dataclass(frozen=True)
class SelectionOutcome:
    """Indices (or names), in descending score order, plus their scores."""

    indices: tuple[int, ...]
    scores: tuple[float, ...]

    def __len__(self) -> int:
        return len(self.indices)


def select_k_best(
    features: np.ndarray,
    label: np.ndarray,
    k: int,
    metric: str = "spearman",
    min_score: float = 0.0,
    seed: int = 0,
    counters: SelectionStats | None = None,
    codes: np.ndarray | None = None,
    label_codes: np.ndarray | None = None,
) -> SelectionOutcome:
    """Keep the ``k`` highest-scoring feature columns.

    Features scoring at or below ``min_score`` are excluded even when fewer
    than ``k`` features pass — an empty outcome means "everything here is
    irrelevant", which Algorithm 1 treats as a signal (but not a pruning
    decision, since irrelevant intermediates may still carry the path).
    Ties are broken by column index for determinism.

    Scoring runs through
    :func:`~repro.selection.kernels.batch_relevance_scores` (vectorised
    Spearman; every other metric delegates to the scalar estimators);
    ``counters`` collects its scoring statistics.  Spearman ranks from the
    rank ``codes`` / ``label_codes`` a caller already holds and derives
    the missing ones from the values.
    """
    if k <= 0:
        raise SelectionError(f"k must be positive, got {k}")
    scores = batch_relevance_scores(
        features,
        label,
        metric=metric,
        seed=seed,
        counters=counters,
        codes=codes,
        label_codes=label_codes,
    )
    order = np.argsort(-scores, kind="stable")
    kept = [int(j) for j in order[:k] if scores[j] > min_score]
    return SelectionOutcome(
        indices=tuple(kept),
        scores=tuple(float(scores[j]) for j in kept),
    )


def select_k_best_named(
    features: np.ndarray,
    feature_names: list[str],
    label: np.ndarray,
    k: int,
    metric: str = "spearman",
    min_score: float = 0.0,
    seed: int = 0,
    counters: SelectionStats | None = None,
) -> tuple[list[str], list[float]]:
    """Name-oriented wrapper over :func:`select_k_best`."""
    if np.asarray(features).shape[1] != len(feature_names):
        raise SelectionError(
            f"{np.asarray(features).shape[1]} feature columns but "
            f"{len(feature_names)} names"
        )
    outcome = select_k_best(
        features,
        label,
        k,
        metric=metric,
        min_score=min_score,
        seed=seed,
        counters=counters,
    )
    names = [feature_names[j] for j in outcome.indices]
    return names, list(outcome.scores)
