"""Top-κ feature selection ("select κ best", paper Section VI) and greedy
forward selection under a redundancy criterion (Figure 3b).

:func:`select_k_best` sorts features by a relevance score and keeps the κ
best with strictly positive scores; it is used by AutoFeat's relevance
analysis step and by the JoinAll+F filter baseline.  :func:`greedy_select`
grows a feature set one redundancy-scored pick at a time.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..errors import SelectionError
from .kernels import (
    SelectionCodeCache,
    batch_redundancy_scores,
    batch_relevance_scores,
    column_codes,
)
from .stats import SelectionStats

__all__ = ["SelectionOutcome", "select_k_best", "select_k_best_named", "greedy_select"]


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


def greedy_select(
    features: np.ndarray,
    label: np.ndarray,
    k: int,
    method: str = "mrmr",
) -> list[int]:
    """Greedy forward selection of at most ``k`` columns under criterion J.

    The redundancy-method protocol of the paper's Figure 3b, on the
    pipeline's kernels: each step scores every remaining column with
    :func:`~repro.selection.kernels.batch_redundancy_scores` against a
    :class:`~repro.selection.kernels.SelectionCodeCache` of the columns
    picked so far and adds the first best one.  Selection stops at ``k``
    or at the first step whose best J is ≤ 0.  That is the streaming
    selector's acceptance rule (it keeps J > 0), and the only one the
    kernel can serve: under MIFS, MRMR and CMIM it returns a bound, not
    the score, for a non-positive J.
    """
    X = np.asarray(features, dtype=np.float64)
    if X.ndim != 2:
        raise SelectionError("greedy_select expects a 2-D feature matrix")
    if k < 1:
        raise SelectionError(f"k must be >= 1, got {k}")
    codes = column_codes(X)
    cache = SelectionCodeCache(label)
    remaining = list(range(X.shape[1]))
    picked: list[int] = []
    while remaining and len(picked) < k:
        scores = batch_redundancy_scores(
            X[:, remaining], cache, method, codes=codes[remaining]
        )
        best = int(np.argmax(scores))
        if not scores[best] > 0.0:
            break
        j = remaining.pop(best)
        cache.add(X[:, j], codes=codes[j])
        picked.append(j)
    return picked
