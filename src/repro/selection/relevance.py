"""Relevance metrics (paper Section V-C).

Five scorers of how strongly a single feature associates with the label:

* **information gain** (IG) — mutual information with the label,
* **symmetrical uncertainty** (SU) — normalised IG,
* **Pearson** — absolute linear correlation,
* **Spearman** — absolute rank correlation (AutoFeat's choice),
* **Relief** — nearest-neighbour margin scoring.

Every scorer maps ``(feature, label) -> float`` where larger is more
relevant; Pearson/Spearman return absolute values so sign does not matter.
NaN entries are excluded pairwise.  A matrix is scored through
:func:`repro.selection.kernels.batch_relevance_scores`: Spearman by the
vectorised rank-code kernel (its one-feature form is a test reference,
``tests/oracle/selection.py``), Relief by :func:`relief_scores`, every
other metric by its scorer in :data:`_SCORERS`, column by column.
"""

from __future__ import annotations

from typing import Callable

import numpy as np

from ..errors import SelectionError
from .entropy import discretize, mutual_information, symmetrical_uncertainty

__all__ = [
    "information_gain",
    "su_relevance",
    "pearson_relevance",
    "relief_scores",
    "RELEVANCE_METRICS",
]


def _paired(x: np.ndarray, y: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    x = np.asarray(x, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    if x.shape != y.shape:
        raise SelectionError(f"length mismatch: {x.shape} vs {y.shape}")
    keep = np.isfinite(x) & np.isfinite(y)
    return x[keep], y[keep]


def information_gain(feature: np.ndarray, label: np.ndarray) -> float:
    """I(X;Y) between a (binned) feature and the label."""
    return mutual_information(discretize(feature), discretize(label))


def su_relevance(feature: np.ndarray, label: np.ndarray) -> float:
    """Symmetrical uncertainty SU(X, Y) in [0, 1]."""
    return symmetrical_uncertainty(discretize(feature), discretize(label))


#: Below this magnitude a vector's squared deviations fall into float64's
#: subnormal range, where ``np.std`` loses digits.
_SCALE_UP_BELOW = 2.0**-460


def _scaled_up(v: np.ndarray) -> np.ndarray:
    """``v`` times the power of two that lifts its largest magnitude into
    [0.5, 1) when that magnitude is below :data:`_SCALE_UP_BELOW`; else
    ``v`` itself.  Scaling up by a power of two is exact and r ignores a
    positive scale, so only vectors whose r would underflow change."""
    top = float(np.abs(v).max())
    if 0.0 < top < _SCALE_UP_BELOW:
        return np.ldexp(v, -np.frexp(top)[1])
    return v


def pearson_relevance(feature: np.ndarray, label: np.ndarray) -> float:
    """|Pearson r| between feature and label; 0 for constant inputs."""
    x, y = _paired(feature, label)
    if x.size < 2:
        return 0.0
    # Everything below runs where squared deviations cannot underflow.
    xs, ys = _scaled_up(x), _scaled_up(y)
    sx, sy = np.std(xs), np.std(ys)
    # Guard against effectively-constant vectors whose std is pure
    # floating-point residue (e.g. a large value repeated n times): the
    # threshold is relative to the data's own magnitude, so legitimately
    # tiny-valued columns are still correlated normally.
    tiny = float(np.finfo(np.float64).tiny)
    if sx <= 1e-12 * max(float(np.abs(xs).max()), tiny) or sy <= 1e-12 * max(
        float(np.abs(ys).max()), tiny
    ):
        return 0.0
    r = np.mean((xs - xs.mean()) * (ys - ys.mean())) / (sx * sy)
    return float(abs(np.clip(r, -1.0, 1.0)))


def relief_scores(
    features: np.ndarray,
    label: np.ndarray,
    n_samples: int = 100,
    seed: int = 0,
) -> np.ndarray:
    """Relief feature weights for a whole feature matrix.

    For each sampled instance, find its nearest *hit* (same class) and
    nearest *miss* (other class) under L1 distance on min-max-scaled
    features; reward features that differ across classes and agree within
    a class.  Scores are shifted-clipped to be non-negative so they compose
    with the top-κ selection used by the rest of the pipeline.
    """
    X = np.asarray(features, dtype=np.float64)
    y = np.asarray(label, dtype=np.float64)
    if X.ndim != 2:
        raise SelectionError("relief expects a 2-D feature matrix")
    if X.shape[0] != y.shape[0]:
        raise SelectionError("feature matrix and label length mismatch")
    n, d = X.shape
    if n < 2 or d == 0:
        return np.zeros(d, dtype=np.float64)

    col_min = np.nanmin(X, axis=0)
    col_range = np.nanmax(X, axis=0) - col_min
    col_range[col_range == 0.0] = 1.0
    Xs = (X - col_min) / col_range
    Xs = np.nan_to_num(Xs, nan=0.5)

    rng = np.random.default_rng(seed)
    picks = rng.choice(n, size=min(n_samples, n), replace=False)
    weights = np.zeros(d, dtype=np.float64)
    for i in picks:
        diffs = np.abs(Xs - Xs[i])
        dist = diffs.sum(axis=1)
        dist[i] = np.inf
        same = y == y[i]
        same[i] = False
        other = ~same
        other[i] = False
        if same.any():
            hit = np.argmin(np.where(same, dist, np.inf))
            weights -= diffs[hit] / len(picks)
        if other.any():
            miss = np.argmin(np.where(other, dist, np.inf))
            weights += diffs[miss] / len(picks)
    return np.clip(weights, 0.0, None)


#: The per-feature scorers of every metric but Spearman and Relief.
_SCORERS: dict[str, Callable[[np.ndarray, np.ndarray], float]] = {
    "information_gain": information_gain,
    "symmetrical_uncertainty": su_relevance,
    "pearson": pearson_relevance,
}

#: Every relevance metric besides ``"relief"``.
RELEVANCE_METRICS = (*_SCORERS, "spearman")
