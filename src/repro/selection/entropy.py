"""Shannon information estimators on discretised variables.

All relevance/redundancy metrics in the paper bottom out in four
estimators: entropy H(X), mutual information I(X;Y), conditional mutual
information I(X;Y|Z) and symmetrical uncertainty SU(X,Y).  We estimate them
with plug-in (maximum-likelihood) estimates over discretised variables:
continuous features are equal-width binned, already-discrete features keep
their codes.  NaN entries are excluded pairwise, matching the behaviour of
selection libraries that impute or drop before scoring.
"""

from __future__ import annotations

import numpy as np

from ..dataframe.encoding import dense_codes, rank_codes
from ..errors import SelectionError

__all__ = [
    "discretize",
    "entropy",
    "joint_entropy",
    "mutual_information",
    "conditional_mutual_information",
    "symmetrical_uncertainty",
]

DEFAULT_BINS = 10
_DISCRETE_UNIQUE_LIMIT = 32


def discretize(
    values: np.ndarray,
    n_bins: int = DEFAULT_BINS,
    codes: np.ndarray | None = None,
) -> np.ndarray:
    """Map a numeric vector to non-negative integer codes (-1 for NaN).

    Vectors with at most ``_DISCRETE_UNIQUE_LIMIT`` distinct finite values
    are treated as already discrete and densely re-coded; anything wider is
    equal-width binned into ``n_bins`` buckets.  The -1 code marks missing
    entries and is ignored by every estimator in this module.

    Everything but the binning itself is read off the vector's rank
    ``codes`` (:func:`~repro.dataframe.encoding.rank_codes`, derived here
    when the caller does not hold them; any codes that order like the
    values and are -1 exactly where they are not finite give the same
    result): the distinct values are the distinct codes present, the dense
    recode is their running count, and the extremes are the values at the
    smallest and largest code.
    """
    if n_bins < 2:
        raise SelectionError(f"n_bins must be >= 2, got {n_bins}")
    x = np.asarray(values, dtype=np.float64)
    if codes is None:
        codes = rank_codes(x)
    out = dense_codes(codes)
    if out.max(initial=-1) < _DISCRETE_UNIQUE_LIMIT:
        return out
    # More than _DISCRETE_UNIQUE_LIMIT distinct values: hi > lo.
    finite = out >= 0
    kept, present = x[finite], codes[finite]
    lo, hi = float(kept[present.argmin()]), float(kept[present.argmax()])
    if np.isfinite(hi - lo):
        scaled = (kept - lo) / (hi - lo)
    else:  # the range overflows float64: halve before subtracting
        scaled = (kept / 2 - lo / 2) / (hi / 2 - lo / 2)
    out[finite] = np.minimum((scaled * n_bins).astype(np.int64), n_bins - 1)
    return out


def _probabilities(codes: np.ndarray) -> np.ndarray:
    valid = codes[codes >= 0]
    if valid.size == 0:
        return np.empty(0, dtype=np.float64)
    counts = np.bincount(valid)
    counts = counts[counts > 0]
    return counts / valid.size


def entropy(codes: np.ndarray) -> float:
    """Plug-in Shannon entropy H(X) in nats over non-missing codes."""
    p = _probabilities(np.asarray(codes, dtype=np.int64))
    if p.size == 0:
        return 0.0
    return float(-np.sum(p * np.log(p)))


def _pair_codes(x: np.ndarray, y: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    x = np.asarray(x, dtype=np.int64)
    y = np.asarray(y, dtype=np.int64)
    if x.shape != y.shape:
        raise SelectionError(
            f"code vectors have different lengths: {x.shape} vs {y.shape}"
        )
    keep = (x >= 0) & (y >= 0)
    return x[keep], y[keep]


def joint_entropy(x_codes: np.ndarray, y_codes: np.ndarray) -> float:
    """Plug-in joint entropy H(X, Y) over pairwise-complete observations."""
    x, y = _pair_codes(x_codes, y_codes)
    if x.size == 0:
        return 0.0
    width = int(y.max()) + 1 if y.size else 1
    joint = x * width + y
    return entropy(joint)


def mutual_information(x_codes: np.ndarray, y_codes: np.ndarray) -> float:
    """I(X;Y) = H(X) + H(Y) - H(X,Y), clipped at zero.

    Estimated over pairwise-complete observations so a few missing entries
    do not zero out the score.
    """
    x, y = _pair_codes(x_codes, y_codes)
    if x.size == 0:
        return 0.0
    mi = entropy(x) + entropy(y) - joint_entropy(x, y)
    return max(0.0, float(mi))


def conditional_mutual_information(
    x_codes: np.ndarray,
    y_codes: np.ndarray,
    z_codes: np.ndarray,
) -> float:
    """I(X;Y|Z) = H(X,Z) + H(Y,Z) - H(X,Y,Z) - H(Z), clipped at zero.

    This is the conditional information-gain term of Equation (1); CIFE,
    JMI and CMIM need it while MIFS/MRMR save its cost by setting λ=0 —
    the asymmetry behind the 3x runtime gap in Figure 3b.
    """
    x = np.asarray(x_codes, dtype=np.int64)
    y = np.asarray(y_codes, dtype=np.int64)
    z = np.asarray(z_codes, dtype=np.int64)
    if not (x.shape == y.shape == z.shape):
        raise SelectionError("code vectors have different lengths")
    keep = (x >= 0) & (y >= 0) & (z >= 0)
    x, y, z = x[keep], y[keep], z[keep]
    if x.size == 0:
        return 0.0
    wy = int(y.max()) + 1 if y.size else 1
    wz = int(z.max()) + 1 if z.size else 1
    xz = x * wz + z
    yz = y * wz + z
    xyz = (x * wy + y) * wz + z
    cmi = entropy(xz) + entropy(yz) - entropy(xyz) - entropy(z)
    return max(0.0, float(cmi))


def symmetrical_uncertainty(x_codes: np.ndarray, y_codes: np.ndarray) -> float:
    """SU(X,Y) = 2·I(X;Y) / (H(X) + H(Y)) ∈ [0, 1].

    Normalises information gain to compensate for its bias towards
    many-valued features (paper Section V-C).  Returns 0 when either
    marginal entropy is zero (a constant variable carries no information).
    """
    x, y = _pair_codes(x_codes, y_codes)
    if x.size == 0:
        return 0.0
    hx, hy = entropy(x), entropy(y)
    if hx + hy == 0.0:
        return 0.0
    mi = hx + hy - joint_entropy(x, y)
    return float(np.clip(2.0 * mi / (hx + hy), 0.0, 1.0))
