"""Redundancy metrics from the conditional-likelihood-maximisation family.

Equation (1) of the paper (after Li et al., "Feature Selection: A Data
Perspective") scores a candidate feature X_k against the already-selected
set S as

    J(X_k) = I(X_k; Y) - β · Σ_{X_j∈S} I(X_j; X_k)
                       + λ · Σ_{X_j∈S} I(X_j; X_k | Y)

Five instantiations are implemented (paper Section V-D):

==========  =========  =========  =======================================
method      β          λ          note
==========  =========  =========  =======================================
MIFS        0.5        0          Battiti's mutual-information selector
MRMR        1/|S|      0          AutoFeat's choice
CIFE        1          1          conditional infomax
JMI         1/|S|      1/|S|      joint mutual information
CMIM        —          —          max-form, Equation (2)
==========  =========  =========  =======================================

All scorers share pre-discretised codes, so calling several of them on the
same data (the ablation study) does not re-bin.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from ..errors import SelectionError
from .entropy import (
    conditional_mutual_information,
    discretize,
    mutual_information,
)

__all__ = [
    "RedundancyResult",
    "redundancy_score",
    "greedy_select",
    "linear_coefficients",
    "REDUNDANCY_METHODS",
    "MIFS_BETA",
]

MIFS_BETA = 0.5


def linear_coefficients(method: str, n_selected: int) -> tuple[float, float] | None:
    """(β, λ) of Equation (1) for the linear criteria; None for max-form.

    Single source of truth shared by the scalar scorers below and the
    batched kernels in :mod:`repro.selection.kernels`, so both paths weight
    the redundancy/conditional sums identically.
    """
    if method == "mifs":
        return MIFS_BETA, 0.0
    if method == "mrmr":
        return (1.0 / n_selected if n_selected else 0.0), 0.0
    if method == "cife":
        return 1.0, 1.0
    if method == "jmi":
        w = 1.0 / n_selected if n_selected else 0.0
        return w, w
    return None


@dataclass(frozen=True)
class RedundancyResult:
    """Outcome of scoring one candidate feature against the selected set."""

    score: float
    relevance_term: float
    redundancy_term: float
    conditional_term: float


def _codes_matrix(features: np.ndarray) -> list[np.ndarray]:
    X = np.asarray(features, dtype=np.float64)
    if X.ndim == 1:
        X = X.reshape(-1, 1)
    return [discretize(X[:, j]) for j in range(X.shape[1])]


def _linear_combination(
    candidate: np.ndarray,
    selected: list[np.ndarray],
    label: np.ndarray,
    beta: float,
    lam: float,
) -> RedundancyResult:
    relevance = mutual_information(candidate, label)
    redundancy = 0.0
    conditional = 0.0
    for sel in selected:
        redundancy += mutual_information(sel, candidate)
        if lam != 0.0:
            conditional += conditional_mutual_information(sel, candidate, label)
    score = relevance - beta * redundancy + lam * conditional
    return RedundancyResult(
        score=float(score),
        relevance_term=float(relevance),
        redundancy_term=float(redundancy),
        conditional_term=float(conditional),
    )


def _mifs(candidate, selected, label) -> RedundancyResult:
    beta, lam = linear_coefficients("mifs", len(selected))
    return _linear_combination(candidate, selected, label, beta=beta, lam=lam)


def _mrmr(candidate, selected, label) -> RedundancyResult:
    beta, lam = linear_coefficients("mrmr", len(selected))
    return _linear_combination(candidate, selected, label, beta=beta, lam=lam)


def _cife(candidate, selected, label) -> RedundancyResult:
    beta, lam = linear_coefficients("cife", len(selected))
    return _linear_combination(candidate, selected, label, beta=beta, lam=lam)


def _jmi(candidate, selected, label) -> RedundancyResult:
    beta, lam = linear_coefficients("jmi", len(selected))
    return _linear_combination(candidate, selected, label, beta=beta, lam=lam)


def _cmim(candidate, selected, label) -> RedundancyResult:
    relevance = mutual_information(candidate, label)
    worst = 0.0
    for sel in selected:
        penalty = mutual_information(sel, candidate)
        penalty -= conditional_mutual_information(sel, candidate, label)
        worst = max(worst, penalty)
    return RedundancyResult(
        score=float(relevance - worst),
        relevance_term=float(relevance),
        redundancy_term=float(worst),
        conditional_term=0.0,
    )


REDUNDANCY_METHODS: dict[
    str, Callable[[np.ndarray, list[np.ndarray], np.ndarray], RedundancyResult]
] = {
    "mifs": _mifs,
    "mrmr": _mrmr,
    "cife": _cife,
    "jmi": _jmi,
    "cmim": _cmim,
}


def redundancy_score(
    candidate: np.ndarray,
    selected_features: np.ndarray | None,
    label: np.ndarray,
    method: str = "mrmr",
) -> RedundancyResult:
    """Score one candidate feature vector against the selected feature set.

    ``selected_features`` is an (n, m) matrix of the already-accepted
    features (or None/empty when nothing has been selected yet, in which
    case the score reduces to the relevance term).
    """
    if method not in REDUNDANCY_METHODS:
        raise SelectionError(
            f"unknown redundancy method {method!r}; "
            f"expected one of {sorted(REDUNDANCY_METHODS)}"
        )
    cand_codes = discretize(np.asarray(candidate, dtype=np.float64))
    label_codes = discretize(np.asarray(label, dtype=np.float64))
    if selected_features is None or np.size(selected_features) == 0:
        selected_codes: list[np.ndarray] = []
    else:
        selected_codes = _codes_matrix(selected_features)
    return REDUNDANCY_METHODS[method](cand_codes, selected_codes, label_codes)


def greedy_select(
    features: np.ndarray,
    label: np.ndarray,
    k: int,
    method: str = "mrmr",
) -> list[int]:
    """Greedy forward selection of ``k`` features under criterion J.

    The classic wrapper around Equation (1)/(2): at each step the candidate
    with the highest J against the currently-selected set is added.  This
    is the standalone redundancy-metric evaluation protocol of the paper's
    Figure 3b.

    The per-candidate Σ I(X_j;X_k) / Σ I(X_j;X_k|Y) sums (and the running
    max for CMIM) are accumulated incrementally: each greedy step adds the
    one MI term contributed by the feature just selected instead of
    re-summing over the whole selected set, turning the inner loop from
    O(d·|S|) MI evaluations per step into O(d).  Terms are added in
    selection order, so the floating-point sums — and hence the selected
    indices — are bit-identical to the naive rescoring loop.
    """
    X = np.asarray(features, dtype=np.float64)
    if X.ndim != 2:
        raise SelectionError("greedy_select expects a 2-D feature matrix")
    if k < 1:
        raise SelectionError(f"k must be >= 1, got {k}")
    if method not in REDUNDANCY_METHODS:
        raise SelectionError(
            f"unknown redundancy method {method!r}; "
            f"expected one of {sorted(REDUNDANCY_METHODS)}"
        )
    label_codes = discretize(np.asarray(label, dtype=np.float64))
    d = X.shape[1]
    candidate_codes = [discretize(X[:, j]) for j in range(d)]
    relevance = [mutual_information(c, label_codes) for c in candidate_codes]
    max_form = linear_coefficients(method, 0) is None
    track_conditional = not max_form and linear_coefficients(method, 1)[1] != 0.0
    red_sum = [0.0] * d
    cond_sum = [0.0] * d
    worst = [0.0] * d
    selected: list[int] = []
    in_selected = [False] * d
    while len(selected) < min(k, d):
        if max_form:
            beta = lam = 0.0
        else:
            beta, lam = linear_coefficients(method, len(selected))
        best_j, best_score = -1, -np.inf
        for j in range(d):
            if in_selected[j]:
                continue
            if max_form:
                score = float(relevance[j] - worst[j])
            else:
                score = float(
                    relevance[j] - beta * red_sum[j] + lam * cond_sum[j]
                )
            if score > best_score:
                best_j, best_score = j, score
        if best_j < 0:
            break
        selected.append(best_j)
        in_selected[best_j] = True
        new_codes = candidate_codes[best_j]
        for j in range(d):
            if in_selected[j]:
                continue
            mi = mutual_information(new_codes, candidate_codes[j])
            if max_form:
                penalty = mi - conditional_mutual_information(
                    new_codes, candidate_codes[j], label_codes
                )
                worst[j] = max(worst[j], penalty)
            else:
                red_sum[j] += mi
                if track_conditional:
                    cond_sum[j] += conditional_mutual_information(
                        new_codes, candidate_codes[j], label_codes
                    )
    return selected

