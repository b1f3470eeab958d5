"""Selection scores one feature (or one column) at a time.

The pipeline scores a whole hop's candidates at once: Spearman relevance
from rank codes (``batch_spearman_scores``) and Eq. (1)'s redundancy from
flat-bincount contingencies (``batch_redundancy_scores``), both against a
``SelectionCodeCache``.  These are the plain forms the kernels are held
to: scalar |Spearman ρ| as the Pearson correlation of midranks (and the
column-by-column relevance menu), the five redundancy criteria applied
to one candidate at a time, the greedy forward selection over them, and
the column-wise midrank matrix.
"""

from dataclasses import dataclass

import numpy as np

from repro.errors import SelectionError
from repro.selection.entropy import (
    conditional_mutual_information,
    discretize,
    mutual_information,
)
from repro.selection.kernels import _midranks, column_codes
from repro.selection.relevance import (
    _SCORERS,
    RELEVANCE_METRICS,
    _paired,
    pearson_relevance,
    relief_scores,
)


def rankdata(values: np.ndarray) -> np.ndarray:
    """Average ranks in [1, N] (midranks for ties)."""
    order = np.argsort(values, kind="stable")
    sorted_vals = values[order]
    if values.size == 0:
        return np.empty(0, dtype=np.float64)
    new_group = np.r_[True, sorted_vals[1:] != sorted_vals[:-1]]
    group_id = np.cumsum(new_group) - 1
    counts = np.bincount(group_id)
    ends = np.cumsum(counts).astype(np.float64)
    midranks = ends - (counts - 1) / 2.0
    ranks = np.empty(values.size, dtype=np.float64)
    ranks[order] = midranks[group_id]
    return ranks


def spearman_relevance(feature: np.ndarray, label: np.ndarray) -> float:
    """|Spearman ρ| over the pairwise-complete rows: Pearson of midranks."""
    x, y = _paired(feature, label)
    if x.size < 2:
        return 0.0
    return pearson_relevance(rankdata(x), rankdata(y))


def relevance_scores(
    features: np.ndarray,
    label: np.ndarray,
    metric: str = "spearman",
    seed: int = 0,
) -> np.ndarray:
    """Score every column of ``features`` against ``label``, one column at
    a time (Relief scores all columns jointly)."""
    X = np.asarray(features, dtype=np.float64)
    if X.ndim != 2:
        raise SelectionError("relevance_scores expects a 2-D feature matrix")
    if metric == "relief":
        return relief_scores(X, label, seed=seed)
    if metric not in RELEVANCE_METRICS:
        raise SelectionError(f"unknown relevance metric {metric!r}")
    scorer = spearman_relevance if metric == "spearman" else _SCORERS[metric]
    return np.asarray(
        [scorer(X[:, j], label) for j in range(X.shape[1])], dtype=np.float64
    )


@dataclass(frozen=True)
class RedundancyResult:
    """Outcome of scoring one candidate feature against the selected set."""

    score: float
    relevance_term: float
    redundancy_term: float
    conditional_term: float


def _codes_matrix(features: np.ndarray | None) -> list[np.ndarray]:
    if features is None or np.size(features) == 0:
        return []
    X = np.asarray(features, dtype=np.float64)
    if X.ndim == 1:
        X = X.reshape(-1, 1)
    return [discretize(X[:, j]) for j in range(X.shape[1])]


def _linear_combination(candidate, selected, label, beta, lam) -> RedundancyResult:
    """J = I(X_k; Y) − β · Σ I(X_j; X_k) + λ · Σ I(X_j; X_k | Y)."""
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


def _beta_lambda(method: str, n_selected: int) -> tuple[float, float]:
    """(β, λ) of Equation (1), from the paper's table."""
    w = 1.0 / n_selected if n_selected else 0.0
    return {"mifs": (0.5, 0.0), "mrmr": (w, 0.0), "cife": (1.0, 1.0), "jmi": (w, w)}[method]


def _mifs(candidate, selected, label) -> RedundancyResult:
    return _linear_combination(candidate, selected, label, *_beta_lambda("mifs", len(selected)))


def _mrmr(candidate, selected, label) -> RedundancyResult:
    return _linear_combination(candidate, selected, label, *_beta_lambda("mrmr", len(selected)))


def _cife(candidate, selected, label) -> RedundancyResult:
    return _linear_combination(candidate, selected, label, *_beta_lambda("cife", len(selected)))


def _jmi(candidate, selected, label) -> RedundancyResult:
    return _linear_combination(candidate, selected, label, *_beta_lambda("jmi", len(selected)))


def _cmim(candidate, selected, label) -> RedundancyResult:
    """Equation (2): I(X_k; Y) − max_j [I(X_j; X_k) − I(X_j; X_k | Y)]."""
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


SCORERS = {"mifs": _mifs, "mrmr": _mrmr, "cife": _cife, "jmi": _jmi, "cmim": _cmim}


def _check_method(method: str) -> None:
    if method not in SCORERS:
        raise SelectionError(
            f"unknown redundancy method {method!r}; expected one of {sorted(SCORERS)}"
        )


def redundancy_score(
    candidate: np.ndarray,
    selected_features: np.ndarray | None,
    label: np.ndarray,
    method: str = "mrmr",
) -> RedundancyResult:
    """Score one candidate feature vector against the (n, m) matrix of
    selected features (None or empty: the score is the relevance term)."""
    _check_method(method)
    cand_codes = discretize(np.asarray(candidate, dtype=np.float64))
    label_codes = discretize(np.asarray(label, dtype=np.float64))
    selected_codes = _codes_matrix(selected_features)
    return SCORERS[method](cand_codes, selected_codes, label_codes)


def redundancy_scores(
    candidates: np.ndarray,
    selected_features: np.ndarray | None,
    label: np.ndarray,
    method: str = "mrmr",
) -> np.ndarray:
    """``method``'s score of every column of ``candidates`` against the
    selected features, one column at a time."""
    X = np.asarray(candidates, dtype=np.float64)
    if X.ndim != 2:
        raise SelectionError("redundancy_scores expects a 2-D candidate matrix")
    _check_method(method)
    label_codes = discretize(np.asarray(label, dtype=np.float64))
    selected_codes = _codes_matrix(selected_features)
    scorer = SCORERS[method]
    return np.asarray(
        [scorer(discretize(X[:, j]), selected_codes, label_codes).score for j in range(X.shape[1])],
        dtype=np.float64,
    )


def naive_greedy(X, label, k, method) -> list[tuple[int, float]]:
    """Greedy forward selection that rescores every remaining column
    against the whole selected set at each step: the ``(column, J)`` of
    each of ``min(k, d)`` picks, the first best column of each step."""
    label_codes = discretize(np.asarray(label, dtype=np.float64))
    d = X.shape[1]
    codes = [discretize(X[:, j]) for j in range(d)]
    scorer = SCORERS[method]
    picks: list[tuple[int, float]] = []
    while len(picks) < min(k, d):
        sel_codes = [codes[i] for i, __ in picks]
        taken = {i for i, __ in picks}
        best_j, best_score = -1, -np.inf
        for j in range(d):
            if j in taken:
                continue
            score = scorer(codes[j], sel_codes, label_codes).score
            if score > best_score:
                best_j, best_score = j, score
        if best_j < 0:
            break
        picks.append((best_j, best_score))
    return picks


def greedy_select(
    features: np.ndarray,
    label: np.ndarray,
    k: int,
    method: str = "mrmr",
) -> list[int]:
    """:func:`naive_greedy`'s picks for ``min(k, d)`` steps, with each
    column's Σ I(X_j;X_k) / Σ I(X_j;X_k|Y) (CMIM: running max) grown by
    the one term of the column picked last, in selection order — the same
    sums, so the same picks, in O(d) MI evaluations per step."""
    X = np.asarray(features, dtype=np.float64)
    if X.ndim != 2:
        raise SelectionError("greedy_select expects a 2-D feature matrix")
    if k < 1:
        raise SelectionError(f"k must be >= 1, got {k}")
    _check_method(method)
    label_codes = discretize(np.asarray(label, dtype=np.float64))
    d = X.shape[1]
    candidate_codes = [discretize(X[:, j]) for j in range(d)]
    relevance = [mutual_information(c, label_codes) for c in candidate_codes]
    max_form = method == "cmim"
    track_conditional = method in ("cife", "jmi")
    red_sum = [0.0] * d
    cond_sum = [0.0] * d
    worst = [0.0] * d
    selected: list[int] = []
    in_selected = [False] * d
    while len(selected) < min(k, d):
        beta, lam = (0.0, 0.0) if max_form else _beta_lambda(method, len(selected))
        best_j, best_score = -1, -np.inf
        for j in range(d):
            if in_selected[j]:
                continue
            if max_form:
                score = float(relevance[j] - worst[j])
            else:
                score = float(relevance[j] - beta * red_sum[j] + lam * cond_sum[j])
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


def rank_matrix(X: np.ndarray) -> np.ndarray:
    """Column-wise midranks of an all-finite matrix, Fortran-ordered —
    bit-identical to ranking each column separately with ``rankdata``."""
    X = np.asarray(X, dtype=np.float64)
    if X.ndim != 2:
        raise SelectionError("rank_matrix expects a 2-D matrix")
    if not np.isfinite(X).all():
        raise SelectionError("rank_matrix expects an all-finite matrix")
    return _midranks(column_codes(X)).T
