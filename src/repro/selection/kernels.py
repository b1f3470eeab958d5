"""Vectorised selection kernels with cross-batch code caching.

The paper's own profiling (Figures 3a/3b) shows relevance/redundancy
scoring dominates AutoFeat's online runtime, yet scoring column by column
re-ranks the label per feature and re-discretises the whole selected set
on every BFS hop.  This module is the scoring analogue of the join engine's
build/probe split (:mod:`repro.engine`):

* :func:`batch_spearman_scores` ranks a whole feature matrix with one
  argsort and computes every correlation against a once-ranked label via
  column-wise reductions — bit-identical to the scalar
  :func:`repro.selection.relevance.relevance_scores` path (NaN-bearing
  columns fall back to it, counted as ``scalar_fallbacks``);
* :class:`SelectionCodeCache` persists the discretised codes (and the
  marginal / label-joint entropy terms) of the label and every accepted
  feature, so redundancy scoring stops re-binning the selected set on
  every batch;
* :func:`batch_redundancy_scores` bins the candidate matrix once and
  reuses the cached contingency terms across all five redundancy criteria
  (MIFS, MRMR, CIFE, JMI, CMIM), falling back to the pairwise-complete
  scalar estimators only for code vectors that actually contain missing
  entries.

Bit-identity is load-bearing: every fast path performs the same numpy
operations on the same (column-contiguous) buffers as the scalar
estimators, which stay public (:func:`relevance_scores` /
:func:`~repro.selection.redundancy.redundancy_scores`) and are what
``tests/selection/test_kernels.py`` compares the kernels — and the
streaming selector built on them — against.
"""

from __future__ import annotations

import numpy as np

from ..errors import SelectionError
from .entropy import (
    conditional_mutual_information,
    discretize,
    entropy,
    mutual_information,
)
from .redundancy import REDUNDANCY_METHODS, linear_coefficients
from .relevance import RELEVANCE_METRICS, _rankdata, relevance_scores
from .stats import SelectionCounters

__all__ = [
    "rank_matrix",
    "batch_spearman_scores",
    "batch_relevance_scores",
    "SelectionCodeCache",
    "batch_redundancy_scores",
]

_TINY = float(np.finfo(np.float64).tiny)


def _column_entropies(M: np.ndarray) -> np.ndarray:
    """Plug-in entropy of every column of a non-negative integer matrix.

    One flat bincount over offset codes replaces the per-column
    :func:`repro.selection.entropy.entropy` calls; each column's positive
    counts come out in the same ascending-bin order, so the per-column
    ``-Σ p·log p`` reduction sees the identical float vector and the result
    is bit-identical to the scalar estimator.
    """
    n, m = M.shape
    if m == 0:
        return np.empty(0, dtype=np.float64)
    out = np.empty(m, dtype=np.float64)
    if n == 0:
        out.fill(0.0)
        return out
    width = int(M.max()) + 1
    offsets = np.arange(m, dtype=np.int64) * width
    flat = (M + offsets[np.newaxis, :]).ravel(order="F")
    counts = np.bincount(flat, minlength=m * width).reshape(m, width)
    for i in range(m):
        c = counts[i]
        c = c[c > 0]
        p = c / n
        out[i] = float(-np.sum(p * np.log(p)))
    return out


def rank_matrix(X: np.ndarray) -> np.ndarray:
    """Column-wise average ranks (midranks for ties) of an all-finite matrix.

    One stable argsort over the whole matrix plus a flattened bincount
    replace the per-column :func:`repro.selection.relevance._rankdata`
    calls; the midrank arithmetic is integer-exact, so the result is
    bit-identical to ranking each column separately.  Returned
    Fortran-ordered so per-column reductions run over contiguous memory.
    """
    X = np.asarray(X, dtype=np.float64)
    if X.ndim != 2:
        raise SelectionError("rank_matrix expects a 2-D matrix")
    n, d = X.shape
    ranks = np.empty((n, d), dtype=np.float64, order="F")
    if n == 0 or d == 0:
        return ranks
    order = np.argsort(X, axis=0, kind="stable")
    sorted_vals = np.take_along_axis(X, order, axis=0)
    new_group = np.empty((n, d), dtype=bool)
    new_group[0, :] = True
    new_group[1:, :] = sorted_vals[1:] != sorted_vals[:-1]
    group_id = np.cumsum(new_group, axis=0) - 1
    # Per-column bincount via one flat bincount over offset group ids.
    offsets = np.arange(d, dtype=np.int64) * n
    flat = (group_id + offsets[np.newaxis, :]).ravel(order="F")
    counts = np.bincount(flat, minlength=n * d).reshape(d, n)
    ends = np.cumsum(counts, axis=1).astype(np.float64)
    midranks = ends - (counts - 1) / 2.0
    per_position = midranks[np.arange(d)[np.newaxis, :], group_id]
    np.put_along_axis(ranks, order, per_position, axis=0)
    return ranks


def _spearman_block(X: np.ndarray, label_ranks: np.ndarray) -> np.ndarray:
    """|Spearman ρ| of every all-finite column against a pre-ranked label.

    The correlations are column-contiguous reductions over the F-ordered
    rank matrix, so their floating-point accumulation order matches the
    per-column scalar :func:`repro.selection.relevance.pearson_relevance`
    exactly.
    """
    sy = np.std(label_ranks)
    my = np.mean(label_ranks)
    ay = max(float(np.abs(label_ranks).max()), _TINY)
    ranks = rank_matrix(X)
    sx = np.std(ranks, axis=0)
    mx = np.mean(ranks, axis=0)
    ax = np.maximum(np.abs(ranks).max(axis=0), _TINY)
    degenerate = (sx <= 1e-12 * ax) | (sy <= 1e-12 * ay)
    centered = np.asfortranarray((ranks - mx) * (label_ranks - my)[:, np.newaxis])
    with np.errstate(divide="ignore", invalid="ignore"):
        r = np.mean(centered, axis=0) / (sx * sy)
    scores = np.abs(np.clip(r, -1.0, 1.0))
    scores[degenerate] = 0.0
    return scores


def batch_spearman_scores(
    features: np.ndarray,
    label: np.ndarray,
    counters: SelectionCounters | None = None,
) -> np.ndarray:
    """|Spearman ρ| of every column against the label, vectorised.

    All-finite columns (against an all-finite label) share one label
    ranking and one matrix-wide column ranking.  NaN-bearing columns are
    grouped by their pairwise-complete row mask — on joined tables every
    column of a batch misses the *same* rows (the ones the join did not
    match), so whole batches share one mask — and each group runs the same
    block computation on its compacted rows.  Either way the result is
    bit-identical to the scalar pairwise-complete path.
    """
    X = np.asarray(features, dtype=np.float64)
    if X.ndim != 2:
        raise SelectionError("batch_spearman_scores expects a 2-D matrix")
    y = np.asarray(label, dtype=np.float64)
    if y.ndim != 1 or y.shape[0] != X.shape[0]:
        raise SelectionError(
            f"label shape {y.shape} does not match matrix {X.shape}"
        )
    n, d = X.shape
    out = np.zeros(d, dtype=np.float64)
    if d == 0 or n < 2:
        # Fewer than two rows can never yield a defined correlation; the
        # scalar path scores every such column 0.0.
        return out
    y_finite = np.isfinite(y)
    fast = (
        np.isfinite(X).all(axis=0)
        if bool(y_finite.all())
        else np.zeros(d, dtype=bool)
    )
    fast_idx = np.flatnonzero(fast)
    if fast_idx.size:
        out[fast_idx] = _spearman_block(X[:, fast_idx], _rankdata(y))
    slow_idx = np.flatnonzero(~fast)
    if slow_idx.size:
        # Group by the raw bytes of each column's pairwise-complete mask
        # (np.unique over boolean columns routes through numpy's structured
        # void dtype and costs more than the ranking it saves).
        masks = np.asfortranarray(np.isfinite(X[:, slow_idx]) & y_finite[:, np.newaxis])
        groups: dict[bytes, list[int]] = {}
        for k in range(slow_idx.size):
            groups.setdefault(masks[:, k].tobytes(), []).append(k)
        for members in groups.values():
            mask = masks[:, members[0]]
            if int(mask.sum()) < 2:
                continue  # scalar path scores such columns 0.0
            cols = slow_idx[members]
            out[cols] = _spearman_block(X[np.ix_(mask, cols)], _rankdata(y[mask]))
    return out


def batch_relevance_scores(
    features: np.ndarray,
    label: np.ndarray,
    metric: str = "spearman",
    seed: int = 0,
    counters: SelectionCounters | None = None,
) -> np.ndarray:
    """Kernel-accelerated drop-in for :func:`relevance_scores`.

    Spearman — AutoFeat's published metric — routes through the vectorised
    kernel; every other metric delegates to the scalar implementation, so
    callers can switch unconditionally.
    """
    X = np.asarray(features, dtype=np.float64)
    if X.ndim != 2:
        raise SelectionError("batch_relevance_scores expects a 2-D matrix")
    if metric != "relief" and metric not in RELEVANCE_METRICS:
        raise SelectionError(
            f"unknown relevance metric {metric!r}; expected one of "
            f"{sorted(RELEVANCE_METRICS) + ['relief']}"
        )
    if counters is not None:
        counters.features_ranked += X.shape[1]
    if metric == "spearman":
        return batch_spearman_scores(X, label, counters=counters)
    return relevance_scores(X, label, metric=metric, seed=seed)


class SelectionCodeCache:
    """Persistent discretised-code cache for a run's selected feature set.

    Stores, for the label and every accepted feature, the integer codes
    plus the entropy terms that are independent of the candidate being
    scored: H(X_j), and H(X_j, Y) for the conditional criteria.  The legacy
    path recomputes all of this — O(|S|·n) re-binning plus a full
    ``column_stack`` copy — on every batch of every hop.
    """

    def __init__(
        self,
        label: np.ndarray,
        counters: SelectionCounters | None = None,
    ):
        self._counters = counters
        label = np.asarray(label, dtype=np.float64)
        self.label_codes = discretize(label)
        self.label_has_missing = bool((self.label_codes < 0).any())
        self.label_width = (
            int(self.label_codes.max()) + 1 if self.label_codes.size else 1
        )
        self.label_entropy = entropy(self.label_codes)
        self._codes: list[np.ndarray] = []
        self._entropies: list[float] = []
        self._label_joint_entropies: list[float] = []
        self._has_missing: list[bool] = []
        # For features with missing entries: their own validity mask, the
        # compacted codes and the entropy over them.  These let the scorer
        # treat "one side complete, other side missing" pairs on a masked
        # fast path (the pairwise-complete mask is then just the missing
        # side's own mask) instead of falling all the way back to scalar.
        self._valid_masks: list[np.ndarray | None] = []
        self._valid_codes: list[np.ndarray | None] = []
        self._valid_entropies: list[float] = []
        # Positions of the complete (no missing) features, plus their codes
        # stacked into one F-ordered matrix so the scorer can compute all
        # their joint entropies against a candidate in one flat bincount.
        self._complete_positions: list[int] = []
        self._complete_matrix: np.ndarray | None = None
        if counters is not None:
            counters.codes_cached += 1  # the label's codes

    @property
    def n_selected(self) -> int:
        return len(self._codes)

    def complete_matrix(self) -> np.ndarray:
        """(n, m) F-ordered stack of the complete features' codes."""
        if self._complete_matrix is None:
            n = self.label_codes.shape[0]
            if self._complete_positions:
                self._complete_matrix = np.asfortranarray(
                    np.column_stack(
                        [self._codes[i] for i in self._complete_positions]
                    )
                )
            else:
                self._complete_matrix = np.empty((n, 0), dtype=np.int64)
        return self._complete_matrix

    @property
    def selected_codes(self) -> list[np.ndarray]:
        """The cached code vectors (insertion order, not copied)."""
        return self._codes

    def add(self, column: np.ndarray) -> None:
        """Discretise and cache one newly-accepted feature column."""
        codes = discretize(np.asarray(column, dtype=np.float64))
        missing = bool((codes < 0).any())
        self._codes.append(codes)
        self._has_missing.append(missing)
        self._entropies.append(entropy(codes))
        if missing:
            mask = codes >= 0
            valid = codes[mask]
            self._valid_masks.append(mask)
            self._valid_codes.append(valid)
            self._valid_entropies.append(entropy(valid))
        else:
            self._valid_masks.append(None)
            self._valid_codes.append(None)
            self._valid_entropies.append(0.0)
            self._complete_positions.append(len(self._codes) - 1)
            self._complete_matrix = None  # rebuilt lazily on next use
        if missing or self.label_has_missing:
            # Pairwise-complete terms depend on the candidate's mask; the
            # scalar fallback recomputes them, so cache a placeholder.
            self._label_joint_entropies.append(0.0)
        else:
            self._label_joint_entropies.append(
                entropy(codes * self.label_width + self.label_codes)
            )
        if self._counters is not None:
            self._counters.codes_cached += 1


def batch_redundancy_scores(
    candidates: np.ndarray,
    cache: SelectionCodeCache,
    method: str = "mrmr",
    counters: SelectionCounters | None = None,
) -> np.ndarray:
    """Score every candidate column against the cached selected set.

    Drop-in for :func:`repro.selection.redundancy.redundancy_scores` with
    the selected set's codes served from ``cache``.  Each candidate is
    binned once; its marginal entropy H(X_k) and label-joint entropy
    H(X_k, Y) are computed once and reused across every pairwise term, and
    the cached H(X_j) / H(X_j, Y) terms are shared across the whole batch.
    Pairs whose codes contain missing entries fall back to the scalar
    pairwise-complete estimators (``counters.scalar_fallbacks``).
    """
    X = np.asarray(candidates, dtype=np.float64)
    if X.ndim != 2:
        raise SelectionError("batch_redundancy_scores expects a 2-D matrix")
    if method not in REDUNDANCY_METHODS:
        raise SelectionError(
            f"unknown redundancy method {method!r}; "
            f"expected one of {sorted(REDUNDANCY_METHODS)}"
        )
    label_codes = cache.label_codes
    if X.shape[0] != label_codes.shape[0]:
        raise SelectionError(
            f"candidate matrix has {X.shape[0]} rows, label has "
            f"{label_codes.shape[0]}"
        )
    n_selected = cache.n_selected
    if counters is not None:
        counters.codes_reused += n_selected
    coeffs = linear_coefficients(method, n_selected)
    max_form = coeffs is None and method == "cmim"
    if coeffs is None and not max_form:
        # Unknown-form criterion: score through the registered scalar
        # scorer, still saving the per-batch re-discretisation.
        scorer = REDUNDANCY_METHODS[method]
        return np.asarray(
            [
                scorer(discretize(X[:, j]), cache.selected_codes, label_codes).score
                for j in range(X.shape[1])
            ],
            dtype=np.float64,
        )
    beta, lam = (0.0, 0.0) if max_form else coeffs
    label_fast = not cache.label_has_missing and label_codes.size > 0
    wz = cache.label_width
    h_label = cache.label_entropy

    out = np.empty(X.shape[1], dtype=np.float64)
    for j in range(X.shape[1]):
        cand = discretize(X[:, j])
        cand_missing = bool((cand < 0).any())
        cand_fast = not cand_missing and cand.size > 0
        h_cand = entropy(cand) if cand_fast else 0.0
        wc = int(cand.max()) + 1 if cand.size else 1
        # Masked variants for a candidate with missing entries: against any
        # *complete* vector the pairwise-complete mask is just the
        # candidate's own validity mask, so the candidate-side terms are
        # computed once here and shared across the label and the whole
        # selected set.
        cand_mask = None
        cand_valid = None
        h_cand_valid = 0.0
        wc_valid = 1
        if cand_missing:
            cand_mask = cand >= 0
            cand_valid = cand[cand_mask]
            if cand_valid.size:
                h_cand_valid = entropy(cand_valid)
                wc_valid = int(cand_valid.max()) + 1
        cand_label_joint = None
        if label_fast and cand_fast:
            cand_label_joint = entropy(cand * wz + label_codes)
            relevance = max(0.0, float(h_cand + h_label - cand_label_joint))
        elif label_fast and cand_missing and cand_valid.size:
            label_m = label_codes[cand_mask]
            relevance = max(
                0.0,
                float(
                    h_cand_valid
                    + entropy(label_m)
                    - entropy(cand_valid * (int(label_m.max()) + 1) + label_m)
                ),
            )
        else:
            if counters is not None:
                counters.scalar_fallbacks += 1
            relevance = mutual_information(cand, label_codes)

        # The complete selected features share one joint-entropy batch: the
        # joint codes against the candidate are built as one broadcast and
        # binned with one flat bincount (per-pair float expressions — and
        # hence results — are unchanged).  Missing-code features keep the
        # per-pair masked / scalar paths.
        needs_conditional = max_form or lam != 0.0
        complete = cache._complete_positions
        mi_by_pos: dict[int, float] = {}
        cmi_by_pos: dict[int, float] = {}
        if complete:
            if cand_fast:
                joint = cache.complete_matrix() * wc + cand[:, np.newaxis]
                h_joint = _column_entropies(joint)
                for t, i in enumerate(complete):
                    mi_by_pos[i] = max(
                        0.0, float(cache._entropies[i] + h_cand - h_joint[t])
                    )
                if needs_conditional and label_fast:
                    h_joint3 = _column_entropies(
                        joint * wz + label_codes[:, np.newaxis]
                    )
                    for t, i in enumerate(complete):
                        cmi_by_pos[i] = max(
                            0.0,
                            float(
                                cache._label_joint_entropies[i]
                                + cand_label_joint
                                - h_joint3[t]
                                - h_label
                            ),
                        )
            elif cand_missing and cand_valid.size:
                sub = cache.complete_matrix()[cand_mask]
                h_sub = _column_entropies(sub)
                h_joint = _column_entropies(
                    sub * wc_valid + cand_valid[:, np.newaxis]
                )
                for t, i in enumerate(complete):
                    mi_by_pos[i] = max(
                        0.0, float(h_sub[t] + h_cand_valid - h_joint[t])
                    )
            elif cand_missing:
                for i in complete:
                    mi_by_pos[i] = 0.0

        redundancy = 0.0
        conditional = 0.0
        worst = 0.0
        for i in range(n_selected):
            sel_missing = cache._has_missing[i]
            if i in mi_by_pos:
                mi = mi_by_pos[i]
            elif cand_fast and sel_missing:
                sel_valid = cache._valid_codes[i]
                if sel_valid.size:
                    cand_m = cand[cache._valid_masks[i]]
                    mi = max(
                        0.0,
                        float(
                            cache._valid_entropies[i]
                            + entropy(cand_m)
                            - entropy(
                                sel_valid * (int(cand_m.max()) + 1) + cand_m
                            )
                        ),
                    )
                else:
                    mi = 0.0
            else:
                if counters is not None:
                    counters.scalar_fallbacks += 1
                mi = mutual_information(cache._codes[i], cand)
            cmi = 0.0
            if needs_conditional:
                if i in cmi_by_pos:
                    cmi = cmi_by_pos[i]
                else:
                    if counters is not None:
                        counters.scalar_fallbacks += 1
                    cmi = conditional_mutual_information(
                        cache._codes[i], cand, label_codes
                    )
            if max_form:
                worst = max(worst, mi - cmi)
            else:
                redundancy += mi
                if lam != 0.0:
                    conditional += cmi
        if max_form:
            out[j] = float(relevance - worst)
        else:
            out[j] = float(relevance - beta * redundancy + lam * conditional)
    return out
