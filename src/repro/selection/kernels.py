"""Vectorised selection kernels with cross-batch code caching.

The paper's own profiling (Figures 3a/3b) shows relevance/redundancy
scoring dominates AutoFeat's online runtime, yet scoring column by column
re-ranks the label per feature and re-discretises the whole selected set
on every BFS hop.  This module is the scoring analogue of the join engine's
build/probe split (:mod:`repro.engine`), and both of its kernels rest on
one observation about joined tables: a left join leaves the *same* rows
unmatched in every column it brings, so columns fall into a handful of
validity masks — *group by mask, then count once per group*:

* :func:`batch_spearman_scores` works from each column's dense rank
  codes (:func:`~repro.dataframe.encoding.rank_codes`; a discovery hop
  gathers them from its join index, any other caller derives them with
  :func:`column_codes`): columns are grouped by their pairwise-complete
  row mask, and per group one flat ``bincount`` over the codes gives every
  column's midranks — and the label's, from its codes — and column-wise
  reductions give every correlation;
* :class:`SelectionCodeCache` persists the discretised codes of the label
  and of every accepted feature — the features in insertion order, as
  runs of consecutive features sharing one validity mask — so redundancy
  scoring stops re-binning the selected set on every batch;
* :func:`batch_redundancy_scores` bins the candidate matrix once (from
  the same rank codes), groups
  it by validity mask, and for every (run, candidate group) pair counts
  one (selected × candidate [× label]) contingency cube over their shared
  complete rows; every entropy term of all five redundancy criteria (MIFS,
  MRMR, CIFE, JMI, CMIM) is read off that cube.  Under the criteria whose
  penalty only grows it stops counting a candidate once its partial score
  proves it cannot be accepted.  There is no per-pair scalar fallback
  (``scalar_fallbacks`` stays 0).

Bit-identity is load-bearing: every kernel evaluates the same float
expressions on the same values in the same order as the scalar
estimators — :func:`relevance_scores` and the column-by-column
``redundancy_scores`` / ``rank_matrix`` of ``tests/oracle/selection.py`` —
which ``tests/selection/test_kernels.py`` compares the kernels, and the
streaming selector built on them, against.  The one relaxation: a
redundancy score that is not positive is returned as some value ≤ 0.
"""

from __future__ import annotations

from typing import Iterator

import numpy as np

from ..dataframe.encoding import rank_codes
from ..errors import SelectionError
from .entropy import discretize
from .redundancy import REDUNDANCY_METHODS, linear_coefficients
from .relevance import RELEVANCE_METRICS, relevance_scores
from .stats import SelectionStats

__all__ = [
    "column_codes",
    "batch_spearman_scores",
    "batch_relevance_scores",
    "SelectionCodeCache",
    "batch_redundancy_scores",
]

_TINY = float(np.finfo(np.float64).tiny)

#: Upper bound on the elements of one contingency cube (codes binned, or
#: bins counted, whichever is larger); wider selected runs are scored in
#: blocks of columns.  8 MB of int64 — a constant, not a tuning knob.
_CUBE_BUDGET = 1 << 20


def _mask_groups(masks: np.ndarray) -> list[tuple[np.ndarray, list[int]]]:
    """Rows of a boolean matrix grouped by identical content.

    Returns ``(mask, row indices)`` per distinct row, in first-seen order.
    Keyed by the raw bytes of each row: ``np.unique`` over boolean vectors
    routes through numpy's structured void dtype and costs more than the
    work the grouping saves.
    """
    masks = np.ascontiguousarray(masks)
    groups: dict[bytes, list[int]] = {}
    for k in range(masks.shape[0]):
        groups.setdefault(masks[k].tobytes(), []).append(k)
    return [(masks[members[0]], members) for members in groups.values()]


def _table_entropies(counts: np.ndarray, n: int) -> np.ndarray:
    """Plug-in entropy of every row of a 2-D table of bin counts.

    Each row holds the bin counts of one variable over the same ``n``
    observations.  ``p·log p`` of every positive count is computed in one
    pass over the whole table; what is left per row is one
    ``np.add.reduce`` over the row's own contiguous run of terms — the
    reduction :func:`repro.selection.entropy.entropy` performs on the same
    values in the same ascending-bin order, which is what keeps the result
    bit-identical to it (``np.add.reduceat`` sums in another order and is
    not).
    """
    rows, width = counts.shape
    flat = counts.ravel()
    positive = np.flatnonzero(flat)
    p = flat[positive] / n
    terms = p * np.log(p)
    bounds = np.searchsorted(positive, np.arange(rows + 1) * width).tolist()
    reduce = np.add.reduce
    return -np.array(
        [reduce(terms[lo:hi]) for lo, hi in zip(bounds, bounds[1:])],
        dtype=np.float64,
    )


def column_codes(X: np.ndarray) -> np.ndarray:
    """Rank codes of every column of a matrix: (columns, rows) ``int32``.

    One :func:`~repro.dataframe.encoding.rank_codes` (``np.unique``) per
    column, -1 where a value is not finite — the codes of a caller that
    holds only the matrix.  A discovery hop gathers the same ranking from
    its join index instead (:meth:`repro.dataframe.JoinIndex.gather`).
    """
    X = np.asarray(X, dtype=np.float64)
    if X.ndim != 2:
        raise SelectionError("column_codes expects a 2-D matrix")
    codes = np.empty((X.shape[1], X.shape[0]), dtype=np.int32)
    for j in range(X.shape[1]):
        codes[j] = rank_codes(X[:, j])
    return codes


def _midranks(codes: np.ndarray) -> np.ndarray:
    """Average ranks (midranks for ties) of each row of non-negative codes.

    ``codes`` is (k, m); row ``i``'s ranks come from one flat ``bincount``
    over every row's codes, offset into its own segment: a code's midrank
    is the running count up to it minus half its own count less one.  The
    arithmetic is integer-exact and is
    :func:`repro.selection.relevance._rankdata`'s ``ends - (counts - 1) /
    2.0``, so the result is bit-identical to ranking each row's values.
    Returns (k, m) float64, C-ordered: its transpose is the F-ordered
    (m, k) matrix the column reductions run over.
    """
    k, m = codes.shape
    if k == 0 or m == 0:
        return np.empty((k, m), dtype=np.float64)
    widths = codes.max(axis=1).astype(np.int64) + 1
    starts = np.zeros(k, dtype=np.int64)
    np.cumsum(widths[:-1], out=starts[1:])
    flat = codes + starts[:, np.newaxis]
    counts = np.bincount(flat.ravel(), minlength=int(starts[-1] + widths[-1]))
    ends = np.cumsum(counts)
    ends -= np.repeat(ends[starts] - counts[starts], widths)
    midranks = ends.astype(np.float64) - (counts - 1) / 2.0
    return midranks[flat]


def _spearman_block(ranks: np.ndarray, label_ranks: np.ndarray) -> np.ndarray:
    """|Spearman ρ| of every column of an F-ordered midrank matrix against
    the label's midranks over the same rows.

    The correlations are column-contiguous reductions over the F-ordered
    rank matrix, so their floating-point accumulation order matches the
    per-column scalar :func:`repro.selection.relevance.pearson_relevance`
    exactly.
    """
    sy = np.std(label_ranks)
    my = np.mean(label_ranks)
    ay = max(float(np.abs(label_ranks).max()), _TINY)
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
    codes: np.ndarray | None = None,
    label_codes: np.ndarray | None = None,
) -> np.ndarray:
    """|Spearman ρ| of every column against the label, vectorised.

    Spearman reads only the order of values, so the kernel runs on rank
    codes: ``codes`` (columns × rows, as :func:`column_codes` returns, or
    any codes that order like the columns' values and are -1 exactly
    where they are not finite) and ``label_codes``; either one missing is
    derived from its values.  Columns are grouped by their
    pairwise-complete row mask — on joined tables every column of a batch
    misses the *same* rows (the ones the join did not match), so whole
    batches share one mask — and each group with at least two rows ranks
    its compacted codes with :func:`_midranks` and runs
    :func:`_spearman_block`.  The result is bit-identical to the scalar
    pairwise-complete path.
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
    if codes is None:
        codes = column_codes(X)
    if label_codes is None:
        label_codes = rank_codes(y)
    valid = (codes >= 0) & (label_codes >= 0)
    for mask, members in _mask_groups(valid):
        rows = np.flatnonzero(mask)
        if rows.size < 2:
            continue  # scalar path scores such columns 0.0
        group = codes[members]
        label_group = label_codes[np.newaxis, :]
        if rows.size < n:
            group = group.take(rows, axis=1)
            label_group = label_group.take(rows, axis=1)
        out[members] = _spearman_block(
            _midranks(group).T, _midranks(label_group)[0]
        )
    return out


def batch_relevance_scores(
    features: np.ndarray,
    label: np.ndarray,
    metric: str = "spearman",
    seed: int = 0,
    counters: SelectionStats | None = None,
    codes: np.ndarray | None = None,
    label_codes: np.ndarray | None = None,
) -> np.ndarray:
    """Kernel-accelerated drop-in for :func:`relevance_scores`.

    Spearman — AutoFeat's published metric — routes through the vectorised
    kernel (with the rank ``codes`` / ``label_codes`` when the caller
    holds them); every other metric delegates to the scalar
    implementation, so callers can switch unconditionally.
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
        return batch_spearman_scores(X, label, codes, label_codes)
    return relevance_scores(X, label, metric=metric, seed=seed)


#: Most features in one run of :class:`SelectionCodeCache` — how far the
#: redundancy kernel walks ``R_sel`` between two early-rejection checks.
#: 4, 8 and 16 measured within noise of each other on ``dense_discover``;
#: 8 is kept.  Not a tuning knob.
_RUN_ROWS = 8


class SelectionCodeCache:
    """Persistent discretised-code cache for a run's selected feature set.

    Holds the label's codes and, for every accepted feature, its codes —
    binned once, at acceptance — as the rows of one matrix in ``R_sel``
    insertion order, grown by doubling.  Consecutive features that share a
    validity mask form a *run* of at most :data:`_RUN_ROWS` rows, the unit
    :func:`batch_redundancy_scores` counts at once.  Entropy terms are not
    cached: over pairwise-complete rows they depend on the candidate's mask
    too, and the kernel reads them off the contingency cube it counts anyway.
    """

    def __init__(
        self,
        label: np.ndarray,
        counters: SelectionStats | None = None,
    ):
        self._counters = counters
        self.label_codes = discretize(np.asarray(label, dtype=np.float64))
        self.label_mask = self.label_codes >= 0
        self.n_selected = 0
        self._codes = np.empty((4, self.label_codes.shape[0]), dtype=np.int64)
        self._runs: list[tuple[np.ndarray, int, int]] = []  # (mask, start, stop)
        if counters is not None:
            counters.codes_cached += 1  # the label's codes

    @property
    def runs(self) -> Iterator[tuple[np.ndarray, np.ndarray]]:
        """``R_sel`` in insertion order as ``(mask, codes)`` runs; ``codes``
        is (features, n), -1 exactly where ``mask`` is False."""
        for mask, start, stop in self._runs:
            yield mask, self._codes[start:stop]

    def add(self, column: np.ndarray, codes: np.ndarray | None = None) -> None:
        """Discretise and cache one newly-accepted feature column (from its
        rank ``codes`` when the caller holds them)."""
        codes = discretize(np.asarray(column, dtype=np.float64), codes=codes)
        mask = codes >= 0
        used = self.n_selected
        if used == self._codes.shape[0]:
            grown = np.empty((2 * used, codes.shape[0]), dtype=np.int64)
            grown[:used] = self._codes
            self._codes = grown
        self._codes[used] = codes
        last = self._runs[-1] if self._runs else None
        if last and used - last[1] < _RUN_ROWS and np.array_equal(last[0], mask):
            self._runs[-1] = (last[0], last[1], used + 1)
        else:
            self._runs.append((mask, used, used + 1))
        self.n_selected += 1
        if self._counters is not None:
            self._counters.codes_cached += 1


def _pair_information(
    left: np.ndarray, right: np.ndarray, given: np.ndarray | None = None
) -> np.ndarray:
    """max(0, I(L_i; R_j)) — or I(L_i; R_j | Z) — for every pair of rows.

    ``left`` (a, r) and ``right`` (b, r) hold one code vector per row over
    the same ``r`` observations, all complete (the caller compacts to the
    observations every vector — and ``given``, the (r,) conditioning codes
    — is valid on).  One flat offset bincount fills the (a, b, L, R, Z)
    contingency cube; summing it over an axis gives the exact integer
    counts of each marginal, so H(L,Z), H(R,Z), H(L,R,Z) and H(Z) all come
    from that one count, in the bin order — and through the float
    expression ``H(L,Z) + H(R,Z) - H(L,R,Z) - H(Z)`` — of the scalar
    :func:`~repro.selection.entropy.conditional_mutual_information`.
    Without ``given`` Z is constant and the expression is
    :func:`~repro.selection.entropy.mutual_information`'s
    ``H(L) + H(R) - H(L,R)``.  A cube is kept under :data:`_CUBE_BUDGET`
    by counting ``left`` in blocks of rows (one row at the least).
    """
    a, r = left.shape
    b = right.shape[0]
    out = np.zeros((a, b), dtype=np.float64)
    if r == 0 or a == 0 or b == 0:
        return out  # no pairwise-complete rows: the scalar estimators say 0.0
    wl, wr = int(left.max()) + 1, int(right.max()) + 1
    wz = 1 if given is None else int(given.max()) + 1
    width = wl * wr * wz
    right = right * wz + (np.arange(b, dtype=np.int64) * width)[:, np.newaxis]
    if given is not None:
        right += given
    step = max(1, _CUBE_BUDGET // (b * max(r, width)))
    for lo in range(0, a, step):
        block = left[lo : lo + step] * (wr * wz)
        m = block.shape[0]
        block += (np.arange(m, dtype=np.int64) * (b * width))[:, np.newaxis]
        flat = (block[:, np.newaxis, :] + right[np.newaxis, :, :]).ravel()
        cube = np.bincount(flat, minlength=m * b * width).reshape(m, b, wl, wr, wz)
        h_left = _table_entropies(cube[:, 0].sum(axis=2).reshape(m, wl * wz), r)
        h_right = _table_entropies(cube[0].sum(axis=1).reshape(b, wr * wz), r)
        h_joint = _table_entropies(cube.reshape(m * b, width), r).reshape(m, b)
        info = h_left[:, np.newaxis] + h_right[np.newaxis, :] - h_joint
        if given is not None:
            info -= _table_entropies(cube[0, 0].sum(axis=(0, 1))[np.newaxis, :], r)
        out[lo : lo + m] = np.where(info > 0.0, info, 0.0)
    return out


def _add_in_order(total: np.ndarray, terms: np.ndarray) -> np.ndarray:
    """``total`` plus the rows of ``terms``, one ``+=`` per row in R_sel
    insertion order — the running sum of the scalar criteria, per column."""
    for row in terms:
        total += row
    return total


def batch_redundancy_scores(
    candidates: np.ndarray,
    cache: SelectionCodeCache,
    method: str = "mrmr",
    counters: SelectionStats | None = None,
    codes: np.ndarray | None = None,
) -> np.ndarray:
    """Score every candidate column against the cached selected set.

    Every positive score is bit-identical to scoring each candidate with
    :func:`repro.selection.redundancy.redundancy_score` with the selected
    set's codes served from ``cache``; a non-positive one is returned as
    *some* value ≤ 0 — the bound that proved it.  Candidates are binned
    once and grouped by validity mask, and ``R_sel`` is walked run by run
    in insertion order: each (run, candidate group) pair shares one set of
    pairwise-complete rows, over which :func:`_pair_information` counts
    every I(X_j; X_k) — and, for CIFE/JMI/CMIM, every I(X_j; X_k | Y) on
    the rows the label is also valid on — of the block at once.  The
    relevance term I(X_k; Y) is the same computation against the label as
    a one-vector block.  Each candidate is binned by
    :func:`~repro.selection.entropy.discretize` from its row of ``codes``
    (rank codes as :func:`batch_spearman_scores` takes them, or
    :func:`column_codes` of ``candidates``).

    Under MIFS, MRMR (λ = 0) and CMIM the penalty only grows along
    ``R_sel``, so a candidate is dropped before the next run once
    ``relevance − β·partial`` (CMIM: ``relevance − running max``) is ≤ 0:
    adding non-negative floats, scaling by β ≥ 0 and subtracting are all
    monotone under round-to-nearest, so the full score is ≤ that bound.
    CIFE and JMI add a positive conditional term and walk all of ``R_sel``.
    """
    X = np.asarray(candidates, dtype=np.float64)
    if X.ndim != 2:
        raise SelectionError("batch_redundancy_scores expects a 2-D matrix")
    if method not in REDUNDANCY_METHODS:
        raise SelectionError(
            f"unknown redundancy method {method!r}; "
            f"expected one of {sorted(REDUNDANCY_METHODS)}"
        )
    label, label_mask = cache.label_codes, cache.label_mask
    n, d = X.shape
    if n != label.shape[0]:
        raise SelectionError(
            f"candidate matrix has {n} rows, label has {label.shape[0]}"
        )
    n_selected = cache.n_selected
    if counters is not None:
        counters.codes_reused += n_selected
    coeffs = linear_coefficients(method, n_selected)
    max_form = coeffs is None  # CMIM: relevance − 1.0 · running max
    beta, lam = (1.0, 0.0) if max_form else coeffs
    conditional = max_form or lam != 0.0

    ranks = column_codes(X) if codes is None else codes
    codes = np.empty((d, n), dtype=np.int64)
    for j in range(d):
        codes[j] = discretize(X[:, j], codes=ranks[j])
    groups = [(mask, np.asarray(group)) for mask, group in _mask_groups(codes >= 0)]
    relevance = np.zeros(d, dtype=np.float64)
    for mask, members in groups:
        rows = np.flatnonzero(mask & label_mask)
        relevance[members] = _pair_information(
            codes[members].take(rows, axis=1), label[np.newaxis, rows]
        )[:, 0]
    # Σ I(X_j; X_k) (CMIM: max of I(X_j; X_k) − I(X_j; X_k | Y)) and
    # Σ I(X_j; X_k | Y) over the runs walked so far, each accumulated in
    # R_sel order from 0.0 — the running ``+=`` / ``max`` of the scalar
    # criteria.  A dropped candidate keeps the partial that rejected it.
    penalty = np.zeros(d, dtype=np.float64)
    gain = np.zeros(d, dtype=np.float64)
    alive = np.ones(d, dtype=bool)
    for run_mask, run_codes in cache.runs:
        if lam == 0.0:
            alive &= relevance - beta * penalty > 0.0
        for mask, members in groups:
            live = members[alive[members]]
            if not live.size:
                continue
            rows = np.flatnonzero(mask & run_mask)
            left = run_codes.take(rows, axis=1)
            right = codes[live].take(rows, axis=1)
            mi = _pair_information(left, right)
            if conditional:
                given = label_mask[rows]
                cmi = _pair_information(
                    left[:, given], right[:, given], label[rows[given]]
                )
            if max_form:
                penalty[live] = np.maximum(penalty[live], (mi - cmi).max(axis=0))
                continue
            penalty[live] = _add_in_order(penalty[live], mi)
            if conditional:
                gain[live] = _add_in_order(gain[live], cmi)
    return relevance - beta * penalty + lam * gain
