"""Selection scores one feature (or one column) at a time.

The pipeline scores a whole hop's candidates at once: Spearman relevance
from rank codes (``batch_spearman_scores``) and Eq. (1)'s redundancy from
flat-bincount contingencies (``batch_redundancy_scores``), both against a
``SelectionCodeCache``.  These are the plain forms the kernels are held
to: scalar |Spearman ρ| as the Pearson correlation of midranks, the
redundancy criterion applied column by column, and the column-wise
midrank matrix.
"""

import numpy as np

from repro.errors import SelectionError
from repro.selection.entropy import discretize
from repro.selection.kernels import _midranks, column_codes
from repro.selection.redundancy import REDUNDANCY_METHODS, _codes_matrix
from repro.selection.relevance import _paired, _rankdata, pearson_relevance


def spearman_relevance(feature: np.ndarray, label: np.ndarray) -> float:
    """|Spearman ρ| over the pairwise-complete rows: Pearson of midranks."""
    x, y = _paired(feature, label)
    if x.size < 2:
        return 0.0
    return pearson_relevance(_rankdata(x), _rankdata(y))


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
    if method not in REDUNDANCY_METHODS:
        raise SelectionError(
            f"unknown redundancy method {method!r}; "
            f"expected one of {sorted(REDUNDANCY_METHODS)}"
        )
    label_codes = discretize(np.asarray(label, dtype=np.float64))
    if selected_features is None or np.size(selected_features) == 0:
        selected_codes: list[np.ndarray] = []
    else:
        selected_codes = _codes_matrix(selected_features)
    scorer = REDUNDANCY_METHODS[method]
    return np.asarray(
        [scorer(discretize(X[:, j]), selected_codes, label_codes).score for j in range(X.shape[1])],
        dtype=np.float64,
    )


def rank_matrix(X: np.ndarray) -> np.ndarray:
    """Column-wise midranks of an all-finite matrix, Fortran-ordered —
    bit-identical to ranking each column separately with ``_rankdata``."""
    X = np.asarray(X, dtype=np.float64)
    if X.ndim != 2:
        raise SelectionError("rank_matrix expects a 2-D matrix")
    if not np.isfinite(X).all():
        raise SelectionError("rank_matrix expects an all-finite matrix")
    return _midranks(column_codes(X)).T
