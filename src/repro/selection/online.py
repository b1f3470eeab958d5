"""Online streaming feature selectors (paper Section V-A's literature).

AutoFeat's pipeline is a batch-per-join instance of *streaming feature
selection*.  This module implements two classic fully-online selectors
from that literature — features offered strictly one at a time, accept or
discard immediately, no revisiting:

* **alpha-investing** (Zhou et al.): maintain a wealth budget of
  significance level; each accepted feature earns wealth back, each test
  spends it.  Significance is the p-value of the candidate's partial
  correlation with the label given the already-selected features.
* **fast-OSFS-style** (Wu et al.): accept when relevant (marginally
  dependent on the label) and not rendered conditionally independent of
  the label by any single already-selected feature.

Both expose the same ``offer(name, values) -> bool`` protocol, so they can
be compared head-to-head with AutoFeat's two-stage batch pipeline (the
"more complex feature selection strategies" the paper leaves as future
work).
"""

from __future__ import annotations

import numpy as np

from ..errors import SelectionError
from ..obs.tracer import NULL_TRACER, Tracer
from .entropy import conditional_mutual_information, discretize, mutual_information

__all__ = ["AlphaInvestingSelector", "FastOSFSSelector", "partial_correlation_pvalue"]


def _residualise(target: np.ndarray, basis: np.ndarray | None) -> np.ndarray:
    """Residual of ``target`` after least-squares projection onto ``basis``."""
    if basis is None or basis.size == 0:
        return target - target.mean()
    design = np.column_stack([np.ones(len(target)), basis])
    coef, *_ = np.linalg.lstsq(design, target, rcond=None)
    return target - design @ coef


def partial_correlation_pvalue(
    candidate: np.ndarray,
    label: np.ndarray,
    selected: np.ndarray | None,
) -> float:
    """Two-sided p-value of corr(candidate, label | selected).

    Both variables are residualised against the selected features, then a
    Pearson t-test is applied to the residual correlation.  Only rows on
    which the candidate, the label and every selected column are finite
    take part; a 1-D ``selected`` is one column.  Degenerate inputs
    (constant residuals, tiny n) return p = 1.0 (never significant).
    """
    candidate = np.asarray(candidate, dtype=np.float64)
    label = np.asarray(label, dtype=np.float64)
    if candidate.shape != label.shape:
        raise SelectionError("candidate and label lengths differ")
    keep = np.isfinite(candidate) & np.isfinite(label)
    basis = None
    if selected is not None:
        basis = np.asarray(selected, dtype=np.float64)
        if basis.ndim == 1:
            basis = basis[:, None]
        keep &= np.isfinite(basis).all(axis=1)
        basis = basis[keep]
    candidate, label = candidate[keep], label[keep]
    n = len(candidate)
    n_controls = 0 if basis is None or basis.size == 0 else basis.shape[1]
    dof = n - 2 - n_controls
    if dof < 1:
        return 1.0
    res_x = _residualise(candidate, basis)
    res_y = _residualise(label, basis)
    sx, sy = res_x.std(), res_y.std()
    if sx == 0.0 or sy == 0.0:
        return 1.0
    r = float(np.clip(np.mean(res_x * res_y) / (sx * sy), -0.9999999, 0.9999999))
    t = r * np.sqrt(dof / (1.0 - r * r))
    # Imported here, not at module level: ``import repro`` must not load
    # scipy, which only the online selectors use (DESIGN.md §3).
    from scipy import stats

    return float(2.0 * stats.t.sf(abs(t), dof))


class AlphaInvestingSelector:
    """Alpha-investing: a wealth-managed stream of significance tests.

    At the i-th offered feature, the test level is αᵢ = wealth / (2i);
    acceptance pays back ``alpha_delta`` of wealth, rejection costs αᵢ.
    The scheme controls the false-discovery rate over an *unbounded*
    stream — exactly the regime of an ever-growing join frontier.
    """

    def __init__(
        self,
        initial_wealth: float = 0.5,
        alpha_delta: float = 0.5,
        tracer: Tracer | None = None,
    ):
        if initial_wealth <= 0:
            raise SelectionError("initial_wealth must be positive")
        self.wealth = initial_wealth
        self.alpha_delta = alpha_delta
        self.tracer = tracer or NULL_TRACER
        self._label: np.ndarray | None = None
        self._selected: list[np.ndarray] = []
        self._names: list[str] = []
        self._offers = 0

    def start(self, label: np.ndarray) -> "AlphaInvestingSelector":
        """Bind the selector to a label vector; resets all state."""
        self._label = np.asarray(label, dtype=np.float64)
        self._selected = []
        self._names = []
        self._offers = 0
        return self

    @property
    def selected_names(self) -> list[str]:
        return list(self._names)

    def _selected_matrix(self) -> np.ndarray | None:
        if not self._selected:
            return None
        return np.column_stack(self._selected)

    def offer(self, name: str, values: np.ndarray) -> bool:
        """Test one streamed feature; returns True when accepted."""
        if self._label is None:
            raise SelectionError("call start(label) before offering features")
        with self.tracer.span("offer", feature=name) as span:
            self._offers += 1
            alpha_i = self.wealth / (2.0 * self._offers)
            if alpha_i <= 0.0:
                return False
            p = partial_correlation_pvalue(
                values, self._label, self._selected_matrix()
            )
            if p < alpha_i:
                self.wealth += self.alpha_delta - alpha_i
                self._selected.append(np.asarray(values, dtype=np.float64))
                self._names.append(name)
                span.event("accepted", p=round(p, 6))
                return True
            self.wealth -= alpha_i
            return False


class FastOSFSSelector:
    """Fast-OSFS-style online selection with single-feature CI checks.

    A streamed feature is accepted when it is marginally relevant
    (MI with the label above ``relevance_threshold``) and no single
    already-selected feature makes it conditionally independent of the
    label (conditional MI below ``ci_threshold``).  Checking conditioning
    sets of size one is the "fast" variant's approximation.
    """

    def __init__(
        self,
        relevance_threshold: float = 0.01,
        ci_threshold: float = 0.005,
        tracer: Tracer | None = None,
    ):
        self.relevance_threshold = relevance_threshold
        self.ci_threshold = ci_threshold
        self.tracer = tracer or NULL_TRACER
        self._label_codes: np.ndarray | None = None
        self._selected_codes: list[np.ndarray] = []
        self._names: list[str] = []

    def start(self, label: np.ndarray) -> "FastOSFSSelector":
        """Bind the selector to a label vector; resets all state."""
        self._label_codes = discretize(np.asarray(label, dtype=np.float64))
        self._selected_codes = []
        self._names = []
        return self

    @property
    def selected_names(self) -> list[str]:
        return list(self._names)

    def offer(self, name: str, values: np.ndarray) -> bool:
        """Test one streamed feature; returns True when accepted."""
        if self._label_codes is None:
            raise SelectionError("call start(label) before offering features")
        with self.tracer.span("offer", feature=name) as span:
            codes = discretize(np.asarray(values, dtype=np.float64))
            if (
                mutual_information(codes, self._label_codes)
                < self.relevance_threshold
            ):
                return False
            for selected in self._selected_codes:
                cmi = conditional_mutual_information(
                    codes, self._label_codes, selected
                )
                if cmi < self.ci_threshold:
                    # Some selected feature subsumes the candidate.
                    return False
            self._selected_codes.append(codes)
            self._names.append(name)
            span.event("accepted")
            return True
