"""Streaming feature selection (paper Sections V-A and VI).

Features arrive in groups — one group per join — against a fixed set of
rows.  Each group flows through two stages:

1. **relevance analysis** — score each new feature against the label and
   keep the top-κ with positive scores;
2. **redundancy analysis** — score each survivor against the set of
   *already selected* features (base-table features plus everything
   accepted on earlier joins) and keep those whose score stays positive.

The selected-feature set persists across the whole traversal, exactly like
the global ``R_sel`` of Algorithm 1.  Join-column features are exempt from
elimination because they carry the path (Section V-A); they are simply
never offered to the selector.

Scoring runs through the vectorised kernels of
:mod:`repro.selection.kernels`, which rank a batch from its columns' rank
codes (a discovery hop hands over the codes its join index gathered; the
label's are computed once per selector), and a **persistent code cache**:
the discretised codes of the label and every accepted feature are stored
once at acceptance time (in insertion-order runs that share a validity
mask, which is how the redundancy kernel counts them), so the redundancy
stage does not re-bin the entire selected set — an O(|S|·n) cost that
would grow quadratically over a traversal — on every hop.  Scores are
bit-identical to the scalar estimators of ``tests/oracle/selection.py``
(per-column Spearman, Eq. (1) one candidate at a time), except that a
redundancy score that is not positive comes back as some value ≤ 0 —
:meth:`_score` reads only its sign (``tests/selection/test_kernels.py``
holds them so); the
:class:`repro.selection.SelectionStats` counters on :attr:`stats` record
how much work the cache saved.

**Order contract**: the selector is *order-dependent* state — redundancy
scores depend on everything accepted before.  Discovery runs in one
process whatever the CPU count (only training fits reach a pool,
DESIGN.md §11) and calls
:meth:`StreamingFeatureSelector.process_batch` once per hop in canonical
enumeration order, which is what keeps the accepted-feature sequence —
and with it every downstream ranking score — bit-identical whether the
fits run inline or pooled.  The selector itself needs no locks.

**Cross-run memo**: one ``process_batch`` step is a pure function of
(config, label, the features accepted so far, the batch), so a long-lived
owner (:class:`repro.service.DiscoveryService`) may share one
:class:`~repro.core.memo.OutcomeMemo`, keyed in its ``selection``
namespace by a digest of exactly those bytes, between its runs
(DESIGN.md §12).  Without a memo the selector hashes nothing.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from ..dataframe.encoding import rank_codes
from ..errors import SelectionError
from ..obs.manifest import config_snapshot
from ..selection.kernels import (
    SelectionCodeCache,
    batch_redundancy_scores,
    column_codes,
)
from ..selection.select_k_best import select_k_best
from ..selection.stats import SelectionStats
from .config import AutoFeatConfig
from .memo import OutcomeMemo, digest

__all__ = ["StageOutcome", "StreamingFeatureSelector"]


@dataclass(frozen=True)
class StageOutcome:
    """Result of pushing one feature batch through both stages."""

    relevant_names: tuple[str, ...]
    relevance_scores: tuple[float, ...]
    accepted_names: tuple[str, ...]
    redundancy_scores: tuple[float, ...]


class StreamingFeatureSelector:
    """Stateful two-stage selector shared by a whole discovery run."""

    def __init__(self, config: AutoFeatConfig, label: np.ndarray):
        self._config = config
        label = np.asarray(label, dtype=np.float64)
        if label.ndim != 1:
            raise SelectionError("label must be a 1-D vector")
        self._label = label
        self._label_codes = rank_codes(label)
        self._selected_names: list[str] = []
        self._selected_set: set[str] = set()
        self._counters = SelectionStats()
        self._code_cache = SelectionCodeCache(label, self._counters)
        self._memo: OutcomeMemo | None = None
        #: With a memo: digest of all a batch's outcome depends on besides
        #: the batch — config, label, accepted ``(name, column)`` in order.
        self._state: bytes | None = None
        #: Whether the last ``process_batch`` was answered from the memo.
        self.memo_hit = False

    def use_memo(self, memo: OutcomeMemo) -> None:
        """Serve repeated ``(state, batch)`` inputs from ``memo``'s
        ``selection`` namespace; call before anything is accepted.  The
        whole config snapshot is hashed, so a future field can never
        produce a stale hit."""
        if self._selected_names:
            raise SelectionError("use_memo must precede seed_with/process_batch")
        self._memo = memo
        snapshot = repr(sorted(config_snapshot(self._config).items()))
        self._state = digest(snapshot.encode(), self._label)

    @property
    def selected_names(self) -> list[str]:
        """Names of every feature accepted so far (insertion order)."""
        return list(self._selected_names)

    @property
    def stats(self) -> SelectionStats:
        """A copy of the run's scoring counters (never the live block)."""
        return replace(self._counters)

    def _accept(
        self, name: str, column: np.ndarray, codes: np.ndarray | None = None
    ) -> None:
        self._selected_names.append(name)
        self._selected_set.add(name)
        self._code_cache.add(column, codes)
        if self._state is not None:
            column = np.ascontiguousarray(column)
            self._state = digest(self._state, name.encode(), column)

    def seed_with(self, names: list[str], matrix: np.ndarray) -> None:
        """Initialise the selected set with the base table's features."""
        matrix = np.asarray(matrix, dtype=np.float64)
        if matrix.shape != (len(self._label), len(names)):
            raise SelectionError(
                f"seed matrix shape {matrix.shape} does not match "
                f"{len(self._label)} rows x {len(names)} features"
            )
        for i, name in enumerate(names):
            self._accept(name, matrix[:, i])

    def process_batch(
        self, names: list[str], matrix: np.ndarray, codes: np.ndarray | None = None
    ) -> StageOutcome:
        """Run relevance then redundancy on one batch of new features.

        Features accepted by both stages are added to the persistent
        selected set.  Returns the per-stage survivors and their scores.
        ``codes`` are the batch's rank codes (columns × rows, as
        :meth:`repro.dataframe.JoinIndex.gather` returns them); without
        them they are derived from ``matrix`` (:func:`column_codes`), and
        the outcome is the same either way.
        With a memo, an input seen before — by any selector sharing it —
        is answered from it; the accepted columns are still filed in the
        code cache, because later misses score against them.
        """
        matrix = np.asarray(matrix, dtype=np.float64)
        if matrix.ndim != 2 or matrix.shape[1] != len(names):
            raise SelectionError(
                f"batch matrix shape {matrix.shape} does not match "
                f"{len(names)} feature names"
            )
        if matrix.shape[0] != len(self._label):
            raise SelectionError(
                f"batch has {matrix.shape[0]} rows, label has {len(self._label)}"
            )
        self.memo_hit = False
        if not names:
            return StageOutcome((), (), (), ())

        key = entry = None
        if self._memo is not None:
            encoded = (name.encode() for name in names)
            key = digest(self._state, *encoded, np.ascontiguousarray(matrix))
            entry = self._memo.get("selection", key)
            self.memo_hit = entry is not None
        if entry is None:
            delta = SelectionStats(batches_scored=1)
            if codes is None:
                codes = column_codes(matrix)
            entry = (*self._score(names, matrix, codes, delta), delta)
            if key is not None:
                self._memo.put("selection", key, entry)
        outcome, positions, delta = entry
        live = vars(self._counters)
        for field, value in vars(delta).items():
            live[field] += value
        for name, position in zip(outcome.accepted_names, positions):
            self._accept(
                name, matrix[:, position], None if codes is None else codes[position]
            )
        return outcome

    def _score(
        self,
        names: list[str],
        matrix: np.ndarray,
        codes: np.ndarray,
        counters: SelectionStats,
    ) -> tuple[StageOutcome, tuple[int, ...]]:
        """Both stages on one batch, reading the selector but not changing
        it: the outcome and the ``matrix`` column of each accepted name."""
        config = self._config
        if config.relevance_metric is not None:
            best = select_k_best(
                matrix,
                self._label,
                k=config.kappa,
                metric=config.relevance_metric,
                min_score=config.min_relevance,
                seed=config.seed,
                counters=counters,
                codes=codes,
                label_codes=self._label_codes,
            )
            relevant_idx = list(best.indices)
            relevant_scores = list(best.scores)
        else:
            relevant_idx = list(range(len(names)))[: config.kappa]
            relevant_scores = [0.0] * len(relevant_idx)

        relevant_names = tuple(names[j] for j in relevant_idx)
        if not relevant_idx:
            return StageOutcome((), (), (), ()), ()

        # R_sel is global (Algorithm 1) and two paths landing on the same
        # table offer the same qualified column twice: a candidate already
        # in the selected set can never be accepted again, so it is not
        # scored against it either.
        fresh = [
            i
            for i, name in enumerate(relevant_names)
            if name not in self._selected_set
        ]
        candidate_idx = [relevant_idx[i] for i in fresh]
        if config.redundancy_method is not None:
            scores = batch_redundancy_scores(
                matrix[:, candidate_idx],
                self._code_cache,
                method=config.redundancy_method,
                counters=counters,
                codes=codes[candidate_idx],
            )
            # A score ≤ 0 may be only the bound that rejected it: read its sign.
            kept = [(c, float(s)) for c, s in enumerate(scores) if s > 0.0]
        else:
            kept = [(c, float(relevant_scores[i])) for c, i in enumerate(fresh)]

        accepted: dict[str, tuple[float, int]] = {}
        for c, score in kept:
            # A name repeated within this batch is accepted once, first wins.
            accepted.setdefault(relevant_names[fresh[c]], (score, candidate_idx[c]))

        outcome = StageOutcome(
            relevant_names=relevant_names,
            relevance_scores=tuple(relevant_scores),
            accepted_names=tuple(accepted),
            redundancy_scores=tuple(score for score, _ in accepted.values()),
        )
        return outcome, tuple(position for _, position in accepted.values())
