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
:mod:`repro.selection.kernels` and a **persistent code cache**: the
discretised codes of the label and every accepted feature are stored
once at acceptance time (grouped by validity mask, which is how the
redundancy kernel counts them), so the redundancy stage does not re-bin
the entire selected set — an O(|S|·n) cost that would grow
quadratically over a traversal — on every hop.  Scores are bit-identical
to the scalar :func:`~repro.selection.relevance_scores` /
:func:`~repro.selection.redundancy_scores` estimators
(``tests/selection/test_kernels.py`` holds them so); the
:class:`repro.selection.SelectionStats` counters on :attr:`stats` record
how much work the cache saved.

**Parallel-execution contract**: the selector is *order-dependent* state —
redundancy scores depend on everything accepted before — and is therefore
never shared with, or updated by, worker processes.  On every
``config.parallel_backend`` the coordinator calls
:meth:`StreamingFeatureSelector.process_batch` only at the deterministic
merge points, consuming hop outcomes in canonical enumeration order (see
:mod:`repro.engine.parallel` and DESIGN.md §11), which is what keeps the
accepted-feature sequence — and with it every downstream ranking score —
bit-identical across backends.  The selector itself needs no locks.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from ..errors import SelectionError
from ..selection.kernels import SelectionCodeCache, batch_redundancy_scores
from ..selection.select_k_best import select_k_best
from ..selection.stats import SelectionStats
from .config import AutoFeatConfig

__all__ = ["StageOutcome", "StreamingFeatureSelector"]


@dataclass(frozen=True)
class StageOutcome:
    """Result of pushing one feature batch through both stages."""

    relevant_names: tuple[str, ...]
    relevance_scores: tuple[float, ...]
    accepted_names: tuple[str, ...]
    redundancy_scores: tuple[float, ...]

    @property
    def all_irrelevant(self) -> bool:
        return not self.relevant_names

    @property
    def all_redundant(self) -> bool:
        return bool(self.relevant_names) and not self.accepted_names


class StreamingFeatureSelector:
    """Stateful two-stage selector shared by a whole discovery run."""

    def __init__(self, config: AutoFeatConfig, label: np.ndarray):
        self._config = config
        label = np.asarray(label, dtype=np.float64)
        if label.ndim != 1:
            raise SelectionError("label must be a 1-D vector")
        self._label = label
        self._selected_names: list[str] = []
        self._selected_set: set[str] = set()
        self._counters = SelectionStats()
        self._code_cache = SelectionCodeCache(label, self._counters)

    @property
    def selected_names(self) -> list[str]:
        """Names of every feature accepted so far (insertion order)."""
        return list(self._selected_names)

    @property
    def n_selected(self) -> int:
        return len(self._selected_names)

    @property
    def stats(self) -> SelectionStats:
        """A copy of the run's scoring counters (never the live block)."""
        return replace(self._counters)

    def is_selected(self, name: str) -> bool:
        """Whether ``name`` is already in the persistent selected set."""
        return name in self._selected_set

    def _accept(self, name: str, column: np.ndarray) -> None:
        self._selected_names.append(name)
        self._selected_set.add(name)
        self._code_cache.add(column)

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

    def process_batch(self, names: list[str], matrix: np.ndarray) -> StageOutcome:
        """Run relevance then redundancy on one batch of new features.

        Features accepted by both stages are added to the persistent
        selected set.  Returns the per-stage survivors and their scores.
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
        if not names:
            return StageOutcome((), (), (), ())

        config = self._config
        self._counters.batches_scored += 1
        if config.use_relevance:
            outcome = select_k_best(
                matrix,
                self._label,
                k=config.kappa,
                metric=config.relevance_metric,
                min_score=config.min_relevance,
                seed=config.seed,
                counters=self._counters,
            )
            relevant_idx = list(outcome.indices)
            relevant_scores = list(outcome.scores)
        else:
            relevant_idx = list(range(len(names)))[: config.kappa]
            relevant_scores = [0.0] * len(relevant_idx)

        relevant_names = tuple(names[j] for j in relevant_idx)
        if not relevant_idx:
            return StageOutcome((), (), (), ())

        # R_sel is global (Algorithm 1) and two paths landing on the same
        # table offer the same qualified column twice: a candidate already
        # in the selected set can never be accepted again, so it is not
        # scored against it either.
        fresh = [
            i
            for i, name in enumerate(relevant_names)
            if name not in self._selected_set
        ]
        candidate_matrix = matrix[:, [relevant_idx[i] for i in fresh]]
        if config.use_redundancy:
            scores = batch_redundancy_scores(
                candidate_matrix,
                self._code_cache,
                method=config.redundancy_method,
                counters=self._counters,
            )
            kept = [(c, float(s)) for c, s in enumerate(scores) if s > 0.0]
        else:
            kept = [(c, float(relevant_scores[i])) for c, i in enumerate(fresh)]

        accepted_names: list[str] = []
        accepted_scores: list[float] = []
        for c, score in kept:
            name = relevant_names[fresh[c]]
            if name in self._selected_set:
                continue  # repeated within this batch, accepted a moment ago
            accepted_names.append(name)
            accepted_scores.append(score)
            self._accept(name, candidate_matrix[:, c])

        return StageOutcome(
            relevant_names=relevant_names,
            relevance_scores=tuple(relevant_scores),
            accepted_names=tuple(accepted_names),
            redundancy_scores=tuple(accepted_scores),
        )
