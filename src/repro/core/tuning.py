"""Dynamic hyper-parameter tuning (the paper's Future Work, Section VIII).

The paper fixes τ = 0.65 and κ = 15 globally and notes that "dynamic
hyper-parameter tuning, allowing the algorithm to adapt to different data
landscapes" is future work.  :class:`AutoFeatTuner` implements the obvious
instantiation: a small grid search over (τ, κ) scored by the *discovery
ranking itself* plus one cheap model evaluation per configuration on a
sampled base table, so tuning cost stays far below a full wrapper search.

Trials compose with the ``processes`` backend: every trial's discovery
and top-1 training run through whatever ``parallel_backend`` the
``base_config`` carries, and because pool runs are
bit-identical to serial (DESIGN.md §11) the grid picks the same winner
either way — the backend only changes wall time.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Sequence

from ..graph import DatasetRelationGraph
from .autofeat import AutoFeat
from .config import AutoFeatConfig
from .result import AugmentationResult

__all__ = ["TuningTrial", "TuningOutcome", "AutoFeatTuner"]

DEFAULT_TAUS = (0.4, 0.65, 0.9)
DEFAULT_KAPPAS = (5, 10, 15)


@dataclass(frozen=True)
class TuningTrial:
    """One evaluated (τ, κ) configuration."""

    tau: float
    kappa: int
    accuracy: float
    n_paths: int
    feature_selection_seconds: float


@dataclass(frozen=True)
class TuningOutcome:
    """All trials plus the winning configuration and its final result."""

    trials: tuple[TuningTrial, ...]
    best_config: AutoFeatConfig
    best_result: AugmentationResult
    total_seconds: float

    @property
    def best_trial(self) -> TuningTrial:
        return max(self.trials, key=lambda t: t.accuracy)


class AutoFeatTuner:
    """Grid search over (τ, κ), adapting AutoFeat to the lake at hand."""

    def __init__(
        self,
        drg: DatasetRelationGraph,
        base_config: AutoFeatConfig | None = None,
        taus: Sequence[float] = DEFAULT_TAUS,
        kappas: Sequence[int] = DEFAULT_KAPPAS,
    ):
        self.drg = drg
        self.base_config = base_config or AutoFeatConfig()
        self.taus = tuple(taus)
        self.kappas = tuple(kappas)

    def tune(
        self,
        base_name: str,
        label_column: str,
        model_name: str = "lightgbm",
    ) -> TuningOutcome:
        """Evaluate the grid and return the best configuration's result.

        Each trial runs the cheap discovery phase, then trains only the
        single best-ranked path (top_k=1) to score the configuration; the
        winner is re-run with the caller's full top_k.
        """
        started = time.perf_counter()
        trials: list[TuningTrial] = []
        best: tuple[float, AutoFeatConfig] | None = None
        for tau in self.taus:
            for kappa in self.kappas:
                config = self.base_config.with_overrides(
                    tau=tau, kappa=kappa, top_k=1
                )
                autofeat = AutoFeat(self.drg, config)
                discovery = autofeat.discover(base_name, label_column)
                result = autofeat.train_top_k(discovery, model_name)
                trial = TuningTrial(
                    tau=tau,
                    kappa=kappa,
                    accuracy=result.accuracy,
                    n_paths=len(discovery.ranked_paths),
                    feature_selection_seconds=discovery.feature_selection_seconds,
                )
                trials.append(trial)
                if best is None or trial.accuracy > best[0]:
                    best = (trial.accuracy, config)

        assert best is not None  # the grids are non-empty by construction
        best_config = best[1].with_overrides(top_k=self.base_config.top_k)
        best_result = AutoFeat(self.drg, best_config).augment(
            base_name, label_column, model_name
        )
        return TuningOutcome(
            trials=tuple(trials),
            best_config=best_config,
            best_result=best_result,
            total_seconds=time.perf_counter() - started,
        )
