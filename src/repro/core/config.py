"""AutoFeat configuration (the paper's hyper-parameters).

The two headline knobs are τ — the data-quality (completeness) threshold of
the pruning rule — and κ — the maximum number of features the relevance
analysis keeps per table.  The paper recommends τ = 0.65 and κ = 15
(Section VII-B/VII-D); the ablation study of Figure 9 is expressed here via
``relevance_metric`` / ``redundancy_method``, where ``None`` turns a stage
off.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

from ..engine.faults import DEFAULT_ERROR_BUDGET, FAILURE_POLICIES
from ..errors import ConfigError
from .navigation import FRONTIER_STRATEGIES
from ..selection.kernels import REDUNDANCY_METHODS
from ..selection.relevance import RELEVANCE_METRICS

__all__ = ["AutoFeatConfig"]


@dataclass(frozen=True)
class AutoFeatConfig:
    """Immutable configuration for one feature-discovery run.

    Attributes
    ----------
    tau:
        Minimum completeness (1 - null ratio) a join must achieve over the
        columns it contributes; joins below it are pruned.  τ = 1 demands
        perfect key matches, τ near 0 disables quality pruning.
    kappa:
        Maximum number of features kept by the relevance analysis per
        joined table ("select κ best").
    min_relevance:
        Relevance floor below which a feature counts as irrelevant even if
        it would fit within κ — filters the near-zero correlations that
        spurious joins produce.
    top_k:
        Number of ranked join paths forwarded to model training.  Where
        their fits run is a rule, not a knob (DESIGN.md §11).
    max_path_length:
        Hop budget for the BFS traversal of the DRG.
    relevance_metric / redundancy_method:
        Metric names from :mod:`repro.selection`; Spearman + MRMR is the
        published AutoFeat configuration.  ``None`` turns that stage off:
        every candidate feature passes straight through it (Figure 9's
        "MRMR-only" and "Spearman-only" variants).
    sample_size:
        Stratified-sample size of the base table used during feature
        selection (training always sees the full table).
    traversal:
        ``"bfs"`` (the paper's choice, Section IV-A) or ``"dfs"`` — kept as
        a switch for the traversal ablation.
    failure_policy:
        How a run reacts to hop/path failures (faults raised by the
        ``hop_hook`` and, during training, full-table materialisation
        errors).  ``"skip_and_record"`` (the default) skips the failing
        path, records it on the result's ``failure_report`` and keeps
        going; ``"fail_fast"`` propagates the first typed error (the
        pre-fault-isolation behaviour).  Ordinary join infeasibilities
        during discovery are *pruning* input for Algorithm 1 under both
        policies.
    error_budget:
        Recorded failures tolerated per run under ``skip_and_record``
        before the run aborts with
        :class:`~repro.errors.ErrorBudgetExceeded` — degradation is
        bounded, not unconditional.
    enable_tracing:
        Record the run's hierarchical timing tree
        (``discover > hop > join / selection``) through
        :class:`repro.obs.Tracer` and attach a full
        :class:`repro.obs.RunManifest` to every result.  Tracing does not
        change results, only observability; disabled, the tracer keeps
        per-name totals instead of a tree (every reported duration still
        comes from it, and the manifest's timing tree is one flat node
        per coordinator-level stage, without per-hop spans or events).
    budget_seconds:
        Run-level anytime wall-clock budget for ``discover`` /
        ``train_top_k`` / ``augment`` (``augment`` shares one deadline
        across both phases).  When the deadline expires the run stops
        gracefully and returns the best-k-so-far with
        ``budget_exhausted`` set on the result — never an error.  None
        (the default) disables the budget and keeps results bit-identical
        to the reference full traversal.
    max_hops:
        Run-level cap on *executed* join hops during discovery — the
        deterministic anytime budget: the run explores exactly the first
        ``max_hops`` hops of the frontier strategy's expansion order, so
        explored sets nest as the budget grows and regret is monotone
        non-increasing.  None disables the cap.
    frontier_strategy:
        Expansion order of a *budgeted* traversal: ``"ucb"`` (the
        default) scores frontier entries by UCB1 over per-target-table
        arm statistics so the budget is spent on promising subgraphs
        first; ``"fifo"`` truncates the canonical BFS/DFS order instead.
        Unbudgeted runs always traverse in canonical order regardless —
        every path is explored anyway and canonical order is what keeps
        results bit-identical to the reference traversal (DESIGN.md §14).
        The UCB1 exploration constant is
        :data:`~repro.core.navigation.DEFAULT_FRONTIER_EXPLORATION`.
    seed:
        Seed for sampling and join-representative choices.
    """

    tau: float = 0.65
    kappa: int = 15
    min_relevance: float = 0.01
    top_k: int = 4
    max_path_length: int = 3
    relevance_metric: str | None = "spearman"
    redundancy_method: str | None = "mrmr"
    sample_size: int = 1000
    traversal: str = "bfs"
    failure_policy: str = "skip_and_record"
    error_budget: int = DEFAULT_ERROR_BUDGET
    enable_tracing: bool = True
    budget_seconds: float | None = None
    max_hops: int | None = None
    frontier_strategy: str = "ucb"
    seed: int = 0

    def __post_init__(self) -> None:
        if not 0.0 <= self.tau <= 1.0:
            raise ConfigError(f"tau must be in [0, 1], got {self.tau}")
        if self.kappa < 1:
            raise ConfigError(f"kappa must be >= 1, got {self.kappa}")
        if not 0.0 <= self.min_relevance < 1.0:
            raise ConfigError(
                f"min_relevance must be in [0, 1), got {self.min_relevance}"
            )
        if self.top_k < 1:
            raise ConfigError(f"top_k must be >= 1, got {self.top_k}")
        if self.max_path_length < 1:
            raise ConfigError(
                f"max_path_length must be >= 1, got {self.max_path_length}"
            )
        if self.sample_size < 10:
            raise ConfigError(f"sample_size must be >= 10, got {self.sample_size}")
        if self.traversal not in ("bfs", "dfs"):
            raise ConfigError(
                f"traversal must be 'bfs' or 'dfs', got {self.traversal!r}"
            )
        valid_relevance = set(RELEVANCE_METRICS) | {"relief"}
        if (
            self.relevance_metric is not None
            and self.relevance_metric not in valid_relevance
        ):
            raise ConfigError(
                f"unknown relevance metric {self.relevance_metric!r}; "
                f"expected one of {sorted(valid_relevance)} or None"
            )
        if self.failure_policy not in FAILURE_POLICIES:
            raise ConfigError(
                f"unknown failure policy {self.failure_policy!r}; "
                f"expected one of {list(FAILURE_POLICIES)}"
            )
        if self.error_budget < 0:
            raise ConfigError(
                f"error_budget must be >= 0, got {self.error_budget}"
            )
        if self.budget_seconds is not None and self.budget_seconds <= 0:
            raise ConfigError(
                f"budget_seconds must be positive or None, "
                f"got {self.budget_seconds}"
            )
        if self.max_hops is not None and self.max_hops < 0:
            raise ConfigError(
                f"max_hops must be >= 0 or None, got {self.max_hops}"
            )
        if self.frontier_strategy not in FRONTIER_STRATEGIES:
            raise ConfigError(
                f"unknown frontier strategy {self.frontier_strategy!r}; "
                f"expected one of {list(FRONTIER_STRATEGIES)}"
            )
        if (
            self.redundancy_method is not None
            and self.redundancy_method not in REDUNDANCY_METHODS
        ):
            raise ConfigError(
                f"unknown redundancy method {self.redundancy_method!r}; "
                f"expected one of {sorted(REDUNDANCY_METHODS)} or None"
            )

    def with_overrides(self, **kwargs) -> "AutoFeatConfig":
        """A copy with the given fields replaced (validation re-runs)."""
        return replace(self, **kwargs)

    @staticmethod
    def ablation(name: str, **kwargs) -> "AutoFeatConfig":
        """Named ablation configurations from Figure 9.

        ``spearman-mrmr`` (AutoFeat), ``spearman-jmi``, ``pearson-mrmr``,
        ``pearson-jmi``, ``spearman-only``, ``mrmr-only``.
        """
        presets = {
            "spearman-mrmr": {},
            "spearman-jmi": {"redundancy_method": "jmi"},
            "pearson-mrmr": {"relevance_metric": "pearson"},
            "pearson-jmi": {
                "relevance_metric": "pearson",
                "redundancy_method": "jmi",
            },
            "spearman-only": {"redundancy_method": None},
            "mrmr-only": {"relevance_metric": None},
        }
        if name not in presets:
            raise ConfigError(
                f"unknown ablation {name!r}; expected one of {sorted(presets)}"
            )
        merged = {**presets[name], **kwargs}
        return AutoFeatConfig(**merged)
