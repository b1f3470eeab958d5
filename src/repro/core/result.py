"""Result types produced by feature discovery and augmentation."""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field
from functools import cached_property

from ..dataframe import Table
from ..engine import ExecutionStats, FailureReport
from ..graph import JoinPath, OrientedEdge
from ..obs import RunManifest
from ..selection.stats import SelectionStats
from .navigation import NavigationStats

__all__ = [
    "RankedPath", "HopVerdict", "DiscoveryResult", "TrainedPath", "AugmentationResult"
]


@dataclass(frozen=True)
class RankedPath:
    """One scored join path with the features it contributes.

    ``selected_features`` are qualified names (``table.column``) accepted by
    the relevance+redundancy pipeline along the whole path; the base-table
    features are implicit (they are always kept).
    """

    path: JoinPath
    score: float
    selected_features: tuple[str, ...]
    relevance_scores: tuple[float, ...]
    redundancy_scores: tuple[float, ...]
    completeness: float
    #: Names aligned 1:1 with ``relevance_scores`` (the last hop's top-κ
    #: relevant features, before the redundancy stage).
    relevant_names: tuple[str, ...] = ()

    def describe(self) -> str:
        features = ", ".join(self.selected_features) or "(no new features)"
        return f"[{self.score:+.4f}] {self.path.describe()} :: {features}"


#: Verdict kinds of a hop whose outcome was merged: the hops a run explored.
#: The other two kinds are ``deadline`` (the wall-clock budget aborted the
#: hop) and ``similarity`` (a join option dropped before any hop ran).
EXPLORED_KINDS = ("ranked", "pruned_tau", "unfeasible", "faulted")


@dataclass(frozen=True)
class HopVerdict:
    """What discovery decided about joining ``path`` along ``edge``.

    One per generated hop — ``ranked`` (with its :class:`RankedPath`, UCB
    ``reward`` and the ``empty`` flag of a hop that contributed no
    columns), ``pruned_tau`` (with its ``completeness``), ``unfeasible``
    (a :class:`~repro.errors.JoinError`), ``faulted`` (a recorded
    failure) or ``deadline`` — and one ``similarity`` verdict per parallel
    join option similarity pruning dropped, with the ``kept_weight`` of
    the option it lost to.
    """

    kind: str
    path: JoinPath
    edge: OrientedEdge
    ranked: RankedPath | None = None
    reward: float = 0.0
    empty: bool = False
    completeness: float | None = None
    kept_weight: float | None = None


def tally(verdicts) -> dict[str, int]:
    """A run's counts, each one reduction over its verdict log.

    The keys are the manifest's ``discovery.*`` counter names; the
    result's ``n_*`` properties and ``NavigationStats.hops_executed`` read
    the same numbers.
    """
    kinds = Counter(verdict.kind for verdict in verdicts)
    return {
        "paths_explored": sum(kinds[kind] for kind in EXPLORED_KINDS),
        "paths_ranked": kinds["ranked"],
        "pruned_quality": kinds["pruned_tau"] + kinds["unfeasible"],
        "pruned_similarity": kinds["similarity"],
        "hops_empty_contribution": sum(verdict.empty for verdict in verdicts),
    }


def _count(key: str, doc: str) -> property:
    """A read-only :class:`DiscoveryResult` count: one entry of its tally."""
    return property(lambda result: tally(result.verdicts)[key], doc=doc)


@dataclass(frozen=True)
class DiscoveryResult:
    """Outcome of the ranking phase (before any model is trained)."""

    base_table: str
    label_column: str
    #: The run's decision log, in merge order: one :class:`HopVerdict` per
    #: generated hop and per similarity-pruned join option.  The ranking
    #: and every count below are reductions over it.
    verdicts: tuple[HopVerdict, ...]
    #: Wall time spent inside the streaming selector (relevance plus
    #: redundancy scoring).  This is the quantity the paper's Figure 3/4
    #: "feature selection time" comparisons measure, and it matches how the
    #: ARDA/MAB/JoinAll+F baselines account their own selection loops.
    feature_selection_seconds: float
    #: Wall time of the whole discovery traversal (join execution, pruning
    #: and feature selection together).
    discovery_seconds: float = 0.0
    #: Join-execution counters of the discovery traversal (hops, index
    #: builds, hop-cache hits/misses, rows probed).
    engine_stats: ExecutionStats = field(default_factory=ExecutionStats)
    #: Feature-scoring counters of the traversal (batches scored, features
    #: ranked, code-cache activity, scalar fallbacks).
    selection_stats: SelectionStats = field(default_factory=SelectionStats)
    #: Per-path failure accounting of the traversal (empty for clean
    #: runs).
    failure_report: FailureReport = field(default_factory=FailureReport)
    #: Reproducibility record of the traversal: config snapshot, seed,
    #: dataset fingerprint, git revision, timing tree, metrics, events.
    run_manifest: RunManifest | None = None
    #: True when the run's anytime budget (wall-clock deadline or
    #: ``max_hops``) expired before the frontier drained: ``ranked_paths``
    #: is the best-k-so-far, not the full traversal's ranking.
    budget_exhausted: bool = False
    #: Frontier/budget accounting of the traversal (strategy, executed
    #: hops, unexplored frontier size, best score).
    navigation: NavigationStats = field(default_factory=NavigationStats)

    @cached_property
    def ranked_paths(self) -> tuple[RankedPath, ...]:
        """The ranked verdicts' paths, best score first."""
        ranked = [v.ranked for v in self.verdicts if v.ranked is not None]
        ranked.sort(key=lambda r: (-r.score, r.path.length, r.path.describe()))
        return tuple(ranked)

    n_paths_explored = _count(
        "paths_explored", "Hops whose outcome was merged (not deadline-aborted)."
    )
    n_paths_pruned_quality = _count(
        "pruned_quality", "Hops pruned by τ or as unfeasible joins."
    )
    n_joins_pruned_similarity = _count(
        "pruned_similarity", "Parallel join options similarity pruning dropped."
    )
    n_hops_empty_contribution = _count(
        "hops_empty_contribution",
        "Ranked hops that contributed no columns: not quality-pruned (no"
        " evidence of a bad join), they stay traversable as stepping stones.",
    )

    def top(self, k: int) -> tuple[RankedPath, ...]:
        """The ``k`` best-scoring paths."""
        return self.ranked_paths[:k]


@dataclass(frozen=True)
class TrainedPath:
    """A ranked path after model training on its augmented table."""

    ranked: RankedPath
    accuracy: float
    n_features_used: int


@dataclass(frozen=True)
class AugmentationResult:
    """Final outcome: the best augmented table and full bookkeeping."""

    discovery: DiscoveryResult
    trained: tuple[TrainedPath, ...]
    best: TrainedPath | None
    augmented_table: Table | None
    model_name: str
    total_seconds: float
    #: Join-execution counters of the training-phase materialisations
    #: (the discovery-phase counters live on ``discovery.engine_stats``).
    engine_stats: ExecutionStats = field(default_factory=ExecutionStats)
    #: Training-phase failures (top-k paths whose full-table
    #: materialisation failed and was skipped).
    failure_report: FailureReport = field(default_factory=FailureReport)
    #: Whole-run reproducibility record: the discovery timing tree and the
    #: training timing tree composed under one ``augment`` root, plus the
    #: combined metrics of both phases.
    run_manifest: RunManifest | None = None
    #: True when the run's anytime budget expired during either phase:
    #: discovery stopped early (see ``discovery.budget_exhausted``) or
    #: training covered only a prefix of the top-k paths.
    budget_exhausted: bool = False

    @property
    def accuracy(self) -> float:
        """Best achieved accuracy (0.0 when no path survived)."""
        return self.best.accuracy if self.best else 0.0

    @property
    def n_joined_tables(self) -> int:
        """Number of datasets joined on the winning path."""
        if self.best is None:
            return 0
        return self.best.ranked.path.length

    @property
    def combined_engine_stats(self) -> ExecutionStats:
        """Discovery-phase plus training-phase join-execution counters."""
        return self.discovery.engine_stats.merged(self.engine_stats)

    @property
    def combined_failure_report(self) -> FailureReport:
        """Discovery-phase plus training-phase failure records."""
        return self.discovery.failure_report.merged(self.failure_report)

    def summary(self) -> str:
        """One-paragraph human-readable report."""
        lines = [
            f"base={self.discovery.base_table} label={self.discovery.label_column}",
            f"explored {self.discovery.n_paths_explored} paths, "
            f"pruned {self.discovery.n_paths_pruned_quality} on quality, "
            f"{self.discovery.n_joins_pruned_similarity} join columns on similarity",
            f"discovery {self.discovery.discovery_seconds:.2f}s "
            f"(feature selection {self.discovery.feature_selection_seconds:.2f}s), "
            f"total {self.total_seconds:.2f}s, model {self.model_name}",
            f"engine: {self.combined_engine_stats.describe()}",
            f"selection: {self.discovery.selection_stats.describe()}",
            f"failures: {self.combined_failure_report.describe()}",
        ]
        if self.run_manifest is not None:
            lines.append(f"stages: {self.run_manifest.stage_summary()}")
        if self.budget_exhausted:
            lines.append(
                "anytime budget exhausted: "
                + self.discovery.navigation.describe()
            )
        if self.discovery.n_hops_empty_contribution:
            lines.append(
                f"{self.discovery.n_hops_empty_contribution} empty-contribution "
                f"hop(s) kept traversable"
            )
        if self.best is not None:
            lines.append(f"best accuracy {self.best.accuracy:.4f} on path:")
            lines.append("  " + self.best.ranked.describe())
        else:
            lines.append("no path survived pruning; base table unchanged")
        return "\n".join(lines)
