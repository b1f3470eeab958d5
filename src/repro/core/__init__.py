"""AutoFeat core: ranking-based transitive feature discovery."""

from ..engine import qualified, source_column_name
from .autofeat import AutoFeat
from .config import AutoFeatConfig
from .explain import explain, explain_rows
from .navigation import (
    FRONTIER_STRATEGIES,
    FrontierEntry,
    NavigationFrontier,
    NavigationStats,
    RunBudget,
    UcbArm,
    UcbFrontierPolicy,
    hop_reward,
    ranking_regret,
    ucb_score,
)
from .pruning import completeness
from .ranking import compute_ranking_score, normalised_sum
from .result import (
    AugmentationResult,
    DiscoveryResult,
    HopVerdict,
    RankedPath,
    TrainedPath,
)
from .memo import MemoCounters, OutcomeMemo
from .streaming import StageOutcome, StreamingFeatureSelector
from .tuning import AutoFeatTuner, TuningOutcome, TuningTrial

__all__ = [
    "AutoFeatTuner",
    "TuningOutcome",
    "TuningTrial",
    "AutoFeat",
    "AutoFeatConfig",
    "explain",
    "explain_rows",
    "DiscoveryResult",
    "HopVerdict",
    "RankedPath",
    "TrainedPath",
    "AugmentationResult",
    "StreamingFeatureSelector",
    "MemoCounters",
    "OutcomeMemo",
    "StageOutcome",
    "compute_ranking_score",
    "normalised_sum",
    "completeness",
    "qualified",
    "source_column_name",
    "FRONTIER_STRATEGIES",
    "FrontierEntry",
    "NavigationFrontier",
    "NavigationStats",
    "RunBudget",
    "UcbArm",
    "UcbFrontierPolicy",
    "hop_reward",
    "ranking_regret",
    "ucb_score",
]
