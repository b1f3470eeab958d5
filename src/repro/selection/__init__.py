"""Feature-selection metrics: relevance, redundancy and top-κ selection.

Implements the full metric menu from paper Section V so the Figure 3
comparison (which drove AutoFeat's Spearman + MRMR design choice) can be
reproduced, not just the winning configuration.
"""

from .online import (
    AlphaInvestingSelector,
    FastOSFSSelector,
    partial_correlation_pvalue,
)
from .kernels import (
    SelectionCodeCache,
    batch_redundancy_scores,
    batch_relevance_scores,
    batch_spearman_scores,
)
from .stats import SelectionStats
from .entropy import (
    conditional_mutual_information,
    discretize,
    entropy,
    joint_entropy,
    mutual_information,
    symmetrical_uncertainty,
)
from .redundancy import (
    REDUNDANCY_METHODS,
    greedy_select,
    linear_coefficients,
    RedundancyResult,
    redundancy_score,
)
from .relevance import (
    RELEVANCE_METRICS,
    information_gain,
    pearson_relevance,
    relevance_scores,
    relief_scores,
    su_relevance,
)
from .select_k_best import SelectionOutcome, select_k_best, select_k_best_named

__all__ = [
    "discretize",
    "entropy",
    "joint_entropy",
    "mutual_information",
    "conditional_mutual_information",
    "symmetrical_uncertainty",
    "information_gain",
    "su_relevance",
    "pearson_relevance",
    "relief_scores",
    "relevance_scores",
    "RELEVANCE_METRICS",
    "RedundancyResult",
    "redundancy_score",
    "greedy_select",
    "linear_coefficients",
    "REDUNDANCY_METHODS",
    "batch_spearman_scores",
    "batch_relevance_scores",
    "batch_redundancy_scores",
    "SelectionCodeCache",
    "SelectionStats",
    "SelectionOutcome",
    "select_k_best",
    "select_k_best_named",
    "AlphaInvestingSelector",
    "FastOSFSSelector",
    "partial_correlation_pvalue",
]
