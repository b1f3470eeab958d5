"""Dataset discovery: column profiling and COMA-style schema matching.

Provides the "unknown relationships" half of DRG construction — the paper's
data-lake setting, where joinability edges come from a schema matcher
(COMA via Valentine) instead of declared key/foreign-key constraints.
"""

from .coma import ColumnMatch, ComaMatcher
from .distribution import DistributionMatcher, QuantileSketch, quantile_similarity
from .incremental import IncrementalMatchIndex, MatchCounters, MutationReport
from .lsh import LazoMatcher, estimate_containment, validate_banding
from .name_similarity import token_similarity, tokenize_identifier
from .profiles import ColumnProfile, TableProfile, profile_column, profile_table
from .value_overlap import instance_similarity, numeric_range_overlap

__all__ = [
    "ColumnProfile",
    "TableProfile",
    "profile_column",
    "profile_table",
    "token_similarity",
    "tokenize_identifier",
    "numeric_range_overlap",
    "instance_similarity",
    "ColumnMatch",
    "ComaMatcher",
    "IncrementalMatchIndex",
    "MatchCounters",
    "MutationReport",
    "LazoMatcher",
    "estimate_containment",
    "validate_banding",
    "DistributionMatcher",
    "QuantileSketch",
    "quantile_similarity",
]
