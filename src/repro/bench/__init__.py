"""Benchmark harness: experiment runners and plain-text reporting."""

from .experiments import (
    fig3a_relevance_comparison,
    fig3b_redundancy_comparison,
    fig4_benchmark_setting,
    fig5_nontree_benchmark,
    fig6_datalake_setting,
    fig7_nontree_datalake,
    fig8_kappa_sensitivity,
    fig8_tau_sensitivity,
    fig9_ablation,
    headline_summary,
    joinall_explosion,
    matcher_comparison,
    streaming_selector_comparison,
    multigraph_ablation,
    table2_overview,
    traversal_ablation,
)
from .harness import ALL_METHODS, BenchProfile, average_by_method, build_setting, compare_methods
from .manifests import assert_no_failures, require_valid_manifest, write_summary
from .reporting import format_table, print_table

__all__ = [
    "BenchProfile",
    "assert_no_failures",
    "require_valid_manifest",
    "write_summary",
    "compare_methods",
    "average_by_method",
    "build_setting",
    "ALL_METHODS",
    "format_table",
    "print_table",
    "table2_overview",
    "fig3a_relevance_comparison",
    "fig3b_redundancy_comparison",
    "fig4_benchmark_setting",
    "fig5_nontree_benchmark",
    "fig6_datalake_setting",
    "fig7_nontree_datalake",
    "fig8_kappa_sensitivity",
    "fig8_tau_sensitivity",
    "fig9_ablation",
    "joinall_explosion",
    "headline_summary",
    "traversal_ablation",
    "multigraph_ablation",
    "matcher_comparison",
    "streaming_selector_comparison",
]
