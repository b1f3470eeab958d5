"""Provenance reports for augmentation results.

An augmented table is only trustworthy if you can see where each feature
came from; :func:`explain` turns an :class:`AugmentationResult` into a
per-feature provenance table — origin dataset, the join hops that fetched
it and the relevance/redundancy scores of the hop that accepted it — plus
the pruning bookkeeping of the discovery run.
"""

from __future__ import annotations

from .result import AugmentationResult

__all__ = ["explain_rows", "explain"]


def explain_rows(result: AugmentationResult) -> list[dict]:
    """Provenance of the winning path's features as report rows.

    Each feature's scores are read off the ``ranked`` verdict of the hop
    that accepted it: one verdict per prefix of the winning path, whose
    batch's accepted names are the features that prefix added.
    """
    if result.best is None:
        return []
    by_path = {
        verdict.ranked.path: verdict
        for verdict in result.discovery.verdicts
        if verdict.ranked is not None
    }
    chain = []
    path = result.best.ranked.path
    while path in by_path:
        chain.append(by_path[path])
        path = chain[-1].path
    rows = []
    accepted_before: tuple[str, ...] = ()
    for verdict in reversed(chain):
        ranked = verdict.ranked
        relevance = dict(zip(ranked.relevant_names, ranked.relevance_scores))
        accepted = ranked.selected_features[len(accepted_before) :]
        for feature, redundancy in zip(accepted, ranked.redundancy_scores):
            rows.append(
                {
                    "feature": feature,
                    "origin": verdict.edge.target,
                    "hops": ranked.path.length,
                    "route": ranked.path.describe(),
                    "relevance": round(relevance[feature], 4),
                    "redundancy": round(redundancy, 4),
                }
            )
        accepted_before = ranked.selected_features
    return rows


def explain(result: AugmentationResult) -> str:
    """Human-readable provenance report for an augmentation result."""
    from ..bench.reporting import format_table

    lines = [result.summary(), ""]
    rows = explain_rows(result)
    if rows:
        lines.append(format_table(rows, title="feature provenance"))
    else:
        lines.append("(no features were added)")
    return "\n".join(lines)
