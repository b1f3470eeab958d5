"""The two pruning strategies of Section IV-C.

1. **Similarity-score pruning** operates at the join-column level: when a
   dataset-discovery run proposes several join columns between the same two
   tables, only the top-scoring one(s) are explored (ties each become their
   own path).  Exposed through
   :meth:`repro.graph.DatasetRelationGraph.best_join_options`; discovery
   records each option it drops as a ``similarity``
   :class:`~repro.core.result.HopVerdict`.

2. **Data-quality pruning** operates at the join-result level: a join whose
   contributed columns are mostly null (completeness below τ, which the
   paper recommends at 0.65, Section VII-D) is pruned.
"""

from __future__ import annotations

from ..dataframe import Table

__all__ = ["completeness"]


def completeness(joined: Table, contributed_columns: list[str]) -> float:
    """1 - null ratio over the columns the join contributed.

    A join is kept iff its completeness is ≥ τ.  A hop that contributed
    no columns is vacuously complete (1.0): an empty contribution carries
    no evidence of a bad join, and scoring it 0.0 would quality-prune
    stepping-stone hops that only exist to reach a relevant transitive
    table (``AutoFeat.discover`` counts such hops separately as
    ``n_hops_empty_contribution``).
    """
    present = [c for c in contributed_columns if c in joined]
    if not present:
        return 1.0
    return 1.0 - joined.null_ratio(present)
