"""Distribution-based schema matching for numeric columns.

Value-overlap matchers miss joinable numeric columns whose representations
differ (floats rounded differently, unit-scaled copies).  Distribution
matchers compare column *shapes* instead: here, the L1 distance between
min-max-normalised quantile sketches, combined with raw range overlap.

This family is deliberately weaker evidence than overlap — two unrelated
uniform columns look alike — which makes it a realistic generator of the
spurious lake edges the paper's pruning is designed to absorb.  It is also
the right tool for *unionability*-style relatedness, so it rounds out the
matcher menu alongside COMA (composite) and Lazo (overlap/LSH).
"""

from __future__ import annotations

import numpy as np

from ..dataframe import Column, Table
from ..errors import DiscoveryError
from .name_similarity import token_similarity
from .value_overlap import check_min_score, numeric_range_overlap
from .profiles import ColumnProfile, ProfileCache, profile_column

__all__ = ["QuantileSketch", "quantile_similarity", "DistributionMatcher"]

N_QUANTILES = 16


class QuantileSketch:
    """Normalised quantile summary of one numeric column."""

    __slots__ = ("quantiles", "n_values")

    def __init__(self, values: np.ndarray, n_quantiles: int = N_QUANTILES):
        finite = values[np.isfinite(values)]
        self.n_values = int(finite.size)
        if self.n_values == 0:
            self.quantiles = np.zeros(n_quantiles, dtype=np.float64)
            return
        lo, hi = float(finite.min()), float(finite.max())
        span = hi - lo if hi > lo else 1.0
        normalised = (finite - lo) / span
        grid = np.linspace(0.0, 1.0, n_quantiles)
        self.quantiles = np.quantile(normalised, grid)

    @staticmethod
    def of_column(column: Column) -> "QuantileSketch":
        if not column.dtype.is_numeric:
            raise DiscoveryError(
                f"quantile sketches need numeric columns, got {column.dtype}"
            )
        return QuantileSketch(column.to_float())


def quantile_similarity(a: QuantileSketch, b: QuantileSketch) -> float:
    """1 - mean L1 distance between normalised quantile vectors, in [0, 1]."""
    if a.n_values == 0 or b.n_values == 0:
        return 0.0
    distance = float(np.mean(np.abs(a.quantiles - b.quantiles)))
    return max(0.0, 1.0 - distance)


def _numeric_summaries(
    table: Table,
) -> dict[str, tuple[QuantileSketch, ColumnProfile]]:
    """Quantile sketch and profile of every numeric column, in column order."""
    summaries = {}
    for name in table.column_names:
        column = table.column(name)
        if column.dtype.is_numeric:
            summaries[name] = (
                QuantileSketch.of_column(column),
                profile_column(column, table.name, name),
            )
    return summaries


class DistributionMatcher:
    """Shape + range + name evidence for numeric column pairs.

    score = 0.45 · quantile_similarity + 0.25 · range_overlap
          + 0.30 · token_name_similarity

    Non-numeric columns never match.  The name term keeps the matcher from
    linking every pair of similarly-shaped measurements, while still
    letting renamed copies through.
    """

    def __init__(self, min_score: float = 0.35):
        check_min_score(min_score)
        self.min_score = min_score
        self._summaries = ProfileCache(_numeric_summaries)

    def score(
        self,
        table_a: Table,
        column_a: str,
        table_b: Table,
        column_b: str,
    ) -> float:
        """Composite distribution score for one column pair."""
        col_a, col_b = table_a.column(column_a), table_b.column(column_b)
        if not (col_a.dtype.is_numeric and col_b.dtype.is_numeric):
            return 0.0
        sketch_a, profile_a = self._summaries(table_a)[column_a]
        sketch_b, profile_b = self._summaries(table_b)[column_b]
        shape = quantile_similarity(sketch_a, sketch_b)
        ranges = numeric_range_overlap(profile_a, profile_b)
        names = token_similarity(column_a, column_b)
        return 0.45 * shape + 0.25 * ranges + 0.30 * names

    def match(self, table_a: Table, table_b: Table, floor: float = 0.0):
        """All numeric column pairs reaching ``min_score`` and ``floor``."""
        out = []
        for column_a in self._summaries(table_a):
            for column_b in self._summaries(table_b):
                score = self.score(table_a, column_a, table_b, column_b)
                rounded = round(score, 6)
                if score >= self.min_score and rounded >= floor:
                    out.append((column_a, column_b, rounded))
        out.sort(key=lambda t: (-t[2], t[0], t[1]))
        return out

    def __call__(self, table_a: Table, table_b: Table, floor: float = 0.0):
        """DRG ``Matcher`` protocol adapter."""
        yield from self.match(table_a, table_b, floor)
