"""Synthetic classification data with controllable feature relevance.

The paper evaluates on eight public datasets that cannot be downloaded in
this environment, so we generate planted-signal equivalents: binary
classification tables whose features span a controlled spectrum from
strongly informative through redundant to pure noise.  What the
experiments measure — can a method find the informative features once they
are scattered across transitively-joined tables — only depends on that
spectrum, not on the original data values.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..dataframe import Table
from ..errors import DatasetError

__all__ = ["FlatDataset", "make_classification", "WideLake", "make_wide_lake"]


@dataclass(frozen=True)
class FlatDataset:
    """A flat (single-table) synthetic classification dataset.

    ``features`` maps feature name to a float vector; ``relevance_order``
    lists feature names from weakest to strongest planted association with
    the label (ground truth for the splitter's placement policy).
    """

    features: dict[str, np.ndarray]
    label: np.ndarray
    relevance_order: tuple[str, ...]

    @property
    def n_rows(self) -> int:
        return len(self.label)

    @property
    def n_features(self) -> int:
        return len(self.features)


def make_classification(
    n_rows: int,
    n_informative: int,
    n_redundant: int,
    n_noise: int,
    class_sep: float = 1.0,
    label_noise: float = 0.05,
    n_categorical: int = 0,
    seed: int = 0,
) -> FlatDataset:
    """Generate a binary classification dataset with planted structure.

    * informative features: class-conditional Gaussians with per-feature
      effect sizes decaying from ``class_sep`` down to ``class_sep / 4``,
      so informativeness is graded rather than uniform;
    * redundant features: noisy linear combinations of two informative
      features (they carry signal but add little beyond it — MRMR bait);
    * noise features: independent standard Gaussians;
    * categorical features: the first ``n_categorical`` informative
      features are additionally discretised into small integer codes.

    ``label_noise`` flips that fraction of labels to keep accuracy away
    from a trivial 1.0.
    """
    if n_rows < 10:
        raise DatasetError(f"n_rows must be >= 10, got {n_rows}")
    if n_informative < 1:
        raise DatasetError("need at least one informative feature")
    if min(n_redundant, n_noise) < 0 or n_categorical < 0:
        raise DatasetError("feature counts must be non-negative")
    if n_categorical > n_informative:
        raise DatasetError("n_categorical cannot exceed n_informative")

    rng = np.random.default_rng(seed)
    label = rng.integers(0, 2, size=n_rows)
    signs = np.where(label == 1, 1.0, -1.0)

    features: dict[str, np.ndarray] = {}
    strengths: dict[str, float] = {}

    informative_names = []
    for i in range(n_informative):
        effect = class_sep * (1.0 - 0.75 * i / max(1, n_informative - 1))
        name = f"inf_{i:02d}"
        features[name] = signs * effect / 2.0 + rng.normal(0.0, 1.0, n_rows)
        strengths[name] = effect
        informative_names.append(name)

    for i in range(n_redundant):
        a, b = rng.choice(n_informative, size=2, replace=n_informative < 2)
        name = f"red_{i:02d}"
        base = (
            features[informative_names[a]] + features[informative_names[int(b)]]
        ) / 2.0
        features[name] = base + rng.normal(0.0, 0.3, n_rows)
        strengths[name] = 0.6 * (
            strengths[informative_names[a]] + strengths[informative_names[int(b)]]
        ) / 2.0

    for i in range(n_noise):
        name = f"noise_{i:02d}"
        features[name] = rng.normal(0.0, 1.0, n_rows)
        strengths[name] = 0.0

    for i in range(n_categorical):
        name = informative_names[i]
        quantiles = np.quantile(features[name], [0.25, 0.5, 0.75])
        features[name] = np.searchsorted(quantiles, features[name]).astype(np.float64)

    if label_noise > 0.0:
        flips = rng.random(n_rows) < label_noise
        label = np.where(flips, 1 - label, label)

    relevance_order = tuple(sorted(features, key=lambda n: strengths[n]))
    return FlatDataset(
        features=features,
        label=label.astype(np.int64),
        relevance_order=relevance_order,
    )


@dataclass(frozen=True)
class WideLake:
    """A many-table synthetic lake for discovery-scale experiments.

    ``expected_key_edges`` is the planted ground truth: one
    ``(parent, key, child, key)`` tuple per parent→child join — exactly
    the high-weight edges a schema matcher should recover.
    """

    tables: tuple[Table, ...]
    expected_key_edges: tuple[tuple[str, str, str, str], ...]


def make_wide_lake(
    n_tables: int,
    n_rows: int = 48,
    fanout: int = 8,
    match_rate: float = 0.9,
    n_shared_categories: int = 3,
    seed: int = 0,
) -> WideLake:
    """Generate a *wide* lake: many small tables, sparse true joins.

    The scale regime of sketch-index benchmarking is orthogonal to the
    signal-planting regime of :func:`make_classification` — what matters
    here is the *shape* of the matching problem: ``n_tables`` tables
    forming a ``fanout``-ary join tree, where satellite ``i`` joins its
    parent ``(i-1) // fanout`` through a key column ``k{i:04d}`` that
    exists on both sides (full domain on the parent, a ``match_rate``
    row-subsample on the child).  Key domains are disjoint permuted
    integer ranges, key names are unique single tokens, and per-table
    feature columns ``x{i:04d}`` hold continuous noise — so the number
    of truly joinable column pairs grows *linearly* in ``n_tables``
    while the full quadratic scan grows, well, quadratically.  A
    constant number of identically-named small-domain ``segment``
    columns is sprinkled on the first few satellites as spurious-edge
    bait (the paper's data-lake noise regime, held at O(1) so it does
    not disturb the asymptotics).
    """
    if n_tables < 2:
        raise DatasetError(f"n_tables must be >= 2, got {n_tables}")
    if n_rows < 8:
        raise DatasetError(f"n_rows must be >= 8, got {n_rows}")
    if fanout < 1:
        raise DatasetError(f"fanout must be >= 1, got {fanout}")
    if not 0.0 < match_rate <= 1.0:
        raise DatasetError(
            f"match_rate must be in (0, 1], got {match_rate}"
        )
    if n_shared_categories < 2:
        raise DatasetError(
            f"n_shared_categories must be >= 2, got {n_shared_categories}"
        )

    rng = np.random.default_rng(seed)
    names = [f"t{i:04d}" for i in range(n_tables)]
    columns_of: list[dict[str, np.ndarray]] = [{} for _ in range(n_tables)]
    row_counts = [n_rows] + [0] * (n_tables - 1)

    columns_of[0]["base_id"] = np.arange(n_rows, dtype=np.int64)
    columns_of[0]["label"] = rng.integers(0, 2, size=n_rows).astype(np.int64)
    columns_of[0]["x0000"] = rng.normal(0.0, 1.0, n_rows)

    expected: list[tuple[str, str, str, str]] = []
    for i in range(1, n_tables):
        parent = (i - 1) // fanout
        key = f"k{i:04d}"
        # Disjoint per-satellite integer domains: the only cross-table
        # value overlap in the lake is the planted parent/child pair
        # (plus the O(1) segment columns below).
        domain = i * 100_000 + rng.permutation(row_counts[parent]).astype(
            np.int64
        )
        columns_of[parent][key] = domain
        m = max(2, int(round(row_counts[parent] * match_rate)))
        columns_of[i][key] = rng.permutation(domain)[:m]
        columns_of[i][f"x{i:04d}"] = rng.normal(0.0, 1.0, m)
        row_counts[i] = m
        expected.append((names[parent], key, names[i], key))

    # Spurious-edge bait: identically-named tiny-domain category columns
    # on a constant number of satellites (identical names alone clear the
    # paper's 0.55 threshold under COMA's 60/40 weighting).
    for i in range(1, min(4, n_tables)):
        columns_of[i]["segment"] = rng.integers(
            0, n_shared_categories + i - 1, size=row_counts[i]
        ).astype(np.int64)

    tables = tuple(
        Table(columns_of[i], name=names[i]) for i in range(n_tables)
    )
    return WideLake(tables=tables, expected_key_edges=tuple(expected))
