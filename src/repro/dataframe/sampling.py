"""Row sampling, including the stratified sampling AutoFeat applies.

The paper samples the base table with *stratified* sampling before feature
selection so the class ratio in the sample matches the full table; model
training still happens on the full data (Section VI, "From Ranked Paths to
Training ML Models").
"""

from __future__ import annotations

import numpy as np

from ..errors import SchemaError
from .table import Table

__all__ = ["stratified_sample", "train_test_split_indices"]


def stratified_sample(
    table: Table,
    label_column: str,
    n: int,
    seed: int = 0,
) -> Table:
    """Sample ``n`` rows preserving the label distribution.

    Each class contributes ``round(n * class_fraction)`` rows (at least one
    row per class that exists, so rare classes are never lost).  Rows whose
    label is null are excluded — also when ``n`` covers the whole table.
    """
    if n <= 0:
        raise SchemaError(f"sample size must be positive, got {n}")
    labels = table.column(label_column)
    rows = np.flatnonzero(~labels.mask)
    if table.n_rows and not len(rows):
        raise SchemaError(f"label column {label_column!r} is entirely null")
    if n >= table.n_rows:
        return table if len(rows) == table.n_rows else table.take(rows)

    # One class per distinct label, its member rows ascending; classes are
    # visited in ``str`` order of the value first seen for each.
    values = labels.values[rows]
    _, first, inverse, counts = np.unique(
        values, return_index=True, return_inverse=True, return_counts=True
    )
    order = np.argsort(inverse, kind="stable")
    by_class = np.split(rows[order], np.cumsum(counts)[:-1])
    keys = [str(v) for v in values[first].tolist()]

    rng = np.random.default_rng(seed)
    chosen = []
    for cls in sorted(range(len(keys)), key=keys.__getitem__):
        members = by_class[cls]
        quota = max(1, round(n * len(members) / len(rows)))
        quota = min(quota, len(members))
        chosen.append(members[rng.choice(len(members), size=quota, replace=False)])
    return table.take(np.sort(np.concatenate(chosen)))


def train_test_split_indices(
    n_rows: int,
    labels: np.ndarray,
    test_fraction: float = 0.2,
    seed: int = 0,
) -> tuple[np.ndarray, np.ndarray]:
    """Stratified train/test index split (80/20 in the paper).

    Returns ``(train_idx, test_idx)``.  Stratification is per class; every
    class with at least two members contributes at least one test row.
    """
    if not 0.0 < test_fraction < 1.0:
        raise SchemaError(f"test_fraction must be in (0, 1), got {test_fraction}")
    rng = np.random.default_rng(seed)
    train: list[int] = []
    test: list[int] = []
    classes = np.unique(labels)
    for cls in classes:
        members = np.flatnonzero(labels == cls)
        rng.shuffle(members)
        n_test = int(round(len(members) * test_fraction))
        if len(members) >= 2:
            n_test = max(1, min(n_test, len(members) - 1))
        else:
            n_test = 0
        test.extend(members[:n_test].tolist())
        train.extend(members[n_test:].tolist())
    return (
        np.sort(np.asarray(train, dtype=np.int64)),
        np.sort(np.asarray(test, dtype=np.int64)),
    )
