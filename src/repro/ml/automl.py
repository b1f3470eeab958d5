"""AutoGluon-style tabular prediction wrapper.

The paper trains its models "using AutoGluon, which automatically handles
data encoding and hyper-parameter tuning".  :class:`AutoTabularPredictor`
is that layer: give it a Table and a label column, it encodes features,
stratified-splits, fits the requested model from the registry and reports
test accuracy.  :func:`evaluate_accuracy` is the one-call form every
experiment in the benchmark harness uses; :func:`fit_key` is its content
address, the key a long-lived owner memoises fits under.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from ..core.memo import digest
from ..dataframe import Column, DType, Table, train_test_split_indices
from ..errors import ModelError
from .encoding import TabularEncoder, encode_labels
from .forest import ExtraTreesClassifier, RandomForestClassifier
from .gbdt import LightGBMClassifier, XGBoostClassifier
from .knn import KNeighborsClassifier
from .linear import LogisticRegressionL1
from .metrics import accuracy

__all__ = [
    "MODEL_REGISTRY",
    "TREE_MODELS",
    "NON_TREE_MODELS",
    "AutoTabularPredictor",
    "EvaluationResult",
    "evaluate_accuracy",
    "fit_key",
]

MODEL_REGISTRY: dict[str, Callable[[int], object]] = {
    "lightgbm": lambda seed: LightGBMClassifier(seed=seed),
    "xgboost": lambda seed: XGBoostClassifier(seed=seed),
    "random_forest": lambda seed: RandomForestClassifier(seed=seed),
    "extra_trees": lambda seed: ExtraTreesClassifier(seed=seed),
    "knn": lambda seed: KNeighborsClassifier(),
    "linear_l1": lambda seed: LogisticRegressionL1(),
}

#: The four tree-based models of Figures 4 and 6.
TREE_MODELS = ("lightgbm", "xgboost", "random_forest", "extra_trees")

#: The two non-tree models of Figures 5 and 7.
NON_TREE_MODELS = ("knn", "linear_l1")


@dataclass(frozen=True)
class EvaluationResult:
    """Outcome of one train/evaluate cycle."""

    model_name: str
    accuracy: float
    n_train: int
    n_test: int
    n_features: int
    feature_names: tuple[str, ...]


class AutoTabularPredictor:
    """Encode, split, fit and score one tabular model."""

    def __init__(self, model_name: str = "lightgbm", seed: int = 0):
        if model_name not in MODEL_REGISTRY:
            raise ModelError(
                f"unknown model {model_name!r}; "
                f"expected one of {sorted(MODEL_REGISTRY)}"
            )
        self.model_name = model_name
        self.seed = seed
        self._encoder = TabularEncoder()

    @staticmethod
    def _label_array(table: Table, label_column: str) -> np.ndarray:
        column = table.column(label_column)
        if column.has_nulls():
            raise ModelError(
                f"label column {label_column!r} contains nulls; "
                "drop or impute them before training"
            )
        return np.asarray(column.to_list(), dtype=object)

    @staticmethod
    def _feature_list(
        table: Table, label_column: str, feature_names: list[str] | None
    ) -> list[str]:
        if label_column not in table:
            raise ModelError(f"table has no label column {label_column!r}")
        if feature_names is None:
            features = [n for n in table.column_names if n != label_column]
        else:
            features = [n for n in feature_names if n != label_column]
        if not features:
            raise ModelError("no feature columns to train on")
        return features

    def evaluate(
        self,
        table: Table,
        label_column: str,
        feature_names: list[str] | None = None,
        test_fraction: float = 0.2,
    ) -> EvaluationResult:
        """80/20 stratified train/test evaluation (the paper's protocol)."""
        features = self._feature_list(table, label_column, feature_names)
        raw_labels = self._label_array(table, label_column)
        y, __ = encode_labels(raw_labels)
        train_idx, test_idx = train_test_split_indices(
            table.n_rows, y, test_fraction=test_fraction, seed=self.seed
        )
        train_table = table.take(train_idx)
        test_table = table.take(test_idx)
        X_train = self._encoder.fit_transform(train_table, features)
        X_test = self._encoder.transform(test_table)
        model = MODEL_REGISTRY[self.model_name](self.seed)
        model.fit(X_train, y[train_idx])
        predictions = model.predict(X_test)
        return EvaluationResult(
            model_name=self.model_name,
            accuracy=accuracy(y[test_idx], predictions),
            n_train=len(train_idx),
            n_test=len(test_idx),
            n_features=len(features),
            feature_names=tuple(features),
        )


def evaluate_accuracy(
    table: Table,
    label_column: str,
    model_name: str = "lightgbm",
    feature_names: list[str] | None = None,
    seed: int = 0,
) -> float:
    """Convenience: one 80/20 evaluation, returning only the accuracy."""
    predictor = AutoTabularPredictor(model_name=model_name, seed=seed)
    return predictor.evaluate(table, label_column, feature_names).accuracy


def fit_key(
    table: Table,
    label_column: str,
    model_name: str = "lightgbm",
    feature_names: list[str] | None = None,
    seed: int = 0,
) -> bytes:
    """Content address of :func:`evaluate_accuracy` on the same arguments.

    The fit reads the model name, the seed, the resolved feature names in
    order and the dtype, value and mask bytes of those columns and of the
    label, so the digest covers exactly that (DESIGN.md §12).  The
    parameters must stay :func:`evaluate_accuracy`'s: a new training
    input joins both signatures at once.
    """
    features = AutoTabularPredictor._feature_list(table, label_column, feature_names)
    parts = [model_name.encode(), str(seed).encode()]
    for name in features:
        parts.append(name.encode())
        parts.extend(_column_parts(table.column(name)))
    parts.extend(_column_parts(table.column(label_column)))
    return digest(*parts)


def _column_parts(column: Column) -> list:
    """Dtype, mask and value bytes of ``column``; strings as UTF-8 behind
    their lengths, so no two different columns give the same parts."""
    head = [column.dtype.value.encode(), np.ascontiguousarray(column.mask)]
    if column.dtype is not DType.STRING:
        return head + [np.ascontiguousarray(column.values)]
    encoded = [
        ("" if v is None else v).encode("utf-8", "surrogatepass")
        for v in column.values
    ]
    lengths = np.fromiter(map(len, encoded), np.int64, len(encoded))
    return head + [lengths, b"".join(encoded)]
