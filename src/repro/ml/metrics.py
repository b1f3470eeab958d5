"""Classification metric: the accuracy every experiment reports."""

from __future__ import annotations

import numpy as np

from ..errors import ModelError

__all__ = ["accuracy"]


def _check_pair(y_true: np.ndarray, y_pred: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    y_true = np.asarray(y_true)
    y_pred = np.asarray(y_pred)
    if y_true.shape != y_pred.shape:
        raise ModelError(
            f"prediction length {y_pred.shape} != label length {y_true.shape}"
        )
    if y_true.size == 0:
        raise ModelError("cannot score empty predictions")
    return y_true, y_pred


def accuracy(y_true: np.ndarray, y_pred: np.ndarray) -> float:
    """Fraction of exact matches."""
    y_true, y_pred = _check_pair(y_true, y_pred)
    return float(np.mean(y_true == y_pred))

