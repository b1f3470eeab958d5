"""Unit tests for the accuracy metric."""

import numpy as np
import pytest

from repro.errors import ModelError
from repro.ml import accuracy


class TestAccuracy:
    def test_perfect(self):
        assert accuracy(np.array([1, 0, 1]), np.array([1, 0, 1])) == 1.0

    def test_half(self):
        assert accuracy(np.array([1, 0]), np.array([1, 1])) == 0.5

    def test_empty_raises(self):
        with pytest.raises(ModelError):
            accuracy(np.array([]), np.array([]))

    def test_shape_mismatch_raises(self):
        with pytest.raises(ModelError):
            accuracy(np.array([1]), np.array([1, 2]))

