"""Cross-checks of our correlation/rank machinery against scipy.stats."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays
from scipy import stats

from repro.selection.relevance import (
    _rankdata,
    _scaled_up,
    pearson_relevance,
)
from tests.oracle.selection import spearman_relevance

vectors = arrays(
    np.float64,
    st.integers(min_value=5, max_value=80),
    elements=st.floats(min_value=-1e6, max_value=1e6, allow_nan=False),
)


@given(vectors)
@settings(max_examples=80)
def test_rankdata_matches_scipy(x):
    ours = _rankdata(x)
    theirs = stats.rankdata(x, method="average")
    assert np.allclose(ours, theirs)


def _effectively_constant(x: np.ndarray) -> bool:
    # Judged on the scaled-up vector, as pearson_relevance does: the std
    # of raw values below ~1e-154 underflows to a false "constant".
    xs = _scaled_up(x)
    tiny = float(np.finfo(np.float64).tiny)
    return np.std(xs) <= 1e-12 * max(float(np.abs(xs).max()), tiny)


@given(vectors, vectors)
@settings(max_examples=60)
def test_pearson_matches_scipy(x, y):
    n = min(len(x), len(y))
    x, y = x[:n], y[:n]
    if _effectively_constant(x) or _effectively_constant(y):
        assert pearson_relevance(x, y) == 0.0
        return
    ours = pearson_relevance(x, y)
    theirs = abs(stats.pearsonr(x, y).statistic)
    assert ours == pytest.approx(theirs, abs=1e-6)


def test_pearson_of_tiny_values_does_not_underflow():
    # Squared deviations of values near 1e-160 are subnormal: computed on
    # the raw values, r came out 0.2500117 here instead of 0.25.
    x = np.array([0.0] + [4.53104266e-160] * 4)
    y = np.array([1.0, 0.0, 1.0, 1.0, 1.0])
    theirs = abs(stats.pearsonr(x, y).statistic)
    assert pearson_relevance(x, y) == pytest.approx(theirs, abs=1e-12)
    assert pearson_relevance(x * 2.0**600, y) == pearson_relevance(x, y)


@pytest.mark.parametrize("tiny", [1.1e-300, 1.1e-308])
def test_pearson_of_tiny_values_is_not_called_constant(tiny):
    # The constant guard once read np.std of the raw values, whose squared
    # deviations underflow to 0 below ~1e-154: these valid columns (1.1e-308
    # is subnormal) scored 0.0 instead of scipy's |r| = 0.25.
    x = np.array([0.0] + [tiny] * 4)
    y = np.array([1.0, 0.0, 1.0, 1.0, 1.0])
    assert not _effectively_constant(x)
    theirs = abs(stats.pearsonr(x, y).statistic)
    assert pearson_relevance(x, y) == pytest.approx(theirs, abs=1e-12)


@given(vectors, vectors)
@settings(max_examples=60)
def test_spearman_matches_scipy(x, y):
    n = min(len(x), len(y))
    x, y = x[:n], y[:n]
    if len(np.unique(x)) < 2 or len(np.unique(y)) < 2:
        return
    ours = spearman_relevance(x, y)
    theirs = abs(stats.spearmanr(x, y).statistic)
    assert ours == pytest.approx(theirs, abs=1e-8)

