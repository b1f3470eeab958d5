"""Property-based tests on information-theoretic invariants."""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from repro.selection import (
    conditional_mutual_information,
    discretize,
    entropy,
    joint_entropy,
    mutual_information,
    pearson_relevance,
    symmetrical_uncertainty,
)
from tests.oracle.selection import spearman_relevance

codes = arrays(
    np.int64,
    st.integers(min_value=2, max_value=120),
    elements=st.integers(min_value=0, max_value=5),
)
floats = arrays(
    np.float64,
    st.integers(min_value=3, max_value=100),
    elements=st.floats(
        min_value=-100, max_value=100, allow_nan=False, allow_infinity=False
    ),
)


@given(codes)
def test_entropy_non_negative(x):
    assert entropy(x) >= 0.0


@given(codes)
def test_entropy_bounded_by_log_support(x):
    support = len(np.unique(x))
    assert entropy(x) <= np.log(support) + 1e-9


@given(codes)
def test_self_mi_equals_entropy(x):
    assert mutual_information(x, x) == entropy(x)


@given(codes, codes)
@settings(max_examples=80)
def test_mi_symmetric_and_nonneg(x, y):
    n = min(len(x), len(y))
    x, y = x[:n], y[:n]
    mi_xy = mutual_information(x, y)
    mi_yx = mutual_information(y, x)
    assert mi_xy >= 0.0
    assert abs(mi_xy - mi_yx) < 1e-9


@given(codes, codes)
@settings(max_examples=80)
def test_mi_bounded_by_marginal_entropies(x, y):
    n = min(len(x), len(y))
    x, y = x[:n], y[:n]
    assert mutual_information(x, y) <= min(entropy(x), entropy(y)) + 1e-9


@given(codes, codes)
@settings(max_examples=80)
def test_joint_entropy_subadditive(x, y):
    n = min(len(x), len(y))
    x, y = x[:n], y[:n]
    assert joint_entropy(x, y) <= entropy(x) + entropy(y) + 1e-9


@given(codes, codes)
@settings(max_examples=60)
def test_su_bounded(x, y):
    n = min(len(x), len(y))
    assert 0.0 <= symmetrical_uncertainty(x[:n], y[:n]) <= 1.0


@given(codes, codes, codes)
@settings(max_examples=50)
def test_cmi_non_negative(x, y, z):
    n = min(len(x), len(y), len(z))
    assert conditional_mutual_information(x[:n], y[:n], z[:n]) >= 0.0


@given(floats)
def test_discretize_codes_in_range(x):
    out = discretize(x, n_bins=10)
    finite = out[out >= 0]
    if finite.size:
        assert finite.max() < max(10, 32)
    assert (out >= -1).all()


@given(floats, floats)
@settings(max_examples=80)
def test_pearson_spearman_bounded(x, y):
    n = min(len(x), len(y))
    assert 0.0 <= pearson_relevance(x[:n], y[:n]) <= 1.0
    assert 0.0 <= spearman_relevance(x[:n], y[:n]) <= 1.0


@given(floats)
@settings(max_examples=60)
def test_spearman_perfect_self_correlation(x):
    if len(np.unique(x)) < 2:
        assert spearman_relevance(x, x) == 0.0
    else:
        assert spearman_relevance(x, x) > 0.99


@given(floats, st.floats(min_value=0.1, max_value=10), st.floats(min_value=-5, max_value=5))
@settings(max_examples=60)
def test_pearson_affine_invariance(x, scale, shift):
    y = scale * x + shift
    tiny = float(np.finfo(np.float64).tiny)
    degenerate_y = np.std(y) <= 1e-12 * max(float(np.abs(y).max()), tiny)
    degenerate_x = np.std(x) <= 1e-12 * max(float(np.abs(x).max()), tiny)
    if len(np.unique(x)) < 2 or degenerate_x or degenerate_y:
        # Spreads that underflow against the shift are float degeneracy,
        # not a correlation property (pearson_relevance treats such
        # vectors as constant and scores 0).
        return
    assert pearson_relevance(x, y) > 0.999
