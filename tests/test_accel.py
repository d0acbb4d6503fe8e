"""Differential tests: the chunked pairwise primitives against dense references.

The references are independent of the chunked code: ``scipy``'s
``pdist``/``cdist`` for the distance kernel, and ``arccos(clip(u @ v.T))``
on ``angle_embed`` rows for the angular kernel.  Inputs cover the sizes
on both sides of the 512-row chunk, ties, duplicate rows, constant
columns and 1e8 offsets.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose
from scipy.spatial.distance import cdist, pdist, squareform

from raresig import ValidationError, _accel
from raresig._accel import angle_embed
from raresig.kernels import dcov_kernel, ipcov_kernel, kendall_kernel

C_SIGMA2 = 0.7
KERNELS = {"dcov": dcov_kernel(), "ipcov": ipcov_kernel(C_SIGMA2)}
SIZES = (1, 2, 511, 512, 513, 1025)
# arccos(1 - k ulp) ~ 1.5e-8 sqrt(k): a last-bit change in a dot product
# near 1 (duplicate rows, or rows made parallel by a large offset) moves
# an angle by up to ~1e-8 in absolute terms
ANGLE_ATOL = 1e-7

fast = settings(max_examples=25)


@st.composite
def feature_rows(draw, p=None):
    n = draw(st.sampled_from(SIZES))
    p = draw(st.integers(1, 8)) if p is None else p
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    x = rng.standard_normal((n, p))
    if draw(st.booleans()):
        x = np.round(x, 1)  # ties
    if draw(st.booleans()):
        src = rng.integers(0, n, size=n // 2)
        x[rng.integers(0, n, size=src.size)] = x[src]  # duplicate rows
    if draw(st.booleans()):
        x[:, draw(st.integers(0, p - 1))] = 3.0  # constant column
    if draw(st.booleans()):
        x[:, 0] += 1e8
    return x


@st.composite
def row_pairs(draw):
    a = draw(feature_rows())
    return a, draw(feature_rows(p=a.shape[1]))


def _dense(kind, a, b):
    if kind == "dcov":
        return cdist(a, b)
    u, v = angle_embed(a, C_SIGMA2), angle_embed(b, C_SIGMA2)
    return np.arccos(np.clip(u @ v.T, -1.0, 1.0))


def _within_ref(kind, a):
    if kind == "dcov":
        return pdist(a)
    return _dense(kind, a, a)[np.triu_indices(a.shape[0], k=1)]


def _check(kind, got, want, terms):
    """Equal to 1e-12 relative; angles also within ``terms`` times the
    per-entry arccos rounding."""
    atol = ANGLE_ATOL * terms if kind == "ipcov" else 0.0
    assert_allclose(got, want, rtol=1e-12, atol=atol)


kinds = st.sampled_from(sorted(KERNELS))


@fast
@given(kinds, row_pairs())
def test_cross_rowsum_matches_dense(kind, ab):
    a, b = ab
    got = _accel.cross_rowsum(KERNELS[kind], a, b)
    assert got.shape == (a.shape[0],)
    _check(kind, got, _dense(kind, a, b).sum(axis=1), b.shape[0])


@fast
@given(kinds, feature_rows())
def test_within_sum_matches_dense(kind, a):
    got = _accel.within_sum(KERNELS[kind], a)
    n = a.shape[0]
    _check(kind, got, _within_ref(kind, a).sum(), n * (n - 1) // 2)


@fast
@given(kinds, feature_rows())
def test_within_rowsum_matches_dense(kind, a):
    got = _accel.within_rowsum(KERNELS[kind], a)
    n = a.shape[0]
    assert got.shape == (n,)
    want = squareform(pdist(a)) if kind == "dcov" else _dense(kind, a, a)
    np.fill_diagonal(want, 0.0)
    _check(kind, got, want.sum(axis=1), n - 1)


@fast
@given(kinds, feature_rows())
def test_pair_matrix_matches_dense(kind, a):
    got = _accel.pair_matrix(KERNELS[kind], a)
    want = _dense(kind, a, a)
    np.fill_diagonal(want, 0.0)
    assert np.all(np.diag(got) == 0.0)
    _check(kind, got, want, 1)


def test_first_order_kernels_have_no_pair_function():
    with pytest.raises(ValidationError, match="no pair function"):
        _accel.within_sum(kendall_kernel(), np.zeros((3, 1)))
