"""Differential tests: the blocked pairwise primitives against dense references.

The references are independent of the blocked code: ``scipy``'s
``pdist``/``cdist`` for the distance kernel, and ``2 arcsin(cdist / 2)``
on ``angle_embed`` rows for the angular kernel.  Inputs cover one block
and several (a block is 512 rows up to n = 512, 496 at 513, 240 at
1,025), ties, duplicate rows, constant columns and 1e8 offsets, at
feature counts on both sides of ``GEMM_MIN_P``, where the distance block
turns into one GEMM.
"""

import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

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

fast = settings(max_examples=25)


@st.composite
def feature_rows(draw, p=None):
    n = draw(st.sampled_from(SIZES))
    if p is None:
        p = draw(st.one_of(st.integers(1, 8), st.just(64)))
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
    return 2.0 * np.arcsin(cdist(u, v) / 2.0)


def _within_ref(kind, a):
    if kind == "dcov":
        return pdist(a)
    return _dense(kind, a, a)[np.triu_indices(a.shape[0], k=1)]


kinds = st.sampled_from(sorted(KERNELS))


@fast
@given(kinds, row_pairs())
def test_cross_rowsum_matches_dense(kind, ab):
    a, b = ab
    got = _accel.cross_rowsum(KERNELS[kind], a, b)
    assert got.shape == (a.shape[0],)
    assert_allclose(got, _dense(kind, a, b).sum(axis=1), rtol=1e-12)


@fast
@given(kinds, feature_rows())
def test_within_sum_matches_dense(kind, a):
    got = _accel.within_sum(KERNELS[kind], a)
    assert_allclose(got, _within_ref(kind, a).sum(), rtol=1e-12)


@fast
@given(kinds, feature_rows())
def test_within_rowsum_matches_dense(kind, a):
    got = _accel.pooled_pair_sums(KERNELS[kind], a)[0]
    n = a.shape[0]
    assert got.shape == (n,)
    want = squareform(pdist(a)) if kind == "dcov" else _dense(kind, a, a)
    np.fill_diagonal(want, 0.0)
    assert_allclose(got, want.sum(axis=1), rtol=1e-12)


@fast
@given(kinds, feature_rows())
def test_pair_matrix_matches_dense(kind, a):
    got = _accel.pair_matrix(KERNELS[kind], a)
    want = _dense(kind, a, a)
    np.fill_diagonal(want, 0.0)
    assert np.all(np.diag(got) == 0.0)
    assert_allclose(got, want, rtol=1e-12)


@st.composite
def subset_draws(draw):
    """Rows as in ``feature_rows`` with a (c, m) array of subsets of them,
    distinct positions within each subset; m reaches past one block (512
    rows), and 3, 16 and 17 sit on both sides of a tile.  Optionally each
    subset's first two rows are equal, so that the packed triangle
    recomputes an entry."""
    x = draw(feature_rows())
    n = x.shape[0]
    m = draw(st.sampled_from(sorted({min(n, v) for v in (1, 2, 3, 7, 16, 17, 50, 513)})))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    c = draw(st.sampled_from((1, 3, 64)))
    idx = np.array([np.sort(rng.permutation(n)[:m]) for _ in range(c)])
    if m > 1 and draw(st.booleans()):
        x[idx[:, 1]] = x[idx[:, 0]]  # duplicate rows
    return x, idx


@fast
@given(kinds, subset_draws())
def test_subset_sums_match_dense(kind, xi):
    x, idx = xi
    got = _accel.pooled_pair_sums(KERNELS[kind], x)[1](idx)
    assert got.shape == (idx.shape[0],)
    want = [_within_ref(kind, x[i]).sum() for i in idx]
    assert_allclose(got, want, rtol=1e-12)


@pytest.mark.parametrize("kind", sorted(KERNELS))
@pytest.mark.parametrize("p", [3, _accel.GEMM_MIN_P, 50])
def test_subset_sums_equal_per_subset_sums_bitwise(monkeypatch, kind, p):
    # the stacked blocks give each subset the bits of its own block: 39
    # duplicate rows make the screen recompute entries, and a 1e6 offset
    # puts the distances far below the rows' norms
    rng = np.random.default_rng(p)
    x = rng.standard_normal((700, p))
    x[:39] = x[39:78]
    x[:, 0] += 1e6
    idx = np.array([np.sort(rng.permutation(700)[:50]) for _ in range(130)])
    # the duplicate pair 0, 39 in the first ten subsets
    idx[:10] = [np.sort(np.r_[0, 39, rng.permutation(np.arange(40, 700))[:48]])
                for _ in range(10)]
    screened = []
    recompute = _accel._recompute
    monkeypatch.setattr(_accel, "_recompute",
                        lambda d, *a: screened.append(1) or recompute(d, *a))
    rows, f = _accel._pair_metric(KERNELS[kind])
    u = rows(x)
    want = [_accel._within_total(u[i], f) for i in idx]
    sums = _accel.pooled_pair_sums(KERNELS[kind], x)[1]
    before = len(screened)
    assert np.array_equal(np.concatenate([sums(idx[:64]), sums(idx[64:]), sums(idx[:1])]),
                          np.r_[want, want[:1]])
    assert (len(screened) > before) == (p >= _accel.GEMM_MIN_P)


@pytest.mark.parametrize("p", [_accel.GEMM_MIN_P, 64])
def test_gemm_block_recomputes_cancelling_distances(p):
    # two rows 1e-6 apart at norm ~1e3 and an exact duplicate: the GEMM
    # expansion of those entries is all cancellation, so they must come
    # from the rows themselves
    rng = np.random.default_rng(p)
    x = rng.standard_normal((40, p))
    x[0] *= 1e3 / np.linalg.norm(x[0])
    x[1] = x[0] + 1e-6 * rng.standard_normal(p) / np.sqrt(p)
    x[2] = x[1]
    want = cdist(x, x)
    got = _accel.pair_matrix(KERNELS["dcov"], x)
    assert got[1, 2] == 0.0 and np.all(np.diag(got) == 0.0)
    assert_allclose(got, want, rtol=1e-12, atol=0.0)
    assert_allclose(_accel.pooled_pair_sums(KERNELS["dcov"], x)[0], want.sum(axis=1),
                    rtol=1e-12)


@pytest.mark.parametrize("kind", sorted(KERNELS))
def test_pooled_pair_sums_hold_one_block_at_a_time(kind):
    # a block's distances to later rows are freed before the next block's
    # are built, so the peak stays near the 1.25 MB of mapped rows plus
    # one block of about _BLOCK_BYTES (80 rows x 3,000)
    x = np.random.default_rng(19).standard_normal((3000, 16))
    tracemalloc.start()
    try:
        _accel.pooled_pair_sums(KERNELS[kind], x)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2 * _accel._BLOCK_BYTES


@pytest.mark.parametrize("kind", sorted(KERNELS))
def test_pooled_pair_sums_hold_each_mapped_value_once(kind):
    # a mapped row is [x, u, |u|^2, 1] and the right operand is built from
    # it: 16 MB of rows and 8 MB of operand for 8 MB of input (3.44x for
    # dcov, 4.16x for ipcov, which maps its unit rows first)
    x = np.random.default_rng(20).standard_normal((20_000, 50))
    tracemalloc.start()
    try:
        _accel.pooled_pair_sums(KERNELS[kind], x)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 4.5 * x.nbytes


# every primitive of both kernels on sizes that are not multiples of a
# BLAS tile, with a 1e8 offset so that ipcov angles show last-bit changes;
# the Monte Carlo pool (1,050 x 50) and its replication's generator.  Not
# every shape holds: at n = 800, p = 500 the pooled row sums, and at
# n = 3,000, p = 200 generate, differ in their last bits at 1 and 2 threads
_THREADS_SCRIPT = """
import hashlib, numpy as np
from raresig import _accel, simulate
from raresig.kernels import dcov_kernel, ipcov_kernel
h = hashlib.sha1()
spec = simulate.ScenarioSpec("second_order_eg1", n=10_000, n1=50, p=50)
h.update(simulate.generate(spec, 1).features.tobytes())
for n, p in ((1537, 20), (700, 50), (83, 300), (1050, 50)):
    x = np.random.default_rng(n).standard_normal((n, p))
    x[:, 0] += 1e8
    for k in (dcov_kernel(), ipcov_kernel()):
        idx = np.random.default_rng(p).random((70, n)).argsort(axis=1)[:, :60]
        idx.sort(axis=1)
        r, sums = _accel.pooled_pair_sums(k, x)
        for v in (r, _accel.cross_rowsum(k, x[:37], x),
                  _accel.pair_matrix(k, x[:600]), _accel.within_sum(k, x), sums(idx)):
            h.update(np.asarray(v).tobytes())
print(h.hexdigest())
"""


def test_blocks_are_bitwise_equal_at_any_blas_thread_count():
    # threads split a GEMM along its tiles; the padded operands keep every
    # entry in a full tile, so on these shapes the sums do not depend on
    # the thread count
    src = str(Path(_accel.__file__).resolve().parents[1])
    digests = set()
    for threads in ("1", "2"):
        env = dict(os.environ, OPENBLAS_NUM_THREADS=threads, PYTHONPATH=src)
        out = subprocess.run([sys.executable, "-c", _THREADS_SCRIPT], env=env,
                             capture_output=True, text=True, timeout=300, check=True)
        digests.add(out.stdout)
    assert len(digests) == 1


def test_first_order_kernels_have_no_pair_function():
    with pytest.raises(ValidationError, match="no pair function"):
        _accel.within_sum(kendall_kernel(), np.zeros((3, 1)))
