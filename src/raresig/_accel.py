"""Pairwise sums of the second-order kernels.

Both second-order kernels are the six-term kernel over one pair function
d(x, y): the Euclidean distance for ``rescaled_dcov`` and the angle
between augmented unit rows for ``rescaled_ipcov``.  ``_pair_metric`` is
the one place that maps a kernel to its pair function and its block of
d, one GEMM from ``GEMM_MIN_P`` features on for dcov and always for
ipcov; every O(n^2 p) quantity is built from four primitives over it:
the within-block total, per-row cross and within sums, and the dense
within matrix.  A cross total is ``math.fsum`` of the per-row cross
sums, which the callers keep.  Each runs over blocks of at most
``_CHUNK`` rows, so memory is O(chunk * n) outside the dense matrix,
and the totals combine per-row or per-block sums with ``math.fsum``, so
results are reproducible run to run.
"""

from __future__ import annotations

import math

import numpy as np
from scipy.spatial.distance import cdist, pdist

from .errors import ValidationError
from .kernels import KernelSpec

__all__ = [
    "pair_rows",
    "within_sum",
    "cross_rowsum",
    "within_rowsum",
    "pair_matrix",
    "angle_embed",
]

_CHUNK = 512
# dcov blocks are one GEMM from 8 features on (512 x 2,050 block: cdist
# 2.2 ms against 9 at p = 5, 3.4 against 2.2 at p = 8, 19 against 2.9 at 50)
GEMM_MIN_P = 8
_TILE = 16  # see _gemm
_RECOMPUTE = 1e-3  # see _distances


def active_backend() -> str:
    """``"numpy"``, the one pairwise-sum implementation.  Nothing in the
    package calls it; ``perfbench/run.py`` records it in its machine
    facts."""
    return "numpy"


def angle_embed(x: np.ndarray, c_sigma2: float) -> np.ndarray:
    """Rows mapped to unit vectors whose dot products encode the angular
    affinity: ``acos(<embed(x), embed(y)>)`` equals
    ``acos((c + x.y) / sqrt((c + x.x)(c + y.y)))``."""
    if c_sigma2 <= 0:
        raise ValidationError("c_sigma2 must be positive")
    x = np.atleast_2d(np.asarray(x, dtype=np.float64))
    aug = np.column_stack([x, np.full(x.shape[0], math.sqrt(c_sigma2))])
    return aug / np.linalg.norm(aug, axis=1, keepdims=True)


def _gemm(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """``a @ b.T``, the same to the bit at any BLAS thread count: threads
    split a product along the kernel's tiles, and a partial tile sums in
    another order, so the operands get zero rows up to full tiles."""
    m, n = len(a), len(b)
    pa = np.zeros((m + -m % _TILE, a.shape[1]))
    pb = np.zeros((b.shape[1], n + -n % _TILE))  # b.T, contiguous: faster
    pa[:m], pb[:, :n] = a, b.T
    return (pa @ pb)[:m, :n]


def _dcov_rows(x: np.ndarray) -> np.ndarray:
    """The rows x below ``GEMM_MIN_P`` features, else ``[x, u, |u|^2, 1,
    -2u, 1, |u|^2]`` with u = x centred at its mean, against an offset:
    ``[u, |u|^2, 1] . [-2v, 1, |v|^2] = |u - v|^2``."""
    x = np.ascontiguousarray(x, dtype=np.float64)
    if x.shape[1] < GEMM_MIN_P:
        return x
    u = x - x.mean(axis=0)
    sq = np.einsum("ij,ij->i", u, u)[:, None]
    one = np.ones_like(sq)
    return np.hstack([x, u, sq, one, -2.0 * u, one, sq])


def _distances(a: np.ndarray, b: np.ndarray, diag: int | None = None) -> np.ndarray:
    """Distances between the rows of ``a`` and ``b`` (:func:`_dcov_rows`);
    row i of ``a`` is row ``diag + i`` of ``b``, at distance 0, when
    ``diag`` is given.  A squared distance from the GEMM below
    ``_RECOMPUTE`` (|u|^2 + |v|^2) has lost digits to cancellation and
    is taken from ``cdist`` of the rows; the rest are good to ~1e-13."""
    if a.shape[1] < GEMM_MIN_P:
        return cdist(a, b)
    p = (a.shape[1] - 4) // 3
    d = _gemm(a[:, p : 2 * p + 2], b[:, 2 * p + 2 :])
    if diag is not None:
        np.fill_diagonal(d[:, diag:], np.inf)
    sa, sb = a[:, 2 * p], b[:, 2 * p]
    if d.min() < _RECOMPUTE * (sa.max() + sb.max()):
        i, j = np.nonzero(d < _RECOMPUTE * (sa[:, None] + sb))
        # over the rows and columns concerned only: O(block) memory
        ri, ii = np.unique(i, return_inverse=True)
        rj, jj = np.unique(j, return_inverse=True)
        d[i, j] = cdist(a[ri, :p], b[rj, :p])[ii, jj] ** 2
    np.sqrt(d, out=d)
    if diag is not None:
        np.fill_diagonal(d[:, diag:], 0.0)
    return d


def _angles(u: np.ndarray, v: np.ndarray, diag: int | None = None) -> np.ndarray:
    g = _gemm(u, v)
    np.clip(g, -1.0, 1.0, out=g)
    np.arccos(g, out=g)
    if diag is not None:
        np.fill_diagonal(g[:, diag:], 0.0)
    return g


def _dist_within(a: np.ndarray) -> float:
    if a.shape[1] < GEMM_MIN_P:
        return float(pdist(a).sum())
    return float(_distances(a, a, 0).sum()) / 2.0


def _pair_metric(kernel: KernelSpec):
    """``(rows, block, within)`` for a second-order kernel:
    ``block(rows(a), rows(b), diag=None)[i, j]`` is the pair function
    d(a_i, b_j) (``diag`` as in :func:`_distances`), and
    ``within(rows(a))`` its sum over the unordered pairs of ``a``."""
    if kernel.kind == "rescaled_dcov":
        return _dcov_rows, _distances, _dist_within
    if kernel.kind == "rescaled_ipcov":
        c = kernel.params.get("c_sigma2", 1.0)
        return ((lambda x: angle_embed(x, c)), _angles,
                lambda u: float(_angles(u, u, 0).sum()) / 2.0)
    raise ValidationError(f"{kernel.kind} has no pair function")


def pair_rows(kernel: KernelSpec, a: np.ndarray) -> np.ndarray:
    """``a`` mapped to the rows the pair function reads (see
    :func:`_dcov_rows`; the augmented unit rows for ipcov): map a pool
    once, then sum over subsets with ``within_sum(..., mapped=True)``."""
    return _pair_metric(kernel)[0](a)


def cross_rowsum(kernel: KernelSpec, a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Per-row-of-``a`` sums of d to every row of ``b`` (mapped as one
    pool: one centre for dcov)."""
    rows, block, _ = _pair_metric(kernel)
    u = rows(np.concatenate([a, b]))
    a, b = u[: len(a)], u[len(a) :]
    out = np.empty(a.shape[0])
    for lo in range(0, a.shape[0], _CHUNK):
        out[lo : lo + _CHUNK] = block(a[lo : lo + _CHUNK], b).sum(axis=1)
    return out


def within_sum(kernel: KernelSpec, a: np.ndarray, mapped: bool = False) -> float:
    """Sum of d over unordered row pairs of ``a`` (rows of
    :func:`pair_rows` when ``mapped``): the pairs within each chunk plus
    the whole block from the chunk to later rows."""
    rows, block, within = _pair_metric(kernel)
    if not mapped:
        a = rows(a)
    n = a.shape[0]
    parts = []
    for lo in range(0, n, _CHUNK):
        hi = min(lo + _CHUNK, n)
        parts.append(within(a[lo:hi]))
        if hi < n:
            parts.append(float(block(a[lo:hi], a[hi:]).sum()))
    return math.fsum(parts)


def within_rowsum(kernel: KernelSpec, a: np.ndarray) -> np.ndarray:
    """Per-row sums of d to the other rows of ``a`` (no self terms), over
    the same blocks as :func:`within_sum`: each diagonal chunk with its
    diagonal zeroed, and each chunk-to-later-rows block added to the
    rows on both of its sides."""
    rows, block, _ = _pair_metric(kernel)
    a = rows(a)
    n = a.shape[0]
    out = np.zeros(n)
    for lo in range(0, n, _CHUNK):
        hi = min(lo + _CHUNK, n)
        out[lo:hi] += block(a[lo:hi], a[lo:hi], 0).sum(axis=1)
        if hi < n:
            d = block(a[lo:hi], a[hi:])
            out[lo:hi] += d.sum(axis=1)
            out[hi:] += d.sum(axis=0)
    return out


def pair_matrix(kernel: KernelSpec, a: np.ndarray) -> np.ndarray:
    """Dense n x n matrix of d within ``a``, diagonal zeroed."""
    rows, block, _ = _pair_metric(kernel)
    a = rows(a)
    return block(a, a, 0)
