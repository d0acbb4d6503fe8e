"""Pairwise sums of the second-order kernels.

Both second-order kernels are the six-term kernel over one pair function
d(x, y): the Euclidean distance for ``rescaled_dcov`` and the angle
between augmented unit rows for ``rescaled_ipcov``.  Both read one block
of distances, :func:`_distances`: one GEMM from ``GEMM_MIN_P`` columns
of the mapped rows on, else ``cdist``.  ipcov's rows are its unit rows
at radius 1/2, whose distance is sin(theta/2), and it maps each distance
to theta = 2 arcsin(.), which keeps relative accuracy near 0.
``_pair_metric`` maps a kernel to its rows and that map; every O(n^2 p)
quantity is built from five primitives over the block: the within-block
total, the within totals of many subsets of one pool, per-row cross and
within sums, and the dense within matrix.  A cross total is
``math.fsum`` of the per-row cross sums, which the callers keep.  Each
runs over blocks of at most ``_CHUNK`` rows, so memory is
O(chunk * n) outside the dense matrix, and the totals combine
per-row or per-block sums with ``math.fsum``, so results are
reproducible run to run.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import ValidationError
from .kernels import KernelSpec

__all__ = [
    "within_sum",
    "subset_sums",
    "cross_rowsum",
    "within_rowsum",
    "pair_matrix",
    "angle_embed",
]

_CHUNK = 512
# blocks are one GEMM from 8 columns on (dcov, 512 x 2,050 block: cdist
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
    """Rows mapped to the unit vectors ``[x, sqrt(c)] / |[x, sqrt(c)]|``,
    whose angle is the angular affinity
    ``acos((c + x.y) / sqrt((c + x.x)(c + y.y)))``; at distance r apart
    that angle is 2 arcsin(r / 2)."""
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
    """The rows x below ``GEMM_MIN_P`` columns, else ``[x, u, |u|^2, 1,
    -2u, 1, |u|^2]`` with u = x centred at its mean, against an offset:
    ``[u, |u|^2, 1] . [-2v, 1, |v|^2] = |u - v|^2``."""
    x = np.ascontiguousarray(x, dtype=np.float64)
    if x.shape[1] < GEMM_MIN_P:
        return x
    u = x - x.mean(axis=0)
    sq = np.einsum("ij,ij->i", u, u)[:, None]
    one = np.ones_like(sq)
    return np.hstack([x, u, sq, one, -2.0 * u, one, sq])


def _distances(a: np.ndarray, b: np.ndarray, f=None,
               diag: int | None = None) -> np.ndarray:
    """Distances between the rows of ``a`` and ``b`` (:func:`_dcov_rows`),
    mapped in place by ``f`` when given; row i of ``a`` is row
    ``diag + i`` of ``b``, at distance 0, when ``diag`` is given.  A
    squared distance from the GEMM below ``_RECOMPUTE`` (|u|^2 + |v|^2)
    has lost digits to cancellation and is taken from ``cdist`` of the
    rows; the rest are good to ~1e-13."""
    if a.shape[1] < GEMM_MIN_P:
        from scipy.spatial.distance import cdist
        d = cdist(a, b)
        return d if f is None else f(d)
    p = (a.shape[1] - 4) // 3
    d = _gemm(a[:, p : 2 * p + 2], b[:, 2 * p + 2 :])
    if diag is not None:
        np.fill_diagonal(d[:, diag:], np.inf)
    if d.min() < _RECOMPUTE * (a[:, 2 * p].max() + b[:, 2 * p].max()):
        _recompute(d, a, b, p)
    np.sqrt(d, out=d)
    if diag is not None:
        np.fill_diagonal(d[:, diag:], 0.0)
    return d if f is None else f(d)


def _recompute(d: np.ndarray, a: np.ndarray, b: np.ndarray, p: int) -> None:
    """Squared distances of ``d`` below ``_RECOMPUTE`` (|u|^2 + |v|^2) from
    ``cdist`` over the rows and columns concerned: O(block) memory."""
    from scipy.spatial.distance import cdist
    i, j = np.nonzero(d < _RECOMPUTE * (a[:, 2 * p, None] + b[:, 2 * p]))
    ri, ii = np.unique(i, return_inverse=True)
    rj, jj = np.unique(j, return_inverse=True)
    d[i, j] = cdist(a[ri, :p], b[rj, :p])[ii, jj] ** 2


def _half_angles(d: np.ndarray) -> np.ndarray:
    """2 arcsin(d) in place: the angle between unit rows 2d apart (the
    clamp keeps a rounded-up d = 1 at pi)."""
    np.minimum(d, 1.0, out=d)
    np.arcsin(d, out=d)
    d *= 2.0
    return d


def _pair_metric(kernel: KernelSpec):
    """``(rows, f)`` for a second-order kernel: the pair function
    d(a_i, b_j) is ``_distances(rows(a), rows(b), f)[i, j]``; ipcov's
    rows are its unit rows at radius 1/2, so a distance is sin(theta/2)."""
    if kernel.kind == "rescaled_dcov":
        return _dcov_rows, None
    if kernel.kind == "rescaled_ipcov":
        c = kernel.params.get("c_sigma2", 1.0)
        return (lambda x: _dcov_rows(angle_embed(x, c) / 2.0)), _half_angles
    raise ValidationError(f"{kernel.kind} has no pair function")


def cross_rowsum(kernel: KernelSpec, a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Per-row-of-``a`` sums of d to every row of ``b`` (mapped as one
    pool: one centre for dcov)."""
    rows, f = _pair_metric(kernel)
    u = rows(np.concatenate([a, b]))
    a, b = u[: len(a)], u[len(a) :]
    out = np.empty(a.shape[0])
    for lo in range(0, a.shape[0], _CHUNK):
        out[lo : lo + _CHUNK] = _distances(a[lo : lo + _CHUNK], b, f).sum(axis=1)
    return out


def _within_total(a: np.ndarray, f) -> float:
    """Sum of d over unordered pairs of the mapped rows ``a``: the pairs
    within each chunk (``pdist``, or half its block) plus the whole block
    from the chunk to later rows."""
    n = a.shape[0]
    parts = []
    for lo in range(0, n, _CHUNK):
        hi = min(lo + _CHUNK, n)
        if a.shape[1] < GEMM_MIN_P:
            from scipy.spatial.distance import pdist
            d = pdist(a[lo:hi])
            parts.append(float((d if f is None else f(d)).sum()))
        else:
            parts.append(float(_distances(a[lo:hi], a[lo:hi], f, 0).sum()) / 2.0)
        if hi < n:
            parts.append(float(_distances(a[lo:hi], a[hi:], f).sum()))
    return math.fsum(parts)


def within_sum(kernel: KernelSpec, a: np.ndarray) -> float:
    """Sum of d over unordered row pairs of ``a``."""
    rows, f = _pair_metric(kernel)
    return _within_total(rows(a), f)


def subset_sums(kernel: KernelSpec, x: np.ndarray):
    """``idx -> sums``: for a (c, m) array of positions in ``x``, the
    within total of each row's subset, bitwise that of its rows with
    ``x`` mapped once (one centre for dcov).  From ``GEMM_MIN_P`` columns
    on and up to ``_CHUNK`` rows, the blocks are one stacked GEMM, at
    most ``_CHUNK * n`` entries a batch, each the padded :func:`_gemm` of
    :func:`_distances` (a gathered zero row pads it) with its screen,
    ``sqrt``, map and sum; other subsets take :func:`_within_total`."""
    rows, f = _pair_metric(kernel)
    u = rows(x)
    n, w = u.shape
    p = (w - 4) // 3
    if w >= GEMM_MIN_P:
        left, right = (np.vstack([u[:, cols], np.zeros(p + 2)])
                       for cols in (slice(p, 2 * p + 2), slice(2 * p + 2, None)))

    def batch(idx: np.ndarray, pad: np.ndarray) -> np.ndarray:
        m = idx.shape[1]
        a = np.take(left, pad, axis=0)
        b = np.take(right, pad, axis=0).transpose(0, 2, 1)
        full = a @ np.ascontiguousarray(b)  # contiguous: faster
        d = full[:, :m, :m]
        diag = np.arange(m)
        d[:, diag, diag] = np.inf
        top = a[:, :m, p].max(axis=1)
        for i in np.flatnonzero(d.min(axis=(1, 2)) < _RECOMPUTE * (top + top)):
            _recompute(d[i], u[idx[i]], u[idx[i]], p)
        np.sqrt(full, out=full)
        d[:, diag, diag] = 0.0
        if f is not None:
            f(full)
        return d.sum(axis=(1, 2)) / 2.0

    def sums(idx: np.ndarray) -> np.ndarray:
        c, m = idx.shape
        if w < GEMM_MIN_P or m > _CHUNK:
            return np.array([_within_total(u[i], f) for i in idx])
        size = m + -m % _TILE
        pad = np.full((c, size), n)
        pad[:, :m] = idx
        # blocks a batch: at most _CHUNK * n entries of products and operands
        step = max(1, _CHUNK * n // (size * (size + 2 * p + 4)))
        return np.concatenate([batch(idx[lo : lo + step], pad[lo : lo + step])
                               for lo in range(0, c, step)])

    return sums


def within_rowsum(kernel: KernelSpec, a: np.ndarray) -> np.ndarray:
    """Per-row sums of d to the other rows of ``a`` (no self terms), over
    the same blocks as :func:`within_sum`: each diagonal chunk with its
    diagonal zeroed, and each chunk-to-later-rows block added to the
    rows on both of its sides."""
    rows, f = _pair_metric(kernel)
    a = rows(a)
    n = a.shape[0]
    out = np.zeros(n)
    for lo in range(0, n, _CHUNK):
        hi = min(lo + _CHUNK, n)
        out[lo:hi] += _distances(a[lo:hi], a[lo:hi], f, 0).sum(axis=1)
        if hi < n:
            d = _distances(a[lo:hi], a[hi:], f)
            out[lo:hi] += d.sum(axis=1)
            out[hi:] += d.sum(axis=0)
    return out


def pair_matrix(kernel: KernelSpec, a: np.ndarray) -> np.ndarray:
    """Dense n x n matrix of d within ``a``, diagonal zeroed."""
    rows, f = _pair_metric(kernel)
    a = rows(a)
    return _distances(a, a, f, 0)
