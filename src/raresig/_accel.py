"""Pairwise sums of the second-order kernels.

Both second-order kernels are the six-term kernel over one pair function
d(x, y): the Euclidean distance for ``rescaled_dcov`` and the angle
between augmented unit rows for ``rescaled_ipcov``.  Both read one block
of distances, :func:`_distances`: one GEMM from ``GEMM_MIN_P`` columns
of the mapped rows on, else ``cdist``.  ipcov's rows are its unit rows
at radius 1/2, whose distance is sin(theta/2), and it maps each distance
to theta/2 = arcsin(.), keeping relative accuracy near 0, and doubles sums.
``_pair_metric`` maps a kernel to its rows and that map; every O(n^2 p)
quantity is built from four primitives over the block: the within-block
total of d or of a map of d, the within totals of many subsets of one
pool, and per-row cross and within sums.  A cross total is
``math.fsum`` of the per-row cross sums, which the callers keep.  Each
pass maps its rows, each value once, and builds its right operand once,
then runs over blocks of about ``_BLOCK_BYTES`` of distances: memory is
O(block budget + mapped rows), and totals combine per-row or per-block
sums with ``math.fsum`` (reproducible).
"""

from __future__ import annotations

import math

import numpy as np

from .errors import ValidationError
from .kernels import KernelSpec

__all__ = ["within_sum", "pooled_pair_sums", "cross_rowsum", "centred_pair_moments",
           "angle_embed"]

_BLOCK_BYTES = 2 << 20  # a block: 512 x 512 distances, or 16 x 16,384
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
    if not 0 < c_sigma2 < math.inf:
        raise ValidationError("c_sigma2 must be positive and finite")
    x = np.atleast_2d(np.asarray(x, dtype=np.float64))
    aug = np.column_stack([x, np.full(x.shape[0], math.sqrt(c_sigma2))])
    return aug / np.linalg.norm(aug, axis=1, keepdims=True)


def _block_rows(n: int) -> int:
    """Rows of a block against ``n`` columns: about ``_BLOCK_BYTES`` of
    float64, at least one tile, whole tiles."""
    return max(_TILE, _BLOCK_BYTES // (8 * n) // _TILE * _TILE)


def _gemm(a: np.ndarray, op: np.ndarray) -> np.ndarray:
    """``a`` times the transpose of ``op`` over the last two axes (``op``
    tile-aligned rows of an :func:`_operand`, read in place), ``a`` padded
    by zero rows to full tiles: a partial tile sums in another order, and
    threads split a product along tiles.  The bits then hold at 1 and 2
    BLAS threads on the shapes tested."""
    m = a.shape[-2]
    pa = np.zeros(a.shape[:-2] + (m + -m % _TILE, a.shape[-1]))
    pa[..., :m, :] = a
    return pa @ np.swapaxes(op, -1, -2)


def _operand(b: np.ndarray) -> np.ndarray:
    """Rows ``[-2v, 1, |v|^2]`` of the mapped rows ``b`` (empty below
    ``GEMM_MIN_P``), and zero rows up to whole tiles, at least one: the
    right GEMM operand, built once a pass."""
    n, w = b.shape
    op = np.zeros((n + _TILE - n % _TILE, w // 2 + 1 if w >= GEMM_MIN_P else 0))
    if op.shape[1]:
        p = w // 2 - 1
        np.multiply(b[:, p : 2 * p], -2.0, out=op[:n, :p])
        op[:n, p:] = b[:, [2 * p + 1, 2 * p]]
    return op


def _dcov_rows(x: np.ndarray) -> np.ndarray:
    """The rows x below ``GEMM_MIN_P`` columns, else ``[x, u, |u|^2, 1]``
    with u = x centred at its mean, against an offset: the rows past x
    times the :func:`_operand` ``[-2v, 1, |v|^2]`` give ``|u - v|^2``."""
    x = np.ascontiguousarray(x, dtype=np.float64)
    if x.shape[1] < GEMM_MIN_P:
        return x
    u = x - x.mean(axis=0)
    sq = np.einsum("ij,ij->i", u, u)[:, None]
    return np.hstack([x, u, sq, np.ones_like(sq)])


def _distances(a: np.ndarray, b: np.ndarray, f=None,
               diag: int | None = None, op: np.ndarray | None = None) -> np.ndarray:
    """Distances between the rows of ``a`` and ``b`` (:func:`_dcov_rows`),
    mapped in place by ``f`` when given; row i of ``a`` is row ``diag + i``
    of ``b``, at distance 0, when ``diag`` is given; ``op`` is ``b``'s
    :func:`_operand`, or tile-aligned rows of a larger one.  A squared
    distance from the GEMM below ``_RECOMPUTE`` (|u|^2 + |v|^2) has lost
    digits to cancellation and is taken from ``cdist`` of the rows."""
    if a.shape[1] < GEMM_MIN_P:
        from scipy.spatial.distance import cdist
        d = cdist(a, b)
        return d if f is None else f(d)
    p = a.shape[1] // 2 - 1
    d = _gemm(a[:, p:], _operand(b) if op is None else op)[: len(a), : len(b)]
    if diag is not None:
        np.fill_diagonal(d[:, diag:], np.inf)
    if d.min() < _RECOMPUTE * (a[:, 2 * p].max() + b[:, 2 * p].max()):
        i, j = np.nonzero(d < _RECOMPUTE * (a[:, 2 * p, None] + b[:, 2 * p]))
        d[i, j] = _recompute(a, b, i, j, p)
    np.sqrt(d, out=d)
    if diag is not None:
        np.fill_diagonal(d[:, diag:], 0.0)
    return d if f is None else f(d)


def _recompute(a: np.ndarray, b: np.ndarray, i, j, p: int) -> np.ndarray:
    """|a_i - b_j|^2 for the index arrays ``i``, ``j``, from ``cdist`` over
    the rows concerned: O(block) memory."""
    from scipy.spatial.distance import cdist
    ri, ii = np.unique(i, return_inverse=True)
    rj, jj = np.unique(j, return_inverse=True)
    return cdist(a[ri, :p], b[rj, :p])[ii, jj] ** 2


def _upper_sums(u: np.ndarray, op: np.ndarray, idx: np.ndarray, f) -> np.ndarray:
    """Sums of d over the pairs of each subset ``idx`` (c, m) of the mapped
    rows ``u``, from one stacked :func:`_gemm` of rows of their operand
    ``op`` (zero row n pads); only each block's strict upper triangle is
    packed, screened as in :func:`_distances`, ``sqrt``-ed, mapped, summed."""
    (c, m), p = idx.shape, u.shape[1] // 2 - 1
    j = np.arange(m + -m % _TILE)
    pad = np.concatenate([idx, np.full((c, len(j) - m), len(u))], axis=1)
    full = _gemm(u[idx, p:], op[pad])
    upper = np.flatnonzero((j > np.arange(m)[:, None]) & (j < m))
    tri, sq = np.take(full.reshape(c, -1), upper, axis=1), u[idx, 2 * p]
    for i in np.flatnonzero(tri.min(axis=1, initial=np.inf) < _RECOMPUTE * 2 * sq.max(axis=1)):
        iu, ju = np.divmod(upper, len(j))
        k = np.flatnonzero(tri[i] < _RECOMPUTE * (sq[i, iu] + sq[i, ju]))
        tri[i, k] = _recompute(u[idx[i]], u[idx[i]], iu[k], ju[k], p)
    np.sqrt(tri, out=tri)
    return (tri if f is None else f(tri)).sum(axis=1)


def _half_angles(d: np.ndarray) -> np.ndarray:
    """arcsin(d) in place: half the angle between unit rows 2d apart (the
    clamp keeps a rounded-up d = 1 at pi / 2)."""
    np.minimum(d, 1.0, out=d)
    return np.arcsin(d, out=d)


def _twice(f, v):
    """``v``, a sum of entries mapped by ``f``, as a sum of d (bitwise)."""
    return v if f is None else 2.0 * v


def _pair_metric(kernel: KernelSpec):
    """``(rows, f)`` for a second-order kernel: d(a_i, b_j) is
    ``_distances(rows(a), rows(b), f)[i, j]``, times 2 for ipcov, whose
    unit rows at radius 1/2 are sin(theta/2) apart and f maps to theta/2."""
    if kernel.kind == "rescaled_dcov":
        return _dcov_rows, None
    if kernel.kind == "rescaled_ipcov":
        c = kernel.params["c_sigma2"]
        return (lambda x: _dcov_rows(angle_embed(x, c) / 2.0)), _half_angles
    raise ValidationError(f"{kernel.kind} has no pair function")


def cross_rowsum(kernel: KernelSpec, a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Per-row-of-``a`` sums of d to every row of ``b`` (mapped as one
    pool: one centre for dcov)."""
    rows, f = _pair_metric(kernel)
    u = rows(np.concatenate([a, b]))
    a, b = u[: len(a)], u[len(a) :]
    op, step = _operand(b), _block_rows(len(b))
    out = np.empty(a.shape[0])
    for lo in range(0, a.shape[0], step):
        out[lo : lo + step] = _distances(a[lo : lo + step], b, f, op=op).sum(axis=1)
    return _twice(f, out)


def _within_total(a: np.ndarray, f) -> float:
    """Sum of d over unordered pairs of the mapped rows ``a``: the pairs
    within each block of rows (``pdist``, or :func:`_upper_sums`) plus
    the whole block from those rows to later rows."""
    n, w = a.shape
    op, step = _operand(a), _block_rows(n)
    parts = []
    for lo in range(0, n, step):
        hi = min(lo + step, n)
        if w < GEMM_MIN_P:
            from scipy.spatial.distance import pdist
            d = pdist(a[lo:hi])
            parts.append(float((d if f is None else f(d)).sum()))
        else:
            parts.append(float(_upper_sums(a, op, np.arange(lo, hi)[None], f)[0]))
        if hi < n:
            parts.append(float(_distances(a[lo:hi], a[hi:], f, op=op[hi:]).sum()))
    return _twice(f, math.fsum(parts))


def within_sum(kernel: KernelSpec, a: np.ndarray) -> float:
    """Sum of d over unordered row pairs of ``a``."""
    rows, f = _pair_metric(kernel)
    return _within_total(rows(a), f)


def pooled_pair_sums(kernel: KernelSpec, x: np.ndarray):
    """:func:`_within_rowsum` and :func:`_subset_sums` of the rows of
    ``x``, mapped once for both (one centre for dcov)."""
    rows, f = _pair_metric(kernel)
    u = rows(x)
    return _within_rowsum(u, f), _subset_sums(u, f)


def _subset_sums(u: np.ndarray, f):
    """``idx -> sums``: for a (c, m) array of positions in the mapped rows
    ``u``, each row's subset total, bitwise that of its rows: while m rows
    are one block, :func:`_upper_sums` of about ``_BLOCK_BYTES`` of
    products and operands a batch, else :func:`_within_total`."""
    w, p, op = u.shape[1], u.shape[1] // 2 - 1, _operand(u)

    def sums(idx: np.ndarray) -> np.ndarray:
        c, m = idx.shape
        if w < GEMM_MIN_P or _block_rows(m) < m:
            return np.array([_within_total(u[i], f) for i in idx])
        size = m + -m % _TILE
        step = max(1, _BLOCK_BYTES // (8 * size * (size + 2 * p + 4)))
        return _twice(f, np.concatenate([_upper_sums(u, op, idx[lo : lo + step], f)
                                         for lo in range(0, c, step)]))

    return sums


def _within_rowsum(a: np.ndarray, f) -> np.ndarray:
    """Per-row sums of d to the other mapped rows of ``a``, over the blocks
    of :func:`within_sum`: each diagonal block with its diagonal zeroed,
    and each block-to-later-rows block added to the rows on both sides."""
    n = a.shape[0]
    op, step = _operand(a), _block_rows(n)
    out = np.zeros(n)
    for lo in range(0, n, step):
        hi = min(lo + step, n)
        out[lo:hi] += _distances(a[lo:hi], a[lo:hi], f, 0, op[lo : lo + step]).sum(axis=1)
        if hi < n:
            d = _distances(a[lo:hi], a[hi:], f, op=op[hi:])
            out[lo:hi] += d.sum(axis=1)
            out[hi:] += d.sum(axis=0)
            del d  # before the next blocks: one block of distances live
    return _twice(f, out)


def centred_pair_moments(kernel: KernelSpec, a: np.ndarray):
    """``(r, q)`` for d centred at its mean c over the unordered row pairs
    of ``a``: r holds each row's sum of d - c to the other rows, and q is
    the sum of (d - c)^2 over the pairs, from :func:`_within_rowsum` and
    :func:`_within_total` of the rows mapped once."""
    rows, f = _pair_metric(kernel)
    u, n = rows(a), a.shape[0]
    r = _within_rowsum(u, f)
    c = math.fsum(r) / (n * (n - 1)) if n > 1 else 0.0

    def squares(d):
        if f is not None:
            d = np.multiply(f(d), 2.0, out=d)  # whole angles
        d -= c
        return np.square(d, out=d)

    # _twice doubles the sum of any map
    return r - (n - 1) * c, _within_total(u, squares) / 2.0
