"""Pairwise sums of the second-order kernels.

Both second-order kernels are the six-term kernel over one pair function
d(x, y): the Euclidean distance for ``rescaled_dcov`` and the angle
between augmented unit rows for ``rescaled_ipcov``.  ``_pair_metric`` is
the one place that maps a kernel to its pair function; every O(n^2 p)
quantity is built from four primitives over it: the within-block total,
per-row cross and within sums, and the dense within matrix.  A cross
total is ``math.fsum`` of the per-row cross sums, which the callers
keep.  Each runs over blocks of at most ``_CHUNK`` rows, so memory is
O(chunk * n) outside the dense matrix, and the totals combine per-row
or per-block sums with ``math.fsum``, so results are reproducible run
to run.
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


def active_backend() -> str:
    """``"numpy"``, the one pairwise-sum implementation.  Nothing in the
    package calls it; ``perfbench/run.py`` records it in its machine
    facts."""
    return "numpy"


def _c(a: np.ndarray) -> np.ndarray:
    return np.ascontiguousarray(a, dtype=np.float64)


def angle_embed(x: np.ndarray, c_sigma2: float) -> np.ndarray:
    """Rows mapped to unit vectors whose dot products encode the angular
    affinity: ``acos(<embed(x), embed(y)>)`` equals
    ``acos((c + x.y) / sqrt((c + x.x)(c + y.y)))``."""
    if c_sigma2 <= 0:
        raise ValidationError("c_sigma2 must be positive")
    x = np.atleast_2d(_c(x))
    aug = np.column_stack([x, np.full(x.shape[0], math.sqrt(c_sigma2))])
    return aug / np.linalg.norm(aug, axis=1, keepdims=True)


def _angles(u: np.ndarray, v: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    g = np.matmul(u, v.T, out=out)
    np.clip(g, -1.0, 1.0, out=g)
    return np.arccos(g, out=g)


def _pair_metric(kernel: KernelSpec):
    """``(rows, block, upper)`` for a second-order kernel:
    ``block(rows(a), rows(b), out=None)[i, j]`` is the pair function
    d(a_i, b_j), and ``upper(rows(a)).sum()`` is the sum of d over the
    unordered pairs of ``a`` (``pdist`` computes only those pairs, half
    the work of a square block and no triangle mask)."""
    if kernel.kind == "rescaled_dcov":
        return _c, cdist, pdist
    if kernel.kind == "rescaled_ipcov":
        c = kernel.params.get("c_sigma2", 1.0)
        return (lambda x: angle_embed(x, c)), _angles, lambda u: np.triu(_angles(u, u), 1)
    raise ValidationError(f"{kernel.kind} has no pair function")


def pair_rows(kernel: KernelSpec, a: np.ndarray) -> np.ndarray:
    """``a`` mapped to the rows the pair function reads (the augmented
    unit rows for ipcov): map a pool once, then sum over subsets of it
    with ``within_sum(..., mapped=True)``."""
    return _pair_metric(kernel)[0](a)


def cross_rowsum(kernel: KernelSpec, a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Per-row-of-``a`` sums of d to every row of ``b``."""
    rows, block, _ = _pair_metric(kernel)
    a, b = rows(a), rows(b)
    out = np.empty(a.shape[0])
    for lo in range(0, a.shape[0], _CHUNK):
        out[lo : lo + _CHUNK] = block(a[lo : lo + _CHUNK], b).sum(axis=1)
    return out


def within_sum(kernel: KernelSpec, a: np.ndarray, mapped: bool = False) -> float:
    """Sum of d over unordered row pairs of ``a`` (rows of
    :func:`pair_rows` when ``mapped``): the pairs within each chunk plus
    the whole block from the chunk to later rows."""
    rows, block, upper = _pair_metric(kernel)
    if not mapped:
        a = rows(a)
    n = a.shape[0]
    parts = []
    for lo in range(0, n, _CHUNK):
        hi = min(lo + _CHUNK, n)
        parts.append(float(upper(a[lo:hi]).sum()))
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
        d = block(a[lo:hi], a[lo:hi])
        np.fill_diagonal(d, 0.0)
        out[lo:hi] += d.sum(axis=1)
        if hi < n:
            d = block(a[lo:hi], a[hi:])
            out[lo:hi] += d.sum(axis=1)
            out[hi:] += d.sum(axis=0)
    return out


def pair_matrix(kernel: KernelSpec, a: np.ndarray) -> np.ndarray:
    """Dense n x n matrix of d within ``a``, diagonal zeroed."""
    rows, block, _ = _pair_metric(kernel)
    a = rows(a)
    n = a.shape[0]
    out = np.empty((n, n))
    for lo in range(0, n, _CHUNK):
        block(a[lo : lo + _CHUNK], a, out=out[lo : lo + _CHUNK])
    np.fill_diagonal(out, 0.0)
    return out
