"""Hot pairwise-sum kernels.

The O(n^2 p) statistics (distance and angular-affinity forms) reduce to
four primitives: cross-block and within-block totals, plus per-row
cross sums.  Each runs over chunked ``scipy.spatial.distance.cdist`` /
BLAS blocks of at most ``_CHUNK`` rows, so memory is O(chunk * n), and
combines the per-chunk totals with ``math.fsum`` in a fixed order, so
results are reproducible run to run.
"""

from __future__ import annotations

import math

import numpy as np
from scipy.spatial.distance import cdist

from .errors import ValidationError

__all__ = [
    "active_backend",
    "cross_dist_sum",
    "within_dist_sum",
    "cross_dist_rowsum",
    "cross_angle_sum",
    "within_angle_sum",
    "cross_angle_rowsum",
    "dist_matrix",
    "angle_matrix",
    "angle_embed",
]

_CHUNK = 512


def active_backend() -> str:
    """Name of the pairwise-sum implementation (recorded in statistics)."""
    return "numpy"


# ---------------------------------------------------------------------------
# pairwise sums (chunked blocks, fsum across chunks)
# ---------------------------------------------------------------------------


def _c(a: np.ndarray) -> np.ndarray:
    return np.ascontiguousarray(a, dtype=np.float64)


def _angle_block(u_block, v):
    g = u_block @ v.T
    np.clip(g, -1.0, 1.0, out=g)
    return np.arccos(g)


def cross_dist_sum(a: np.ndarray, b: np.ndarray) -> float:
    """Sum of Euclidean distances over all (row of a, row of b) pairs."""
    a, b = _c(a), _c(b)
    parts = []
    for lo in range(0, a.shape[0], _CHUNK):
        parts.append(float(cdist(a[lo : lo + _CHUNK], b).sum()))
    return math.fsum(parts)


def within_dist_sum(a: np.ndarray) -> float:
    """Sum of Euclidean distances over unordered row pairs of ``a``."""
    a = _c(a)
    n = a.shape[0]
    parts = []
    for lo in range(0, n, _CHUNK):
        hi = min(lo + _CHUNK, n)
        block = cdist(a[lo:hi], a[lo:])
        # keep strictly-upper entries relative to the full matrix
        tri = np.triu(block, k=1)
        parts.append(float(tri.sum()))
    return math.fsum(parts)


def cross_dist_rowsum(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Per-row-of-``a`` sums of distances to every row of ``b``."""
    a, b = _c(a), _c(b)
    out = np.empty(a.shape[0])
    for lo in range(0, a.shape[0], _CHUNK):
        hi = min(lo + _CHUNK, a.shape[0])
        out[lo:hi] = cdist(a[lo:hi], b).sum(axis=1)
    return out


def cross_angle_sum(u: np.ndarray, v: np.ndarray) -> float:
    """Sum of arccos of dot products over cross pairs of unit rows."""
    u, v = _c(u), _c(v)
    parts = []
    for lo in range(0, u.shape[0], _CHUNK):
        parts.append(float(_angle_block(u[lo : lo + _CHUNK], v).sum()))
    return math.fsum(parts)


def within_angle_sum(u: np.ndarray) -> float:
    u = _c(u)
    n = u.shape[0]
    parts = []
    for lo in range(0, n, _CHUNK):
        hi = min(lo + _CHUNK, n)
        block = _angle_block(u[lo:hi], u[lo:])
        parts.append(float(np.triu(block, k=1).sum()))
    return math.fsum(parts)


def cross_angle_rowsum(u: np.ndarray, v: np.ndarray) -> np.ndarray:
    u, v = _c(u), _c(v)
    out = np.empty(u.shape[0])
    for lo in range(0, u.shape[0], _CHUNK):
        hi = min(lo + _CHUNK, u.shape[0])
        out[lo:hi] = _angle_block(u[lo:hi], v).sum(axis=1)
    return out


# ---------------------------------------------------------------------------
# matrix helpers (plumbing shared by inference and permutation paths)
# ---------------------------------------------------------------------------


def dist_matrix(a: np.ndarray, b: np.ndarray | None = None) -> np.ndarray:
    """Dense Euclidean distance matrix (within ``a`` when ``b`` is None)."""
    a = _c(a)
    return cdist(a, a if b is None else _c(b))


def angle_embed(x: np.ndarray, c_sigma2: float) -> np.ndarray:
    """Rows mapped to unit vectors whose dot products encode the angular
    affinity: ``acos(<embed(x), embed(y)>)`` equals
    ``acos((c + x.y) / sqrt((c + x.x)(c + y.y)))``."""
    if c_sigma2 <= 0:
        raise ValidationError("c_sigma2 must be positive")
    x = np.atleast_2d(_c(x))
    aug = np.column_stack([x, np.full(x.shape[0], math.sqrt(c_sigma2))])
    return aug / np.linalg.norm(aug, axis=1, keepdims=True)


def angle_matrix(
    a: np.ndarray, b: np.ndarray | None = None, c_sigma2: float = 1.0
) -> np.ndarray:
    """Dense matrix of angular affinities (within ``a`` when ``b`` is None)."""
    u = angle_embed(a, c_sigma2)
    v = u if b is None else angle_embed(b, c_sigma2)
    g = u @ v.T
    np.clip(g, -1.0, 1.0, out=g)
    return np.arccos(g)
