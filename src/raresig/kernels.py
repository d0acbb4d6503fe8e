"""Kernel functions for the rescaled statistics, and their projections.

Five built-in kernels are provided.  ``rescaled_pearson``,
``rescaled_kendall`` and ``imbalanced_kendall`` are first-order (the
one-case projection has positive variance); ``rescaled_dcov`` and
``rescaled_ipcov`` are second-order (both one-observation projections
are degenerate, the two-case projection is not).  ``multi_kendall``
extends the Kendall comparison to K rare classes, and ``custom`` wraps a
user callable.

Projections condition the kernel on a subset of its arguments and
average out the rest; their variances drive every variance estimate and
asymptotic null in :mod:`raresig.inference`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from itertools import combinations

import numpy as np

from .errors import DegenerateDataError, ValidationError
from .rng import spawn_rng

__all__ = [
    "KernelSpec",
    "ProjectionEstimate",
    "pearson_kernel",
    "kendall_kernel",
    "imbalanced_kendall_kernel",
    "dcov_kernel",
    "ipcov_kernel",
    "multi_kendall_kernel",
    "custom_kernel",
    "kernel_from_name",
    "kernel_pearson",
    "kernel_kendall",
    "kernel_imbalanced_kendall",
    "kernel_dcov",
    "kernel_ipcov",
    "evaluate",
    "project_h01",
    "project_h01_many",
]

FIRST_ORDER_KINDS = ("rescaled_pearson", "rescaled_kendall", "imbalanced_kendall")
SECOND_ORDER_KINDS = ("rescaled_dcov", "rescaled_ipcov")
SCALAR_KINDS = FIRST_ORDER_KINDS  # these require p == 1


@dataclass(frozen=True, eq=False)
class KernelSpec:
    """Kernel identity plus block orders and parameters.

    ``block_orders[k]`` is the number of class-k observations one kernel
    evaluation consumes; entry 0 is the control block.  ``order`` is the
    degeneracy class ("first" or "second") and controls which asymptotic
    null applies.
    """

    kind: str
    block_orders: tuple
    params: dict = field(default_factory=dict)
    fn: object = None
    order: str = "first"

    def __post_init__(self) -> None:
        if any(int(m) != m or m < 0 for m in self.block_orders):
            raise ValidationError("block orders must be non-negative integers")
        if len(self.block_orders) < 2:
            raise ValidationError("a kernel needs a control block and a case block")
        if self.order not in ("first", "second"):
            raise ValidationError("order must be 'first' or 'second'")
        if self.kind == "custom" and not callable(self.fn):
            raise ValidationError("custom kernels require a callable fn")

    @property
    def m0(self) -> int:
        return self.block_orders[0]

    @property
    def m1(self) -> int:
        return self.block_orders[1]

    @property
    def n_blocks(self) -> int:
        return len(self.block_orders)


def pearson_kernel() -> KernelSpec:
    """Difference kernel: h(x0; x1) = x1 - x0 (scalar features)."""
    return KernelSpec("rescaled_pearson", (1, 1))


def kendall_kernel() -> KernelSpec:
    """Sign kernel: h(x0; x1) = sgn(x1 - x0), ties mapped to 0."""
    return KernelSpec("rescaled_kendall", (1, 1))


def imbalanced_kendall_kernel(m: int) -> KernelSpec:
    """Sign of the case against the mean of an m-control block."""
    if int(m) != m or m < 1:
        raise ValidationError("imbalanced_kendall needs integer m >= 1")
    return KernelSpec("imbalanced_kendall", (int(m), 1), params={"m": int(m)})


def dcov_kernel() -> KernelSpec:
    """Six-term Euclidean-distance kernel over two controls and two cases."""
    return KernelSpec("rescaled_dcov", (2, 2), order="second")


def ipcov_kernel(c_sigma2: float = 1.0) -> KernelSpec:
    """Six-term angular-affinity kernel; ``c_sigma2`` shifts the inner
    products before the angle is taken."""
    if c_sigma2 <= 0:
        raise ValidationError("c_sigma2 must be positive")
    return KernelSpec(
        "rescaled_ipcov", (2, 2), params={"c_sigma2": float(c_sigma2)}, order="second"
    )


def multi_kendall_kernel(n_rare: int) -> KernelSpec:
    """Sum over rare classes k of sgn(x_k - x_0); one observation per block."""
    if int(n_rare) != n_rare or n_rare < 1:
        raise ValidationError("multi_kendall needs at least one rare class")
    return KernelSpec("multi_kendall", (1,) * (int(n_rare) + 1))


def custom_kernel(fn, block_orders, order: str = "first", **params) -> KernelSpec:
    """Wrap ``fn(block_0, ..., block_K) -> float`` as a kernel.

    Each block argument is an ``(m_k, p)`` array.  ``fn`` must be
    zero-mean under independence and symmetric within each block;
    declare the degeneracy ``order`` explicitly.
    """
    return KernelSpec(
        "custom", tuple(int(m) for m in block_orders), dict(params), fn, order
    )


def kernel_from_name(name: str, **params) -> KernelSpec:
    """Built-in kernel by name (``-`` and ``_`` interchangeable); ``params``
    supplies ``m`` (imbalanced_kendall), ``c_sigma2`` (ipcov) and
    ``n_rare`` (multi_kendall)."""
    name = name.replace("-", "_")
    if name == "pearson":
        return pearson_kernel()
    if name == "kendall":
        return kendall_kernel()
    if name == "imbalanced_kendall":
        return imbalanced_kendall_kernel(int(params.get("m", 2)))
    if name == "dcov":
        return dcov_kernel()
    if name == "ipcov":
        return ipcov_kernel(float(params.get("c_sigma2", 1.0)))
    if name == "multi_kendall":
        return multi_kendall_kernel(int(params.get("n_rare", 1)))
    raise ValidationError(f"unknown kernel name {name!r}")


# ---------------------------------------------------------------------------
# scalar kernel evaluations
# ---------------------------------------------------------------------------


def _scalar(x, name: str) -> float:
    a = np.asarray(x, dtype=np.float64).reshape(-1)
    if a.size != 1:
        raise ValidationError(f"{name} kernel requires scalar features (p=1)")
    return float(a[0])


def kernel_pearson(x0, x1) -> float:
    """x1 - x0 for scalar observations."""
    return _scalar(x1, "pearson") - _scalar(x0, "pearson")


def kernel_kendall(x0, x1) -> float:
    """sgn(x1 - x0) with sgn(0) = 0."""
    return float(np.sign(_scalar(x1, "kendall") - _scalar(x0, "kendall")))


def kernel_imbalanced_kendall(x0s, x1) -> float:
    """sgn(x1 - mean of the control block)."""
    block = np.asarray(x0s, dtype=np.float64).reshape(-1)
    if block.size < 1:
        raise ValidationError("imbalanced_kendall needs m >= 1 controls")
    return float(np.sign(_scalar(x1, "imbalanced_kendall") - block.mean()))


def kernel_dcov(x0a, x0b, x1a, x1b) -> float:
    """Cross distances minus twice the within-block distances."""
    pts = [np.asarray(v, dtype=np.float64).reshape(-1) for v in (x0a, x0b, x1a, x1b)]
    if len({v.size for v in pts}) != 1:
        raise ValidationError("dcov kernel arguments must share one dimension")
    a, b, c, d = pts
    e = np.linalg.norm
    return float(
        e(a - c) + e(a - d) + e(b - c) + e(b - d) - 2 * e(a - b) - 2 * e(c - d)
    )


def _angle(x, y, c_sigma2: float) -> float:
    num = c_sigma2 + float(np.dot(x, y))
    den = math.sqrt((c_sigma2 + float(np.dot(x, x))) * (c_sigma2 + float(np.dot(y, y))))
    arg = num / den
    if abs(arg) > 1.0 + 1e-12:
        raise ValidationError(f"angular affinity argument {arg} outside [-1, 1]")
    return math.acos(min(1.0, max(-1.0, arg)))


def kernel_ipcov(x0a, x0b, x1a, x1b, c_sigma2: float = 1.0) -> float:
    """Angular-affinity analogue of the distance kernel."""
    if c_sigma2 <= 0:
        raise ValidationError("c_sigma2 must be positive")
    pts = [np.asarray(v, dtype=np.float64).reshape(-1) for v in (x0a, x0b, x1a, x1b)]
    if len({v.size for v in pts}) != 1:
        raise ValidationError("ipcov kernel arguments must share one dimension")
    a, b, c, d = pts
    A = lambda u, v: _angle(u, v, c_sigma2)  # noqa: E731
    return A(a, c) + A(a, d) + A(b, c) + A(b, d) - 2 * A(a, b) - 2 * A(c, d)


def evaluate(spec: KernelSpec, blocks) -> float:
    """Evaluate one kernel on explicit blocks (block k: (m_k, p) array)."""
    blocks = [np.atleast_2d(np.asarray(b, dtype=np.float64)) for b in blocks]
    if len(blocks) != spec.n_blocks:
        raise ValidationError(
            f"kernel takes {spec.n_blocks} blocks, got {len(blocks)}"
        )
    for k, b in enumerate(blocks):
        if b.shape[0] != spec.block_orders[k]:
            raise ValidationError(
                f"block {k} needs {spec.block_orders[k]} rows, got {b.shape[0]}"
            )
    kind = spec.kind
    if kind == "rescaled_pearson":
        return kernel_pearson(blocks[0][0], blocks[1][0])
    if kind == "rescaled_kendall":
        return kernel_kendall(blocks[0][0], blocks[1][0])
    if kind == "imbalanced_kendall":
        return kernel_imbalanced_kendall(blocks[0][:, 0], blocks[1][0])
    if kind == "rescaled_dcov":
        return kernel_dcov(blocks[0][0], blocks[0][1], blocks[1][0], blocks[1][1])
    if kind == "rescaled_ipcov":
        return kernel_ipcov(
            blocks[0][0],
            blocks[0][1],
            blocks[1][0],
            blocks[1][1],
            spec.params.get("c_sigma2", 1.0),
        )
    if kind == "multi_kendall":
        x0 = _scalar(blocks[0][0], "multi_kendall")
        return float(
            sum(np.sign(_scalar(b[0], "multi_kendall") - x0) for b in blocks[1:])
        )
    if kind == "custom":
        return float(spec.fn(*blocks))
    raise ValidationError(f"unknown kernel kind {kind!r}")


# ---------------------------------------------------------------------------
# projections
# ---------------------------------------------------------------------------


@dataclass(frozen=True, eq=False)
class ProjectionEstimate:
    """Evaluated projection values at a set of points.

    ``kind`` is the (a, b) pair of conditioned block sizes; ``values``
    holds one projection estimate per evaluation point; ``basis_size``
    is the number of reference tuples each estimate averaged over.
    """

    kind: tuple
    values: np.ndarray
    basis_size: int

    def __post_init__(self) -> None:
        a, b = self.kind
        if a < 0 or b < 0:
            raise ValidationError("projection indices must be non-negative")


def _h01_tuples(spec: KernelSpec, controls: np.ndarray, budget: int, rng):
    """Index tuples (control indices, extra case indices) for the
    one-case projection.  Exhaustive when the count fits the budget,
    otherwise Monte Carlo draws of distinct reference rows."""
    n0 = controls.shape[0]
    m0, m1 = spec.m0, spec.m1
    need = m0 + (m1 - 1)
    if n0 < need:
        raise DegenerateDataError(
            f"projection needs {need} reference rows, have {n0}"
        )
    total = math.comb(n0, m0) * math.comb(n0 - m0, m1 - 1)
    if total <= budget:
        out = []
        for ctrl in combinations(range(n0), m0):
            rest = [i for i in range(n0) if i not in ctrl]
            if m1 == 1:
                out.append((ctrl, ()))
            else:
                out.extend((ctrl, extra) for extra in combinations(rest, m1 - 1))
        return out
    draws = []
    for _ in range(budget):
        idx = rng.choice(n0, size=need, replace=False)
        draws.append((tuple(idx[:m0]), tuple(idx[m0:])))
    return draws


def project_h01(
    spec: KernelSpec, case_point, controls, budget: int = 2000, seed: int = 0
) -> float:
    """One-case projection of the kernel at ``case_point``.

    Averages the kernel over control blocks (and, for kernels with more
    than one case slot, over extra case draws taken from the same
    reference, which is valid under the null where the classes share one law).
    Enumeration is exact when the number of reference tuples is within
    ``budget``; otherwise that many random tuples are drawn.
    """
    controls = np.atleast_2d(np.asarray(controls, dtype=np.float64))
    point = np.asarray(case_point, dtype=np.float64).reshape(1, -1)
    kind = spec.kind
    if kind == "rescaled_pearson":
        return float(point[0, 0] - controls[:, 0].mean())
    if kind == "rescaled_kendall":
        return float(np.sign(point[0, 0] - controls[:, 0]).mean())
    rng = spawn_rng(seed)
    vals = []
    for ctrl_idx, extra_idx in _h01_tuples(spec, controls, budget, rng):
        case_block = np.vstack([point, controls[list(extra_idx)]]) if extra_idx else point
        vals.append(evaluate(spec, [controls[list(ctrl_idx)], case_block]))
    return math.fsum(vals) / len(vals)


def project_h01_many(
    spec: KernelSpec, points, controls, budget: int = 2000, seed: int = 0
) -> ProjectionEstimate:
    """``project_h01`` over many evaluation points."""
    points = np.atleast_2d(np.asarray(points, dtype=np.float64))
    vals = np.array(
        [
            project_h01(spec, points[i], controls, budget, seed + i)
            for i in range(points.shape[0])
        ]
    )
    n0 = np.atleast_2d(controls).shape[0]
    basis = min(budget, math.comb(n0, spec.m0))
    return ProjectionEstimate((0, 1), vals, basis)

