"""Kernel functions for the rescaled statistics.

Five built-in kernel kinds are provided.  ``rescaled_pearson``,
``rescaled_kendall`` and ``imbalanced_kendall`` are first-order (the
one-case projection has positive variance); ``rescaled_dcov`` and
``rescaled_ipcov`` are second-order (both one-observation projections
are degenerate, the two-case projection is not).  ``rescaled_kendall``
is the sign kernel at any number K of rare classes (the binary and the
m = 1 imbalanced kernels are K = 1); ``custom`` wraps a user callable.

The kernels' projections, whose variances drive the first-order
asymptotic nulls, are in :func:`raresig.multiclass.block_projection`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import ValidationError

__all__ = [
    "KernelSpec",
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
]

SECOND_ORDER_KINDS = ("rescaled_dcov", "rescaled_ipcov")
# these require p == 1
SCALAR_KINDS = ("rescaled_pearson", "rescaled_kendall", "imbalanced_kendall")


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
    return multi_kendall_kernel(1)


def imbalanced_kendall_kernel(m: int) -> KernelSpec:
    """Sign of the case against the mean of an m-control block."""
    if int(m) != m or m < 1:
        raise ValidationError("imbalanced_kendall needs integer m >= 1")
    if m == 1:
        return kendall_kernel()
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
    """The sign kernel at ``n_rare`` rare classes: the sum over them of
    sgn(x_k - x_0), one observation per block."""
    if int(n_rare) != n_rare or n_rare < 1:
        raise ValidationError("multi_kendall needs at least one rare class")
    return KernelSpec("rescaled_kendall", (1,) * (int(n_rare) + 1))


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
    """Angle between the augmented rows [x, sqrt(c)] and [y, sqrt(c)], as
    2 atan2(|u - v|, |u + v|) of their unit vectors u, v: the half-angle
    form keeps relative accuracy near 0 and pi, where acos does not."""
    u, v = (np.append(z, math.sqrt(c_sigma2)) for z in (x, y))
    u, v = u / np.linalg.norm(u), v / np.linalg.norm(v)
    return 2.0 * math.atan2(np.linalg.norm(u - v), np.linalg.norm(u + v))


def kernel_ipcov(x0a, x0b, x1a, x1b, c_sigma2: float = 1.0) -> float:
    """Angular-affinity analogue of the distance kernel: the same six
    terms over the angle between the augmented rows (see :func:`_angle`)."""
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
        return math.fsum(kernel_kendall(blocks[0][0], b[0]) for b in blocks[1:])
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
    if kind == "custom":
        return float(spec.fn(*blocks))
    raise ValidationError(f"unknown kernel kind {kind!r}")
