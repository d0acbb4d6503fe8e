"""The asymptotic theory of the statistic with several rare classes
against one control class; the binary test is its K = 1 case.

:class:`MultiClassSpec` holds the class structure (block orders, size
ratios and the asymptotic regime).  :func:`multi_asymptotic_variance` is
the one first-order variance formula, for any K and with or without
control subsampling; :func:`multi_second_order_variance` is the one
second-order formula, the variance of n1 times the statistic of a
degenerate kernel, behind the high-dimensional null.
:func:`block_projection` is the kernel's projection onto one
observation of any block, and :func:`estimate_zeta1k` its variance.
The statistic itself, at any K, is :func:`raresig.engine.compute_rit`.
The normal tail, distribution and quantile that turn these variances
into p-values and power (``_normal_sf``, ``_normal_cdf``,
``_normal_ppf``) come from the standard library, so importing the
package loads no scipy module.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import combinations
from statistics import NormalDist

import numpy as np

from .data import GroupedSample
from .engine import _check_sizes, _distinct_tuples, sign_counts
from .errors import DegenerateDataError, ValidationError
from .kernels import KernelSpec, evaluate
from .rng import spawn_rng

__all__ = [
    "MultiClassSpec",
    "multi_asymptotic_variance",
    "multi_second_order_variance",
    "block_projection",
    "estimate_zeta1k",
]

SINGLE_RAREST_FACTOR = 0.2

_STD_NORMAL = NormalDist()


def _normal_sf(z: float) -> float:
    """Upper tail of the standard normal from ``erfc``, accurate down to
    the subnormals (``NormalDist.cdf`` is 1 + erf, which is 0 for a tail
    below ~1e-17)."""
    return 0.5 * math.erfc(z / math.sqrt(2.0))


def _normal_cdf(x: float) -> float:
    return _normal_sf(-x)


def _normal_ppf(q: float) -> float:
    """Standard normal quantile, -inf at q = 0 and +inf at q = 1."""
    if q == 0.0 or q == 1.0:
        return math.copysign(math.inf, q - 0.5)
    return _STD_NORMAL.inv_cdf(q)


@dataclass(frozen=True, eq=False)
class MultiClassSpec:
    """Shape of a multi-class problem: rare-class count, block orders,
    size ratios r_k = n_k / n_1, and the asymptotic regime."""

    n_rare: int
    block_orders: tuple
    ratios: tuple
    regime: str

    def __post_init__(self) -> None:
        if self.n_rare < 1:
            raise ValidationError("need at least one rare class")
        if len(self.block_orders) != self.n_rare + 1:
            raise ValidationError("block_orders must cover control plus rare classes")
        if self.regime not in ("comparable_rare", "single_rarest"):
            raise ValidationError("regime must be comparable_rare or single_rarest")

    @classmethod
    def from_grouped(
        cls, data: GroupedSample, block_orders: tuple | None = None
    ) -> "MultiClassSpec":
        """Derive the class structure from counts.

        Regime heuristic: class 1 is taken as the designated rarest
        class; the regime is ``single_rarest`` when n_1 is at most 0.2
        times the smallest other rare-class count, else
        ``comparable_rare``.  One dataset cannot decide an asymptotic
        regime, so the classification is reported, not asserted.
        """
        k = data.n_classes - 1
        orders = tuple(block_orders) if block_orders else (1,) * (k + 1)
        for cls_idx, m in enumerate(orders):
            if data.counts[cls_idx] < m:
                raise ValidationError(
                    f"class {cls_idx} has {data.counts[cls_idx]} rows, needs {m}"
                )
        n1 = data.counts[1]
        ratios = tuple(data.counts[i] / n1 for i in range(1, k + 1))
        others = data.counts[2 : k + 1]
        regime = (
            "single_rarest"
            if others and n1 <= SINGLE_RAREST_FACTOR * min(others)
            else "comparable_rare"
        )
        return cls(k, orders, ratios, regime)


# ---------------------------------------------------------------------------
# asymptotic variance and projection-variance estimation
# ---------------------------------------------------------------------------


def _check_variance_inputs(s, zetas) -> None:
    """Refuse a sampling ratio s <= 0 and a negative projection variance
    (None stands for a zeta the formula does not read)."""
    if s is not None and s <= 0:
        raise ValidationError("the sampling ratio s must be positive")
    if any(z is not None and z < 0 for z in zetas):
        raise ValidationError("projection variances must be non-negative")


def multi_asymptotic_variance(
    spec: MultiClassSpec, zetas, s: int | None = None
) -> float:
    """Asymptotic variance of sqrt(n1) times the statistic of a first-order
    kernel (a binary kernel is the K = 1 case).

    ``zetas[k]`` is the one-observation projection variance for class k
    (index 0 is the control class and is only consulted when ``s`` is
    given).  Comparable regime: sum of m_k^2 zeta_k / r_k over rare
    classes, plus m_0^2 zeta_0 / s under subsampling.  Single-rarest
    regime: m_1^2 zeta_1 alone.
    """
    zetas = list(zetas)
    if len(zetas) != spec.n_rare + 1:
        raise ValidationError("need one zeta per class (control first)")
    _check_variance_inputs(s, zetas)
    rare = zetas[1:]
    if all(z is not None and z == 0 for z in rare):
        raise DegenerateDataError(
            "degenerate: all first-order projection variances vanish; "
            "use multi_second_order_variance for the variance and "
            "permutation for testing"
        )
    orders = spec.block_orders
    if spec.regime == "single_rarest":
        if s is not None:
            raise ValidationError(
                "subsampled variance is defined for the comparable regime"
            )
        total = orders[1] ** 2 * rare[0]
    else:
        total = math.fsum(
            orders[k] ** 2 * rare[k - 1] / spec.ratios[k - 1]
            for k in range(1, spec.n_rare + 1)
        )
        if s is not None:
            if zetas[0] is None:
                raise ValidationError("subsampled variance needs the control zeta")
            total += orders[0] ** 2 * zetas[0] / s
    if total <= 0:
        raise DegenerateDataError(
            "degenerate: the first-order variance vanishes in the "
            f"{spec.regime} regime; use permutation for testing"
        )
    return float(total)


def multi_second_order_variance(
    spec: MultiClassSpec,
    zeta2_diag,
    zeta2_cross,
    s: int | None = None,
    zeta2_control: float | None = None,
    zeta2_control_cross=None,
) -> float:
    """Asymptotic variance of n1 times the statistic of a degenerate
    kernel, one whose first-order projections all vanish (the binary
    test is the K = 1 case).

    ``zeta2_diag[k-1]`` is the variance of the projection onto two
    class-k observations and ``zeta2_cross[(k1, k2)]`` (k1 < k2) onto
    one observation of each.  Under subsampling the control class joins
    as class 0 with ratio s: ``zeta2_control`` (two controls) and
    ``zeta2_control_cross[k-1]`` (one control, one class-k observation)
    are then required.  The variance is the sum over classes of
    m_k^2 (m_k-1)^2 zeta_kk / (2 r_k^2) plus the sum over pairs of
    m_k1^2 m_k2^2 zeta_k1k2 / (r_k1 r_k2).
    """
    kk = spec.n_rare
    zeta2_diag = list(zeta2_diag)
    if len(zeta2_diag) != kk:
        raise ValidationError("need one zeta2_diag per rare class")
    cross = dict(zeta2_cross)
    if s is not None:
        if zeta2_control is None or zeta2_control_cross is None:
            raise ValidationError("subsampled variance needs both control zetas")
        if len(zeta2_control_cross) != kk:
            raise ValidationError("need one zeta2_control_cross per rare class")
        cross.update({(0, k): z for k, z in enumerate(zeta2_control_cross, 1)})
    m, r, diag = spec.block_orders, (s, *spec.ratios), [zeta2_control, *zeta2_diag]
    _check_variance_inputs(s, [*diag, *cross.values()])
    classes = range(0 if s is not None else 1, kk + 1)
    total = math.fsum(
        [m[k] ** 2 * (m[k] - 1) ** 2 * diag[k] / (2.0 * r[k] ** 2) for k in classes]
        + [m[a] ** 2 * m[b] ** 2 * cross[(a, b)] / (r[a] * r[b])
           for a, b in combinations(classes, 2)]
    )
    if total <= 0:
        raise DegenerateDataError(
            "degenerate: the second-order variance vanishes; use permutation for testing"
        )
    return float(total)


def block_projection(
    data: GroupedSample,
    kernel: KernelSpec,
    k: int,
    points: np.ndarray,
    budget: int,
    rng,
) -> np.ndarray:
    """The kernel's projection onto one block-k observation (Hoeffding,
    1948) at each row of ``points``: one block-k slot is fixed at the
    point and the kernel is averaged over every other slot.

    The difference kernel and the sign kernel, at any number of rare
    classes, have closed forms (at a rare block the other rare classes
    only add a constant, which is left out, since only the variance over
    points is used).  ``imbalanced_kendall``, whose blocks hold m >= 2
    controls, enumerates the m-control blocks when there are at most
    ``budget`` of them, else draws ``budget`` of them per point.  Any
    other kernel averages ``budget`` Monte Carlo tuples per point, each
    slot filled with distinct rows of its own class.
    """
    _check_sizes(data, kernel)
    if not 0 <= k < data.n_classes:
        raise ValidationError(f"class {k} out of range")
    orders = kernel.block_orders
    if orders[k] < 1:
        raise ValidationError(f"kernel uses no class-{k} observations")
    kind = kernel.kind
    if kind == "rescaled_pearson":
        pts = points[:, 0]
        return pts - data.group(0)[:, 0].mean() if k else data.group(1)[:, 0].mean() - pts
    if kind == "rescaled_kendall":
        pts = points[:, 0]
        if k:
            return sign_counts(data.sorted_column(0), pts) / data.counts[0]
        return -sum(
            sign_counts(data.sorted_column(c), pts) / data.counts[c]
            for c in range(1, data.n_classes)
        )
    if kind == "imbalanced_kendall":
        return _imbalanced_kendall_projection(data, kernel.params["m"], k, points,
                                              budget, rng)
    out = np.empty(points.shape[0])
    for i, point in enumerate(points):
        # draws[c][j]: the class-c rows of tuple j, one fewer in block k
        draws = [
            data.group(c)[_distinct_tuples(rng, data.counts[c], m - (c == k), budget)]
            for c, m in enumerate(orders)
        ]
        draws[k] = np.concatenate([np.broadcast_to(point, (budget, 1, point.size)),
                                   draws[k]], axis=1)
        out[i] = math.fsum(evaluate(kernel, [d[j] for d in draws])
                           for j in range(budget)) / budget
    return out


def _imbalanced_kendall_projection(
    data: GroupedSample, m: int, k: int, points: np.ndarray, budget: int, rng
) -> np.ndarray:
    """:func:`block_projection` of the imbalanced sign kernel, in chunks
    of 256 points."""
    x0, x1 = data.group(0)[:, 0], data.group(1)[:, 0]
    if k and math.comb(x0.size, m) <= budget:
        means = np.sort([x0[list(c)].mean() for c in combinations(range(x0.size), m)])
        return sign_counts(means, points[:, 0]) / means.size
    out = np.empty(points.shape[0])
    for lo in range(0, points.shape[0], 256):
        hi = min(lo + 256, points.shape[0])
        pts = points[lo:hi, 0:1]
        if k:
            means = x0[rng.integers(0, x0.size, size=(hi - lo, budget, m))].mean(axis=2)
            out[lo:hi] = np.sign(pts - means).mean(axis=1)
            continue
        others = x0[rng.integers(0, x0.size, size=(hi - lo, budget, m - 1))].sum(axis=2)
        case_draw = x1[rng.integers(0, x1.size, size=(hi - lo, budget))]
        out[lo:hi] = np.sign(case_draw - (pts + others) / m).mean(axis=1)
    return out


def estimate_zeta1k(
    data: GroupedSample,
    kernel: KernelSpec,
    k: int = 1,
    budget: int = 2000,
    seed: int = 0,
    basis: str = "cases",
) -> float:
    """zeta_k: the variance of the kernel's projection onto one class-k
    observation (:func:`block_projection`, drawing from
    ``spawn_rng(seed)``).

    A rare block (k >= 1) is evaluated at its own class
    (``basis="cases"``) or at the controls (``basis="controls"``), which
    under the null follow the same law and give a far less noisy
    estimate.  The control block (k = 0) is always evaluated at the
    controls; it enters only the subsampled variance.  ``budget`` caps
    the tuples per point for kernels without a closed projection.  A
    second-order kernel, whose one-point projections vanish, is refused.
    """
    if kernel.order != "first":
        raise ValidationError("estimate_zeta1k applies to first-order kernels only")
    if budget < 30:
        raise ValidationError("budget must be at least 30 tuples")
    if basis not in ("cases", "controls"):
        raise ValidationError("basis must be 'cases' or 'controls'")
    if not 0 <= k < data.n_classes:
        raise ValidationError(f"class {k} out of range")
    if data.counts[k] < 2:
        raise DegenerateDataError(f"need at least two class-{k} points")
    points = data.group(k if basis == "cases" else 0)
    vals = block_projection(data, kernel, k, points, budget, spawn_rng(seed))
    return float(vals.var(ddof=1))
