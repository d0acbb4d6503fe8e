"""The asymptotic theory of the statistic with several rare classes
against one control class; the binary test is its K = 1 case.

:func:`multi_asymptotic_variance` is the one first-order variance,
sum_k m_k^2 zeta_k / r_k + m_0^2 zeta_0 / s, the controls entering at
the sampling ratio s, or n0/n1 for the full sample, and
:func:`multi_second_order_variance` the one second-order formula behind
the high-dimensional null.  Both take the kernel's block orders m_k
(control first) and the rare-class sizes n_1, ..., n_K, whose ratios
r_k = n_k / n_1 weight the terms, and check them.
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
import numbers
from itertools import combinations
from statistics import NormalDist

import numpy as np

from .data import GroupedSample
from .engine import _check_sizes, _distinct_tuples, _sign_reference, sign_counts
from .errors import DegenerateDataError, ValidationError
from .kernels import KernelSpec, evaluate
from .rng import spawn_rng

__all__ = [
    "multi_asymptotic_variance",
    "multi_second_order_variance",
    "block_projection",
    "estimate_zeta1k",
]

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


# ---------------------------------------------------------------------------
# asymptotic variance and projection-variance estimation
# ---------------------------------------------------------------------------


def _check_finite(**values) -> None:
    """Refuse a NaN or infinite calculator input, named in the message."""
    bad = [name for name, value in values.items() if not math.isfinite(value)]
    if bad:
        raise ValidationError(f"{', '.join(bad)} must be finite")


def _check_power_inputs(xi01: float, mu0: float, **levels: float) -> None:
    """The first-order power calculators' check besides the variance
    formula's (orders, n1, finite non-negative zetas): a finite mu0,
    xi01 > 0 (a degenerate kernel has no first-order power), and each
    level in (0, 1)."""
    _check_finite(mu0=mu0)
    if xi01 <= 0:
        raise ValidationError("need xi01 > 0; degenerate kernels have no first-order power")
    for name, level in levels.items():
        if not 0 < level < 1:
            raise ValidationError(f"{name} must lie in (0, 1)")


def _check_variance_inputs(block_orders, rare_sizes, s, zetas, lists) -> tuple:
    """The ratios r_k = n_k / n_1, after refusing what the variance
    formulas cannot read: orders (control first) other than one integer
    >= 1 per class, sizes other than one positive finite value per rare
    class, a ``(name, list, per)`` of ``lists`` without one entry per
    ``per`` ("class" or "rare class"), an s that is not positive and
    finite, and among ``zetas``, the ones the formula reads, one that is
    not a real number, negative or not finite."""
    k = len(rare_sizes)
    if k < 1 or len(block_orders) != k + 1:
        raise ValidationError("need a block order per class and a size per rare class")
    for name, values, per in lists:
        if len(values) != k + (per == "class"):
            raise ValidationError(f"need one {name} per {per}")
    if any(not isinstance(m, numbers.Integral) or m < 1 for m in block_orders):
        raise ValidationError(f"block orders {tuple(block_orders)} must be integers >= 1")
    if any(not 0 < n < math.inf for n in rare_sizes):
        raise ValidationError(f"rare sizes {tuple(rare_sizes)} must be positive and finite")
    if s is not None and not 0 < s < math.inf:
        raise ValidationError("the sampling ratio s must be positive and finite")
    if any(not isinstance(z, numbers.Real) or not 0 <= z < math.inf for z in zetas):
        raise ValidationError("projection variances must be real, finite and non-negative")
    return tuple(n / rare_sizes[0] for n in rare_sizes)


def multi_asymptotic_variance(block_orders, rare_sizes, zetas, s=None) -> float:
    """Asymptotic variance of sqrt(n1) times the statistic of a first-order
    kernel (a binary kernel is the K = 1 case).

    ``block_orders`` are the kernel's m_k and ``zetas[k]`` the
    one-observation projection variances, index 0 the control class;
    ``rare_sizes`` are n_1, ..., n_K, read as the ratios r_k = n_k / n_1.
    The variance is the sum of m_k^2 zeta_k / r_k over the rare classes
    plus m_0^2 zeta_0 / s, s the sampling ratio or n0/n1 for the full
    sample; None, the limit n1/n0 -> 0, reads no zeta_0.  Every term but
    class 1's vanishes as its r_k grows.
    """
    total, control = _variance_parts(block_orders, rare_sizes, zetas, s)
    if total <= 0:
        raise DegenerateDataError(
            "degenerate: all first-order projection variances vanish; "
            "use multi_second_order_variance for the variance and "
            "permutation for testing"
        )
    if s is not None:
        total += control / s
    return float(total)


def _variance_parts(block_orders, rare_sizes, zetas, s=None, read_control=False) -> tuple:
    """The two parts of :func:`multi_asymptotic_variance`, after its input
    check at ratio ``s``: the rare sum sum_k m_k^2 zeta_k / r_k and the
    control part times s, m_0^2 zeta_0 (None without zeta_0, which the
    check requires when s is given or the caller reads the control part)."""
    zetas = list(zetas)
    skip = s is None and not read_control and zetas and zetas[0] is None
    read = zetas[1:] if skip else zetas
    ratios = _check_variance_inputs(block_orders, rare_sizes, s, read,
                                    [("zeta", zetas, "class")])
    m = block_orders
    rare = math.fsum(m[k] ** 2 * zetas[k] / ratios[k - 1] for k in range(1, len(m)))
    return rare, None if zetas[0] is None else m[0] ** 2 * zetas[0]


def multi_second_order_variance(
    block_orders,
    rare_sizes,
    zeta2_diag,
    zeta2_cross,
    s: float | None = None,
    zeta2_control: float | None = None,
    zeta2_control_cross=None,
) -> float:
    """Asymptotic variance of n1 times the statistic of a degenerate
    kernel, one whose first-order projections all vanish (the binary
    test is the K = 1 case), at block orders m_k and rare sizes n_k.

    ``zeta2_diag[k-1]`` is the variance of the projection onto two
    class-k observations and ``zeta2_cross[(k1, k2)]`` (k1 < k2) onto
    one observation of each.  Under subsampling the control class joins
    as class 0 with ratio s: ``zeta2_control`` (two controls) and
    ``zeta2_control_cross[k-1]`` (one control, one class-k observation)
    are then required.  The variance is the sum over classes of
    m_k^2 (m_k-1)^2 zeta_kk / (2 r_k^2) plus the sum over pairs of
    m_k1^2 m_k2^2 zeta_k1k2 / (r_k1 r_k2).
    """
    zeta2_diag = list(zeta2_diag)
    cross = dict(zeta2_cross)
    lists = [("zeta2_diag", zeta2_diag, "rare class")]
    if s is not None:
        if zeta2_control is None or zeta2_control_cross is None:
            raise ValidationError("subsampled variance needs both control zetas")
        lists.append(("zeta2_control_cross", zeta2_control_cross, "rare class"))
        cross.update({(0, k): z for k, z in enumerate(zeta2_control_cross, 1)})
    diag = [zeta2_control, *zeta2_diag]
    first = 0 if s is not None else 1  # the control class joins under s only
    ratios = _check_variance_inputs(block_orders, rare_sizes, s,
                                    [*diag[first:], *cross.values()], lists)
    m, r = block_orders, (s, *ratios)
    classes = range(first, len(m))
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

    The difference kernel has a closed form.  At a rare block both sign
    kernels read every point against the statistic's sorted reference at
    cap ``budget`` (:func:`raresig.engine._sign_reference`: the
    controls, or the means of every m-control tuple when they number at
    most ``budget``, else of ``budget`` tuples drawn from ``rng``); the
    other rare classes only add a constant, which is left out, since only
    the variance over points is used.  At the control block the sign
    kernel sums the signs against each rare class, and
    ``imbalanced_kendall`` reads every point against ``budget`` sorted
    draws of m x1 - (sum of m - 1 controls), whose kernel at control x
    is sgn(draw - x).  Any other kernel averages ``budget`` Monte Carlo
    tuples per point, each slot filled with distinct rows of its own
    class.
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
    if kind in ("rescaled_kendall", "imbalanced_kendall"):
        pts = points[:, 0]
        if k:
            ref = _sign_reference(data, kernel, budget, rng)
            return sign_counts(ref, pts) / ref.size
        if kind == "rescaled_kendall":
            return -sum(
                sign_counts(data.sorted_column(c), pts) / data.counts[c]
                for c in range(1, data.n_classes)
            )
        m, x0, x1 = kernel.params["m"], data.group(0)[:, 0], data.group(1)[:, 0]
        ref = (m * x1[rng.integers(0, x1.size, size=budget)]
               - x0[_distinct_tuples(rng, x0.size, m - 1, budget)].sum(axis=1))
        ref.sort()
        return -(sign_counts(ref, pts) / ref.size)
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
    estimate.  The control block (k = 0), whose term weighs n1/n0 or
    1/s, is evaluated at ``budget`` controls drawn without replacement
    (all, if no more) before any tuple.  ``budget`` also caps the tuples
    per point for kernels without a closed projection, and the sorted
    reference of ``imbalanced_kendall``'s rare block by the rule of
    :func:`raresig.engine.compute_rit`: every m-control tuple when they
    number at most ``budget``, else ``budget`` draws.  A second-order
    kernel, whose one-point projections vanish, is refused.
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
    rng = spawn_rng(seed)
    points = data.group(k if basis == "cases" else 0)
    if k == 0 and points.shape[0] > budget:
        points = points[rng.choice(points.shape[0], budget, replace=False)]
    return float(block_projection(data, kernel, k, points, budget, rng).var(ddof=1))
