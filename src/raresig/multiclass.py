"""Statistics for several rare classes against one control class.

The statistic averages a (K+1)-block kernel over per-class index
combinations; with one rare class it reduces exactly to the binary
engine.  The built-in ``multi_kendall`` kernel sums the pairwise sign
comparisons of each rare class against the controls, which makes the
generic machinery concretely testable; arbitrary kernels go through
enumeration.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import combinations, product

import numpy as np

from .data import GroupedSample
from .engine import (
    BRUTE_FORCE_GUARD,
    RitStatistic,
    _check_sizes,
    compute_rit,
    kendall_cross_mean,
    sign_counts,
)
from .errors import DegenerateDataError, ValidationError
from .kernels import KernelSpec, evaluate
from .rng import spawn_rng

__all__ = [
    "MultiClassSpec",
    "compute_multi_rit",
    "compute_multi_rit_bruteforce",
    "multi_asymptotic_variance",
    "multi_second_order_variance",
    "estimate_zeta1k",
]

SINGLE_RAREST_FACTOR = 0.2


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


def is_multiclass(kernel: KernelSpec) -> bool:
    """Whether ``kernel`` takes the multi-class statistic and variances
    (more than two blocks, or ``multi_kendall`` at any K)."""
    return kernel.n_blocks > 2 or kernel.kind == "multi_kendall"


def full_statistic(
    data: GroupedSample, kernel: KernelSpec, seed: int = 0
) -> RitStatistic:
    """The full-sample statistic of any kernel: :func:`compute_multi_rit`
    for a multi-class kernel, else :func:`raresig.engine.compute_rit`
    (``seed`` only reaches its budgeted path)."""
    if is_multiclass(kernel):
        return compute_multi_rit(data, kernel)
    return compute_rit(data, kernel, seed=seed)


def compute_multi_rit(data: GroupedSample, kernel: KernelSpec) -> RitStatistic:
    """Combinatorial kernel average over all per-class combinations.

    ``multi_kendall`` runs in O(n log n) as a sum of per-class sign
    statistics; other kernels enumerate (guarded).  With one rare class
    the result matches the binary engine exactly.
    """
    _check_sizes(data, kernel)
    if kernel.kind != "multi_kendall":
        return compute_multi_rit_bruteforce(data, kernel)
    x0 = data.group(0)[:, 0]
    value = math.fsum(
        kendall_cross_mean(data.group(k)[:, 0], x0)
        for k in range(1, data.n_classes)
    )
    return RitStatistic(
        value,
        kernel,
        kernel.order,
        data.counts[0],
        data.counts[1],
        "sort-count",
        {"counts": data.counts},
    )


def compute_multi_rit_bruteforce(
    data: GroupedSample, kernel: KernelSpec
) -> RitStatistic:
    """Literal enumeration over every per-class index combination."""
    _check_sizes(data, kernel)
    count = 1
    for k, m in enumerate(kernel.block_orders):
        count *= math.comb(data.counts[k], m)
    if count > BRUTE_FORCE_GUARD:
        raise ValidationError(
            f"{count} combinations exceed the brute-force guard {BRUTE_FORCE_GUARD}"
        )
    per_class = [
        list(combinations(range(data.counts[k]), kernel.block_orders[k]))
        for k in range(data.n_classes)
    ]
    vals = [
        evaluate(kernel, [data.group(k)[list(idx)] for k, idx in enumerate(combo)])
        for combo in product(*per_class)
    ]
    return RitStatistic(
        math.fsum(vals) / count,
        kernel,
        kernel.order,
        data.counts[0],
        data.counts[1],
        "bruteforce",
        {"counts": data.counts},
    )


# ---------------------------------------------------------------------------
# asymptotic variance and projection-variance estimation
# ---------------------------------------------------------------------------


def multi_asymptotic_variance(
    spec: MultiClassSpec, zetas, s: int | None = None
) -> float:
    """Asymptotic variance of sqrt(n1) times the multi-class statistic.

    ``zetas[k]`` is the one-observation projection variance for class k
    (index 0 is the control class and is only consulted when ``s`` is
    given).  Comparable regime: sum of m_k^2 zeta_k / r_k over rare
    classes, plus m_0^2 zeta_0 / s under subsampling.  Single-rarest
    regime: m_1^2 zeta_1 alone.
    """
    zetas = list(zetas)
    if len(zetas) != spec.n_rare + 1:
        raise ValidationError("need one zeta per class (control first)")
    rare = zetas[1:]
    if all(z is not None and z == 0 for z in rare):
        raise DegenerateDataError(
            "degenerate: all first-order projection variances vanish; "
            "use multi_second_order_variance for the variance report and "
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
    """Variance of n1 * T when every first-order projection vanishes.

    ``zeta2_diag[k-1]`` is the within-class two-observation projection
    variance for rare class k; ``zeta2_cross[(k1, k2)]`` the cross-class
    one; the control-side terms only enter under subsampling.  No
    distributional p-value accompanies this variance (the limit law is
    not characterized); it is a report, with permutation as the test.
    """
    orders = spec.block_orders
    kk = spec.n_rare
    if s is None:
        total = math.fsum(
            orders[k] ** 2
            * (orders[k] - 1) ** 2
            * zeta2_diag[k - 1]
            / (2.0 * spec.ratios[k - 1] ** 2)
            for k in range(1, kk + 1)
        )
        total += math.fsum(
            orders[k1] ** 2
            * orders[k2] ** 2
            * zeta2_cross[(k1, k2)]
            / (spec.ratios[k1 - 1] * spec.ratios[k2 - 1])
            for k1 in range(1, kk + 1)
            for k2 in range(k1 + 1, kk + 1)
        )
        return float(total)
    total = math.fsum(
        orders[k] ** 2 * (orders[k] - 1) ** 2 * zeta2_diag[k - 1] / 2.0
        for k in range(1, kk + 1)
    )
    total += math.fsum(
        orders[k1] ** 2 * orders[k2] ** 2 * zeta2_cross[(k1, k2)]
        for k1 in range(1, kk + 1)
        for k2 in range(k1 + 1, kk + 1)
    )
    if zeta2_control is not None:
        total += orders[0] ** 2 * (orders[0] - 1) ** 2 * zeta2_control / (2.0 * s * s)
    if zeta2_control_cross is not None:
        total += math.fsum(
            orders[0] ** 2 * orders[k] ** 2 * zeta2_control_cross[k - 1] / s
            for k in range(1, kk + 1)
        )
    return float(total)


def estimate_zeta1k(
    data: GroupedSample,
    kernel: KernelSpec,
    spec: MultiClassSpec | None = None,
    k: int = 1,
    budget: int = 2000,
    seed: int = 0,
) -> float:
    """Variance over class-k points of the projection fixing one
    class-k observation and averaging the kernel over all other blocks.

    For ``multi_kendall`` the cross-class terms of the projection are
    constants and drop out of the variance, leaving the control-side
    sign average; with one rare class this is exactly the binary
    ``estimate_xi01``.  ``k = 0`` estimates the control-side projection
    variance needed by the subsampled variance formula.
    """
    if not 0 <= k < data.n_classes:
        raise ValidationError(f"class {k} out of range")
    if data.counts[k] < 2:
        raise DegenerateDataError(f"need at least two class-{k} points")
    points = data.group(k)
    if kernel.kind == "multi_kendall":
        pts = points[:, 0]
        if k >= 1:
            ctrl = np.sort(data.group(0)[:, 0])
            vals = sign_counts(ctrl, pts) / ctrl.size
        else:
            vals = np.zeros(pts.size)
            for cls_idx in range(1, data.n_classes):
                xs = np.sort(data.group(cls_idx)[:, 0])
                vals = vals + -sign_counts(xs, pts) / xs.size
        return float(vals.var(ddof=1))
    # generic kernels: Monte Carlo over tuples from the other classes
    rng = spawn_rng(seed)
    orders = kernel.block_orders
    if orders[k] < 1:
        raise ValidationError(f"kernel uses no class-{k} observations")
    vals = np.empty(points.shape[0])
    for i in range(points.shape[0]):
        acc = []
        for _ in range(budget):
            blocks = []
            for cls_idx in range(data.n_classes):
                rows = data.group(cls_idx)
                need = orders[cls_idx]
                if cls_idx == k:
                    rest = (
                        rows[rng.choice(rows.shape[0], need - 1, replace=False)]
                        if need > 1
                        else np.empty((0, rows.shape[1]))
                    )
                    blocks.append(np.vstack([points[i : i + 1], rest]))
                else:
                    blocks.append(rows[rng.choice(rows.shape[0], need, replace=False)])
            acc.append(evaluate(kernel, blocks))
        vals[i] = math.fsum(acc) / budget
    return float(vals.var(ddof=1))
