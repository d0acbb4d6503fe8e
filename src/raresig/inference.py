"""Variance estimation, null distributions, and power calculators.

First-order kernels get a normal null for sqrt(n1) * T with variance
``m1^2 * xi01`` (plus ``m0^2 * xi10 / s`` under subsampling);
second-order kernels in high dimension get a normal null for
``n1 * T / sqrt(xi02)`` with variance ``m1^2 (m1-1)^2 / 2``.  The
permutation test covers everything else (notably second-order kernels
at fixed dimension, whose weighted chi-square null has unknown
weights).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np
from scipy.stats import norm

from . import _accel
from .data import GroupedSample, LabeledSample, group_by_label
from .engine import RitStatistic, _pair_sum_statistic, _rit_from_sums, compute_rit
from .errors import DegenerateDataError, ValidationError
from .kernels import SECOND_ORDER_KINDS, KernelSpec, evaluate
from .rng import spawn_rng, spawn_seed
from .subsample import draw_subsample

__all__ = [
    "TestOutcome",
    "estimate_xi01",
    "estimate_xi10",
    "estimate_xi02",
    "condition_diagnostic",
    "pvalue_asymptotic_first",
    "pvalue_asymptotic_highdim",
    "pvalue_permutation",
    "power_first_order",
    "power_highdim",
    "local_power_threshold",
]

# Conditional expectation of the six-term second-order kernels given the
# two case slots: each case pairs with both control slots, so the plug-in
# combination D(x)+D(y)-|x-y|-gamma enters twice.
_PAIR_PROJECTION_SCALE = 2.0

_TINY_P = 5e-324  # keep p-values in (0, 1]


@dataclass(frozen=True, eq=False)
class TestOutcome:
    """Result of one hypothesis test."""

    statistic: float
    scaled_statistic: float
    variance_estimate: float
    p_value: float
    method: str
    metadata: dict = field(default_factory=dict)


def _first_order_only(spec: KernelSpec, what: str) -> None:
    if spec.order != "first":
        raise ValidationError(f"{what} applies to first-order kernels only")


def _second_order_only(spec: KernelSpec, what: str) -> None:
    if spec.order != "second":
        raise ValidationError(f"{what} applies to second-order kernels only")


# ---------------------------------------------------------------------------
# projection-variance estimators
# ---------------------------------------------------------------------------


def _h01_values(
    spec: KernelSpec, points: np.ndarray, controls: np.ndarray, budget: int, rng
) -> np.ndarray:
    """One-case projection evaluated at ``points`` (both arrays 2-d)."""
    kind = spec.kind
    if kind == "rescaled_pearson":
        return points[:, 0] - controls[:, 0].mean()
    if kind == "rescaled_kendall":
        ctrl = np.sort(controls[:, 0])
        pts = points[:, 0]
        less = np.searchsorted(ctrl, pts, side="left")
        greater = ctrl.size - np.searchsorted(ctrl, pts, side="right")
        return (less - greater) / ctrl.size
    if kind == "imbalanced_kendall":
        m = spec.params["m"]
        x0 = controls[:, 0]
        if math.comb(x0.size, m) <= budget:
            from itertools import combinations

            means = np.sort(
                [x0[list(c)].mean() for c in combinations(range(x0.size), m)]
            )
            pts = points[:, 0]
            less = np.searchsorted(means, pts, side="left")
            greater = means.size - np.searchsorted(means, pts, side="right")
            return (less - greater) / means.size
        out = np.empty(points.shape[0])
        for lo in range(0, points.shape[0], 256):
            hi = min(lo + 256, points.shape[0])
            idx = rng.integers(0, x0.size, size=(hi - lo, budget, m))
            means = x0[idx].mean(axis=2)
            out[lo:hi] = np.sign(points[lo:hi, 0:1] - means).mean(axis=1)
        return out
    # generic kernels: Monte Carlo tuples per point
    from .kernels import project_h01

    return np.array(
        [
            project_h01(spec, points[i], controls, budget, int(rng.integers(2**31)))
            for i in range(points.shape[0])
        ]
    )


def estimate_xi01(
    data: GroupedSample,
    kernel: KernelSpec,
    budget: int = 2000,
    seed: int = 0,
    basis: str = "cases",
) -> float:
    """Variance of the one-case projection.

    The projection is evaluated at the case points by default
    (``basis="cases"``); under the null the controls follow the same
    law and give a far less noisy estimate, so harness code passes
    ``basis="controls"``.  ``budget`` caps the number of control tuples
    per evaluation point for kernels without a closed projection.
    """
    _first_order_only(kernel, "estimate_xi01")
    if budget < 30:
        raise ValidationError("budget must be at least 30 tuples")
    if data.counts[1] < 2:
        raise DegenerateDataError("need at least two cases to estimate xi01")
    if basis not in ("cases", "controls"):
        raise ValidationError("basis must be 'cases' or 'controls'")
    points = data.group(1) if basis == "cases" else data.group(0)
    vals = _h01_values(kernel, points, data.group(0), budget, spawn_rng(seed))
    return float(vals.var(ddof=1))


def _h10_values(
    spec: KernelSpec, points: np.ndarray, data: GroupedSample, budget: int, rng
) -> np.ndarray:
    """One-control projection evaluated at ``points``."""
    cases = data.group(1)
    kind = spec.kind
    if kind == "rescaled_pearson":
        return cases[:, 0].mean() - points[:, 0]
    if kind == "rescaled_kendall":
        cs = np.sort(cases[:, 0])
        pts = points[:, 0]
        greater = cs.size - np.searchsorted(cs, pts, side="right")
        less = np.searchsorted(cs, pts, side="left")
        return (greater - less) / cs.size
    if kind == "imbalanced_kendall":
        m = spec.params["m"]
        x0 = data.group(0)[:, 0]
        x1 = cases[:, 0]
        out = np.empty(points.shape[0])
        for lo in range(0, points.shape[0], 256):
            hi = min(lo + 256, points.shape[0])
            k = hi - lo
            others = (
                x0[rng.integers(0, x0.size, size=(k, budget, m - 1))].sum(axis=2)
                if m > 1
                else np.zeros((k, budget))
            )
            case_draw = x1[rng.integers(0, x1.size, size=(k, budget))]
            block_mean = (points[lo:hi, 0:1] + others) / m
            out[lo:hi] = np.sign(case_draw - block_mean).mean(axis=1)
        return out
    # generic: average the kernel over tuples completing the blocks
    m0, m1 = spec.m0, spec.m1
    x0, x1 = data.group(0), data.group(1)
    out = np.empty(points.shape[0])
    for i in range(points.shape[0]):
        vals = []
        for _ in range(budget):
            rest = (
                x0[rng.choice(x0.shape[0], m0 - 1, replace=False)]
                if m0 > 1
                else np.empty((0, x0.shape[1]))
            )
            ctrl_block = np.vstack([points[i : i + 1], rest])
            case_block = x1[rng.choice(x1.shape[0], m1, replace=False)]
            vals.append(evaluate(spec, [ctrl_block, case_block]))
        out[i] = math.fsum(vals) / budget
    return out


def estimate_xi10(
    data: GroupedSample,
    kernel: KernelSpec,
    budget: int = 2000,
    seed: int = 0,
    basis: str = "controls",
) -> float:
    """Variance of the one-control projection (mirror of
    :func:`estimate_xi01` with the class roles exchanged)."""
    _first_order_only(kernel, "estimate_xi10")
    if budget < 30:
        raise ValidationError("budget must be at least 30 tuples")
    if data.counts[0] < 2:
        raise DegenerateDataError("need at least two controls to estimate xi10")
    if basis not in ("cases", "controls"):
        raise ValidationError("basis must be 'cases' or 'controls'")
    points = data.group(0) if basis == "controls" else data.group(1)
    vals = _h10_values(kernel, points, data, budget, spawn_rng(seed))
    return float(vals.var(ddof=1))


def _pair_projection_matrix(
    data: GroupedSample, kernel: KernelSpec, reference: str
) -> np.ndarray:
    """Plug-in two-case projection over all case pairs, scaled to the
    full conditional expectation of the kernel."""
    _second_order_only(kernel, "the pair projection")
    cases = data.group(1)
    ref = data.group(0) if reference == "controls" else np.vstack(data.groups)
    n_ref = ref.shape[0]
    d_to_ref = _accel.cross_rowsum(kernel, cases, ref) / n_ref
    gamma = 2.0 * _accel.within_sum(kernel, ref) / (n_ref * n_ref)
    pair = _accel.pair_matrix(kernel, cases)
    h = _PAIR_PROJECTION_SCALE * (d_to_ref[:, None] + d_to_ref[None, :] - pair - gamma)
    np.fill_diagonal(h, 0.0)
    return h


def _checked_pair_projection(
    data: GroupedSample, kernel: KernelSpec, reference: str
) -> np.ndarray:
    if reference not in ("controls", "pooled"):
        raise ValidationError("reference must be 'controls' or 'pooled'")
    if data.counts[1] < 3:
        raise DegenerateDataError(
            "need at least three cases (two give a single pair, no variance)"
        )
    return _pair_projection_matrix(data, kernel, reference)


def _xi02_from(h: np.ndarray) -> float:
    iu = np.triu_indices(h.shape[0], k=1)
    return float(h[iu].var(ddof=1))


def _condition_ratio_from(h: np.ndarray) -> float:
    n1 = h.shape[0]
    off = ~np.eye(n1, dtype=bool)
    eh2 = float((h[off] ** 2).mean())
    eh4 = float((h[off] ** 4).mean())
    g = (h @ h) / n1
    eg2 = float((g[off] ** 2).mean())
    if eh2 <= 0:
        raise DegenerateDataError("pair projection is identically zero")
    return (eg2 + eh4 / n1) / (eh2 * eh2)


def estimate_xi02(
    data: GroupedSample, kernel: KernelSpec, reference: str = "controls"
) -> float:
    """Variance over case pairs of the plug-in two-case projection.

    ``reference`` selects the rows the projection integrates over:
    ``"controls"`` (default; they dominate the data and share the case
    law under the null) or ``"pooled"``.
    """
    return _xi02_from(_checked_pair_projection(data, kernel, reference))


def condition_diagnostic(
    data: GroupedSample, kernel: KernelSpec, reference: str = "controls"
) -> float:
    """Plug-in estimate of the high-dimensional CLT condition ratio.

    Small values support the normal null used by
    :func:`pvalue_asymptotic_highdim`; the ratio is
    ``(E[G^2] + E[h^4]/n1) / E[h^2]^2`` with
    ``G(x,y) = E[h(X,x) h(X,y)]``, all moments taken over case pairs.
    """
    return _condition_ratio_from(_checked_pair_projection(data, kernel, reference))


# ---------------------------------------------------------------------------
# asymptotic p-values
# ---------------------------------------------------------------------------


def _two_sided_p(z_abs: float) -> float:
    return max(2.0 * float(norm.sf(z_abs)), _TINY_P)


def pvalue_asymptotic_first(
    stat: RitStatistic,
    xi01: float,
    s: int | None = None,
    xi10: float | None = None,
) -> TestOutcome:
    """Two-sided normal p-value for sqrt(n1) * T.

    Variance is ``m1^2 * xi01`` for the full-sample statistic; pass the
    sampling ratio ``s`` and ``xi10`` for the subsampled one.
    """
    if stat.order != "first":
        raise ValidationError("asymptotic_first applies to first-order kernels only")
    if xi01 <= 0:
        raise DegenerateDataError(
            "degenerate: xi01 <= 0; use permutation or the second-order path"
        )
    m0, m1 = stat.kernel.m0, stat.kernel.m1
    var = m1 * m1 * xi01
    if s is not None:
        if xi10 is None:
            raise ValidationError("subsampled inference needs xi10")
        var += m0 * m0 * xi10 / s
    scaled = math.sqrt(stat.n1) * stat.value
    p = _two_sided_p(abs(scaled) / math.sqrt(var))
    return TestOutcome(
        stat.value,
        scaled,
        var,
        p,
        "asymptotic_first",
        {"kernel": stat.kernel.kind, "n0": stat.n0, "n1": stat.n1, "s": s,
         "xi01": xi01, "xi10": xi10},
    )


def pvalue_asymptotic_highdim(stat: RitStatistic, xi02: float) -> TestOutcome:
    """Two-sided normal p-value for n1 * T / sqrt(xi02) with variance
    ``m1^2 (m1-1)^2 / 2``.  Valid in the high-dimensional regime; the
    caller asserts that (see :func:`condition_diagnostic`)."""
    if stat.order != "second":
        raise ValidationError("asymptotic_highdim applies to second-order kernels only")
    if xi02 <= 0:
        raise DegenerateDataError("xi02 must be positive")
    m1 = stat.kernel.m1
    scaled = stat.n1 * stat.value
    sd = m1 * (m1 - 1) / math.sqrt(2.0)
    p = _two_sided_p(abs(scaled / math.sqrt(xi02)) / sd)
    return TestOutcome(
        stat.value,
        scaled,
        xi02,
        p,
        "asymptotic_highdim",
        {"kernel": stat.kernel.kind, "n0": stat.n0, "n1": stat.n1, "xi02": xi02},
    )


# ---------------------------------------------------------------------------
# permutation test
# ---------------------------------------------------------------------------


def _permutation_stats(statistic, labels: np.ndarray, B: int, seed: int) -> np.ndarray:
    """``statistic`` at the observed ``labels``, then at B uniform
    permutations of them, permutation b drawn from ``spawn_rng(seed, 2, b)``."""
    stats = np.empty(B + 1)
    stats[0] = statistic(labels)
    for b in range(1, B + 1):
        stats[b] = statistic(labels[spawn_rng(seed, 2, b).permutation(labels.size)])
    return stats


def _regroup_statistic(pool: LabeledSample, kernel: KernelSpec):
    """``labels -> statistic`` that regroups the rows of ``pool`` and
    recomputes the full-sample statistic on them."""
    if kernel.n_blocks > 2 or kernel.kind == "multi_kendall":
        from .multiclass import compute_multi_rit as rit
    else:
        rit = compute_rit
    return lambda labels: rit(group_by_label(pool.with_labels(labels)), kernel).value


def _thinned_pool(
    sample: LabeledSample, grouped: GroupedSample, kernel: KernelSpec, s: int, seed: int
) -> tuple:
    """The rare-class rows and the controls kept by the plan from
    ``(seed, 1)``, in their original order, and the plan's constant
    C(realized, m0) / C(s n1, m0)."""
    if kernel.n_blocks > 2 or kernel.kind == "multi_kendall":
        from .multiclass import _check_comparable

        _check_comparable(grouped, kernel)
    plan = draw_subsample(grouped, s, spawn_seed(seed, 1), kernel.m0)
    keep = sample.labels != 0
    keep[grouped.indices[0][plan.inclusion]] = True
    pool = LabeledSample(sample.features[keep], sample.labels[keep])
    return pool, plan.ratio(grouped.counts[1], kernel.m0)


def pvalue_permutation(
    sample: LabeledSample,
    kernel: KernelSpec,
    B: int = 999,
    seed: int = 0,
    s: int | None = None,
) -> TestOutcome:
    """Label-permutation p-value with the add-one estimator.

    Each permutation reshuffles the labels uniformly (class counts
    preserved); permuted values tying the observed one count toward
    rejection.

    Under subsampling the test conditions on one thinning plan: the plan
    ``run_test`` uses under every null (``draw_subsample`` with seed
    ``spawn_seed(seed, 1)``), whose statistic is the observed one.  The
    labels are then permuted only within the cases and the kept
    controls, and each value carries the plan's constant
    C(realized, m0) / C(s n1, m0).  The plan depends on the class counts
    and the seed only, not on the features, so under the null the cases
    and the kept controls are i.i.d. given the plan and their labels are
    exchangeable: the conditional null is exact.  It costs
    O(p (s n1)^2) once, not a regrouping of all n rows per permutation.

    For the binary pairwise kernels the pooled row sums are computed
    once and each permutation sums only the case pairs
    (``metadata["batched"]``, see :func:`engine._pair_sum_statistic`);
    other kernels regroup and recompute the statistic per permutation.
    """
    if B < 19:
        raise ValidationError("need at least 19 permutations")
    grouped = group_by_label(sample)
    pool, ratio = sample, 1.0
    if s is not None:
        pool, ratio = _thinned_pool(sample, grouped, kernel, s, seed)
    batched = kernel.kind in SECOND_ORDER_KINDS and sample.n_classes == 2
    statistic = (
        _pair_sum_statistic(pool.features, kernel, _rit_from_sums)
        if batched
        else _regroup_statistic(pool, kernel)
    )
    stats = ratio * _permutation_stats(statistic, pool.labels, B, seed)
    t_obs = stats[0]
    count = int((np.abs(stats[1:]) >= abs(t_obs)).sum())
    p = (1 + count) / (B + 1)
    n1 = grouped.counts[1]
    scale = math.sqrt(n1) if kernel.order == "first" else n1
    null_var = float((scale * stats[1:]).var(ddof=1))
    return TestOutcome(
        float(t_obs),
        float(scale * t_obs),
        null_var,
        p,
        "permutation",
        {
            "kernel": kernel.kind,
            "n0": grouped.counts[0],
            "n1": n1,
            "B": B,
            "s": s,
            "seed": seed,
            "batched": batched,
        },
    )


# ---------------------------------------------------------------------------
# power calculators
# ---------------------------------------------------------------------------


def power_first_order(
    mu0: float,
    n1: int,
    m0: int,
    m1: int,
    xi01: float,
    alpha: float,
    s: int | None = None,
    xi10: float | None = None,
) -> float:
    """Two-sided power of the first-order test against mean shift ``mu0``.

    With ``s`` (and ``xi10``) the subsampled variance applies; at
    ``mu0 = 0`` the value is exactly ``alpha``.
    """
    if xi01 <= 0 or n1 < 1:
        raise ValidationError("need xi01 > 0 and n1 >= 1")
    var = m1 * m1 * xi01 / n1
    if s is not None:
        if xi10 is None:
            raise ValidationError("subsampled power needs xi10")
        var += m0 * m0 * xi10 / (s * n1)
    ncp = mu0 / math.sqrt(var)
    lo = norm.ppf(alpha / 2)
    hi = norm.ppf(1 - alpha / 2)
    return float(1.0 + norm.cdf(lo - ncp) - norm.cdf(hi - ncp))


def power_highdim(mu0: float, n1: int, m1: int, xi02: float, alpha: float) -> float:
    """Two-sided power of the high-dimensional second-order test; the
    shift enters at rate n1 (not sqrt(n1))."""
    if xi02 <= 0:
        raise ValidationError("need xi02 > 0")
    ncp = mu0 * n1 / (m1 * (m1 - 1) * math.sqrt(xi02))
    lo = norm.ppf(alpha / 2)
    hi = norm.ppf(1 - alpha / 2)
    return float(norm.cdf(lo - ncp) + 1.0 - norm.cdf(hi - ncp))


def local_power_threshold(
    beta: float, alpha: float, mu_g1: float, xi_eff: float
) -> float:
    """Detection threshold for mixture alternatives whose weight shrinks
    like ``delta0 / sqrt(n1)``:
    ``C = (ppf(1-alpha/2) - ppf(1-beta)) * sqrt(xi_eff) / |mu_g1|``.

    For the subsampled test pass
    ``xi_eff = xi01 + m0^2 * xi10 / (s * m1^2)``; its larger variance
    always yields a larger threshold.  C increases with ``beta``.
    """
    if mu_g1 == 0:
        raise ValidationError("mu_g1 must be non-zero")
    if not 0 < beta < 1 - alpha:
        raise ValidationError("need 0 < beta < 1 - alpha")
    if xi_eff <= 0:
        raise ValidationError("xi_eff must be positive")
    return float(
        (norm.ppf(1 - alpha / 2) - norm.ppf(1 - beta))
        * math.sqrt(xi_eff)
        / abs(mu_g1)
    )
