"""Control subsampling: thinning plans, the subsampled statistic, and
rules for choosing the sampling ratio.

Keeping every case and an expected ``s * n1`` Bernoulli-thinned subset
of the controls preserves the convergence behaviour of the full-sample
statistic at a fraction of the cost; the price is a control term
``m0^2 * xi10 / s`` in the asymptotic variance (the full sample's s is
n0 / n1).
:func:`compute_bit` is the one subsampled statistic, for binary and
multi-class kernels alike; a test draws its plan once and every null
reads the same kept rows.  The three ``select_s_*`` rules bound,
respectively, the variance inflation, a target power floor, and the
power gap to the full-sample test.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .data import GroupedSample
from .engine import RitStatistic, _check_sizes, compute_rit
from .errors import DegenerateDataError, ValidationError
from .kernels import KernelSpec
from .multiclass import (_STD_NORMAL, MultiClassSpec, _check_finite, _normal_ppf,
                         _variance_parts)
from .rng import spawn_rng

__all__ = [
    "SubsamplePlan",
    "draw_subsample",
    "compute_bit",
    "select_s_variance",
    "select_s_power_floor",
    "select_s_power_gap",
]

REDRAW_ATTEMPTS = 100


@dataclass(frozen=True, eq=False)
class SubsamplePlan:
    """Bernoulli inclusion indicators for the controls.

    Each control is kept independently with probability ``s * n1 / n0``.
    ``realized_count`` is the number actually kept; the statistic's
    normalization deliberately uses ``s * n1`` instead.
    """

    s: int
    inclusion: np.ndarray
    seed: int
    realized_count: int
    attempts: int = 1

    @property
    def n0(self) -> int:
        return int(self.inclusion.size)

    def ratio(self, n1: int, m0: int) -> float:
        """C(realized, m0) / C(s n1, m0): renormalizes a kernel average
        over the kept controls to the C(s n1, m0) expected blocks."""
        return math.comb(self.realized_count, m0) / math.comb(self.s * n1, m0)


def draw_subsample(
    data: GroupedSample, s: int, seed: int = 0, min_include: int = 1
) -> SubsamplePlan:
    """Draw inclusion indicators for the controls of ``data``.

    Deterministic given ``seed``.  If fewer than ``min_include``
    controls come out (possible when ``s * n1`` is tiny), the draw is
    retried on the next derived substream, up to 100 attempts; callers
    that need ``m0`` controls per kernel block should pass
    ``min_include=m0``.
    """
    if int(s) != s or s < 2:
        raise ValidationError("the sampling ratio s must be an integer >= 2")
    s = int(s)
    n0, n1 = data.counts[0], data.counts[1]
    if s * n1 > n0:
        raise ValidationError(
            f"ratio exceeds 1: s*n1 = {s * n1} > n0 = {n0}; "
            "run the full-sample test instead"
        )
    q = s * n1 / n0
    for attempt in range(REDRAW_ATTEMPTS):
        rng = spawn_rng(seed, attempt)
        delta = rng.random(n0) < q
        realized = int(delta.sum())
        if realized >= min_include:
            delta.flags.writeable = False
            return SubsamplePlan(s, delta, seed, realized, attempt + 1)
    raise DegenerateDataError(
        f"could not draw {min_include} controls in {REDRAW_ATTEMPTS} attempts "
        f"(inclusion probability {q:.3g})"
    )


def _kept_sample(
    data: GroupedSample, kernel: KernelSpec, plan: SubsamplePlan
) -> GroupedSample:
    """The cases and the controls ``plan`` keeps, over the same source:
    the rows every subsampled quantity reads.  Refuses a kernel that does
    not fit the data (see :func:`raresig.engine.compute_rit`), a plan
    drawn for another n0 and a plan that keeps fewer than m0 controls."""
    _check_sizes(data, kernel)
    if plan.n0 != data.counts[0]:
        raise ValidationError(
            f"plan drawn for n0 = {plan.n0}, data has n0 = {data.counts[0]}"
        )
    if plan.realized_count < kernel.m0:
        raise DegenerateDataError(
            f"plan kept {plan.realized_count} controls, kernel needs {kernel.m0}; "
            f"redraw with min_include={kernel.m0}"
        )
    return data.keep_controls(plan.inclusion)


def _kept_statistic(
    kept: GroupedSample, kernel: KernelSpec, plan: SubsamplePlan, seed: int = 0
) -> RitStatistic:
    """The subsampled statistic from the rows of :func:`_kept_sample`."""
    base = compute_rit(kept, kernel, seed=seed)
    n1 = kept.counts[1]
    meta = {**base.meta, "s": plan.s, "realized_count": plan.realized_count,
            "expected_count": plan.s * n1}
    return replace(base, value=base.value * plan.ratio(n1, kernel.m0), n0=plan.n0,
                   algorithm=base.algorithm + "+subsample", meta=meta)


def compute_bit(
    data: GroupedSample, kernel: KernelSpec, plan: SubsamplePlan, seed: int = 0
) -> RitStatistic:
    """Subsampled statistic of any kernel, binary or multi-class: the
    full-sample statistic on the cases and the controls ``plan`` keeps,
    times C(realized, m0) / C(s n1, m0), so that it is normalized by
    C(s n1, m0) * C(n1, m1) blocks.

    Equals the full-sample statistic exactly when every control is
    included and ``s * n1 == n0``.
    """
    return _kept_statistic(_kept_sample(data, kernel, plan), kernel, plan, seed)


# ---------------------------------------------------------------------------
# selection of the sampling ratio
# ---------------------------------------------------------------------------


def _clamp_s(bound: float) -> int:
    if not math.isfinite(bound):
        raise ValidationError("no finite sampling ratio meets the target")
    return max(2, math.ceil(bound))


def select_s_variance(n1: int, epsilon: float) -> int:
    """Smallest s keeping the asymptotic-variance inflation within
    ``epsilon``: s >= 1 / (n1 * epsilon), clamped to at least 2."""
    if not 0 < epsilon < math.inf:
        raise ValidationError("epsilon must be positive and finite")
    if n1 < 1:
        raise ValidationError("n1 must be positive")
    return _clamp_s(1.0 / (n1 * epsilon))


def _check_rule_inputs(n1: int, xi01: float, xi10: float, mu0: float,
                       **levels: float) -> None:
    """The input check of the power rules: finite xi01, xi10 and mu0,
    n1 >= 1, xi01 > 0 (a degenerate kernel has no first-order power),
    xi10 >= 0, and each level in (0, 1)."""
    _check_finite(xi01=xi01, xi10=xi10, mu0=mu0)
    if n1 < 1 or xi01 <= 0 or xi10 < 0:
        raise ValidationError("the power rules need n1 >= 1, xi01 > 0 (not "
                              "applicable to degenerate kernels) and xi10 >= 0")
    for name, level in levels.items():
        if not 0 < level < 1:
            raise ValidationError(f"{name} must lie in (0, 1)")


def select_s_power_floor(
    n1: int,
    m0: int,
    m1: int,
    xi01: float,
    xi10: float,
    mu0: float,
    alpha: float,
    beta: float,
) -> int:
    """Smallest s whose two-sided test at level ``alpha`` keeps power at
    least ``beta`` against a mean shift ``mu0``.

    Infeasible (raises) when even the full-sample variance exceeds what
    the power target allows at this ``n1``.
    """
    _check_rule_inputs(n1, xi01, xi10, mu0, alpha=alpha, beta=beta)
    d = _normal_ppf(1 - alpha / 2) - _normal_ppf(1 - beta)
    full, control = _variance_parts(MultiClassSpec(1, (m0, m1), (1.0,)), [xi10, xi01])
    denom = n1 * mu0 * mu0 / (d * d) - full
    if denom <= 0:
        raise ValidationError(
            f"infeasible: target power {beta} unreachable at n1 = {n1}"
        )
    return _clamp_s(control / denom)


def select_s_power_gap(
    n1: int,
    m0: int,
    m1: int,
    xi01: float,
    xi10: float,
    mu0: float,
    alpha: float,
    epsilon: float,
) -> int:
    """Smallest s keeping the power gap between the subsampled and
    full-sample tests within ``epsilon`` (first-order expansion)."""
    _check_rule_inputs(n1, xi01, xi10, mu0, alpha=alpha)
    if not 0 < epsilon < math.inf:
        raise ValidationError("epsilon must be positive and finite")
    mu = abs(mu0)
    full, control = _variance_parts(MultiClassSpec(1, (m0, m1), (1.0,)), [xi10, xi01])
    phi_term = _STD_NORMAL.pdf(_normal_ppf(1 - alpha / 2) - mu * math.sqrt(n1 / full))
    return _clamp_s(math.sqrt(n1) * control * mu * phi_term
                    / (2.0 * epsilon * full**1.5))
