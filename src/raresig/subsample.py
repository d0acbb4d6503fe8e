"""Control subsampling: thinning plans, the subsampled statistic, and
rules for choosing the sampling ratio.

Keeping every case and an expected ``s * n1`` Bernoulli-thinned subset
of the controls preserves the convergence behaviour of the full-sample
statistic at a fraction of the cost; the price is an extra
``m0^2 * xi10 / s`` term in the asymptotic variance.  The three
``select_s_*`` rules bound, respectively, the variance inflation, a
target power floor, and the power gap to the full-sample test.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.stats import norm

from .data import GroupedSample
from .engine import RitStatistic, compute_rit
from .errors import DegenerateDataError, ValidationError
from .kernels import KernelSpec
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


def thin_controls(data: GroupedSample, plan: SubsamplePlan) -> GroupedSample:
    """``data`` with the control block restricted to the included rows."""
    if plan.n0 != data.counts[0]:
        raise ValidationError(
            f"plan drawn for n0 = {plan.n0}, data has n0 = {data.counts[0]}"
        )
    groups = (data.group(0)[plan.inclusion],) + data.groups[1:]
    counts = (plan.realized_count,) + data.counts[1:]
    indices = (data.indices[0][plan.inclusion],) + data.indices[1:]
    return GroupedSample(groups, counts, indices)


def compute_bit(
    data: GroupedSample, kernel: KernelSpec, plan: SubsamplePlan, seed: int = 0
) -> RitStatistic:
    """Subsampled statistic: the kernel average over included controls
    only, normalized by C(s*n1, m0) * C(n1, m1).

    Equals ``compute_rit`` exactly when every control is included and
    ``s * n1 == n0``.
    """
    n1 = data.counts[1]
    if plan.realized_count < kernel.m0:
        raise DegenerateDataError(
            f"plan kept {plan.realized_count} controls, kernel needs {kernel.m0}; "
            f"redraw with min_include={kernel.m0}"
        )
    thinned = thin_controls(data, plan)
    base = compute_rit(thinned, kernel, seed=seed)
    ratio = plan.ratio(n1, kernel.m0)
    meta = dict(base.meta)
    meta.update(
        {"s": plan.s, "realized_count": plan.realized_count, "expected_count": plan.s * n1}
    )
    return RitStatistic(
        base.value * ratio,
        kernel,
        kernel.order,
        data.counts[0],
        n1,
        base.algorithm + "+subsample",
        meta,
    )


# ---------------------------------------------------------------------------
# selection of the sampling ratio
# ---------------------------------------------------------------------------


def _clamp_s(bound: float) -> int:
    return max(2, math.ceil(bound))


def select_s_variance(n1: int, epsilon: float) -> int:
    """Smallest s keeping the asymptotic-variance inflation within
    ``epsilon``: s >= 1 / (n1 * epsilon), clamped to at least 2."""
    if epsilon <= 0:
        raise ValidationError("epsilon must be positive")
    if n1 < 1:
        raise ValidationError("n1 must be positive")
    return _clamp_s(1.0 / (n1 * epsilon))


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
    if not 0 < alpha < 1 or not 0 < beta < 1:
        raise ValidationError("alpha and beta must lie in (0, 1)")
    d = norm.ppf(1 - alpha / 2) - norm.ppf(1 - beta)
    denom = n1 * mu0 * mu0 / (d * d) - m1 * m1 * xi01
    if denom <= 0:
        raise ValidationError(
            f"infeasible: target power {beta} unreachable at n1 = {n1}"
        )
    return _clamp_s(m0 * m0 * xi10 / denom)


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
    if xi01 <= 0:
        raise ValidationError(
            "power-gap rule needs xi01 > 0 (not applicable to degenerate kernels)"
        )
    if epsilon <= 0:
        raise ValidationError("epsilon must be positive")
    mu = abs(mu0)
    phi_term = norm.pdf(norm.ppf(1 - alpha / 2) - mu * math.sqrt(n1 / (m1 * m1 * xi01)))
    bound = (
        math.sqrt(n1) * m0 * m0 * mu * xi10 * phi_term
        / (2.0 * epsilon * m1**3 * xi01**1.5)
    )
    return _clamp_s(bound)
