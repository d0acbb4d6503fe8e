"""Variance estimation, null distributions, and power calculators.

Both normal nulls take the controls at a ratio s: a subsampled
statistic's sampling ratio, or n0/n1 for the full sample (which keeps
every control); the power calculators' None is the limit n1/n0 -> 0.
First-order kernels get a normal null for sqrt(n1) * T; its variance,
sum_k m_k^2 zeta_k / r_k over the rare classes plus m_0^2 zeta_0 / s,
is :func:`raresig.multiclass.multi_asymptotic_variance`, which reduces
to m1^2 xi01 + m0^2 xi10 / s for one rare class, xi01 and xi10 being
:func:`raresig.multiclass.estimate_zeta1k` at k = 1, 0.
Second-order kernels in high dimension get a normal null for n1 * T;
its variance, 2 xi02 (1 + 1/s)^2, is the K = 1
:func:`raresig.multiclass.multi_second_order_variance` through the H0
identities of :func:`_highdim_variance`.  xi02, the variance
over case pairs of the projection
h = 2 (D(x) + D(y) - d(x, y) - gamma), does not move with the constant
gamma, so it reads no control pair; only the condition ratio applies
gamma, from the statistic's within-control sum.  The permutation test
covers everything else (notably second-order kernels at fixed
dimension, whose weighted chi-square null has unknown weights).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from . import _accel
from .data import GroupedSample
from .engine import RitStatistic, _check_sizes, _pooled_statistic, compute_rit
from .errors import DegenerateDataError, ValidationError
from .kernels import SECOND_ORDER_KINDS, KernelSpec
from .multiclass import (
    MultiClassSpec,
    _check_finite,
    _normal_cdf,
    _normal_ppf,
    _normal_sf,
    multi_asymptotic_variance,
    multi_second_order_variance,
)
from .rng import spawn_rng
from .subsample import SubsamplePlan, _kept_sample

__all__ = [
    "TestOutcome",
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

# most cases the pair projection takes: its n1 x n1 arrays, through the
# condition ratio, peak at about 25 n1^2 bytes (625 MB at the guard)
PAIR_PROJECTION_GUARD = 5_000

# relabelings per generator and per call of the statistic
PERMUTATION_CHUNK = 64


@dataclass(frozen=True, eq=False)
class TestOutcome:
    """Result of one hypothesis test."""

    statistic: float
    scaled_statistic: float
    variance_estimate: float
    p_value: float
    method: str
    metadata: dict = field(default_factory=dict)


# ---------------------------------------------------------------------------
# projection-variance estimators
# ---------------------------------------------------------------------------


def _check_pair_guard(n1: int) -> None:
    """Refuse more than ``PAIR_PROJECTION_GUARD`` cases, before any pair
    sum of a high-dimensional null is taken."""
    if n1 > PAIR_PROJECTION_GUARD:
        raise ValidationError(f"{n1} cases exceed the pair-projection guard "
                              f"{PAIR_PROJECTION_GUARD}; use permutation inference")


def _pair_projection(data: GroupedSample, kernel: KernelSpec, case_rowsums=None):
    """h0[i, j] = 2 (D(x_i) + D(x_j) - d(x_i, x_j)) over case pairs, zero
    diagonal: the plug-in two-case projection without its constant
    -2 gamma, with D the mean of d to the controls from each case's sum
    to them (``case_rowsums``, computed when None).  More than
    ``PAIR_PROJECTION_GUARD`` cases are refused before any pair is summed.
    """
    if kernel.order != "second":
        raise ValidationError("the pair projection applies to second-order kernels only")
    n1 = data.counts[1]
    if n1 < 3:
        raise DegenerateDataError(
            "need at least three cases (two give a single pair, no variance)"
        )
    _check_pair_guard(n1)
    cases = data.group(1)
    if case_rowsums is None:
        case_rowsums = _accel.cross_rowsum(kernel, cases, data.group(0))
    d = case_rowsums / data.counts[0]
    h = _accel.pair_matrix(kernel, cases)
    np.subtract(d[:, None] + d[None, :], h, out=h)
    h *= _PAIR_PROJECTION_SCALE
    np.fill_diagonal(h, 0.0)
    return h


def _xi02_from(h0: np.ndarray) -> float:
    return float(h0[~np.tri(h0.shape[0], dtype=bool)].var(ddof=1))


def _condition_ratio_from(h0: np.ndarray, gamma: float) -> float:
    """The condition ratio of the projection h = h0 - 2 gamma (off the
    diagonal), with gamma the mean of d over all n0^2 ordered control
    pairs.  ``h0`` is shifted in place into h, so that one n1 x n1
    projection is live."""
    n1 = h0.shape[0]
    h = h0
    h -= _PAIR_PROJECTION_SCALE * gamma
    np.fill_diagonal(h, 0.0)
    off = ~np.eye(n1, dtype=bool)
    eh2 = float((h[off] ** 2).mean())
    eh4 = float((h[off] ** 4).mean())
    g = (h @ h) / n1
    eg2 = float((g[off] ** 2).mean())
    if eh2 <= 0:
        raise DegenerateDataError("pair projection is identically zero")
    return (eg2 + eh4 / n1) / (eh2 * eh2)


def _highdim_summary(data: GroupedSample, kernel: KernelSpec, stat: RitStatistic):
    """``(xi02, condition ratio)`` from the pair sums that ``stat``, the
    pairwise statistic of ``data``, keeps."""
    h0 = _pair_projection(data, kernel, stat.meta["case_rowsums"])
    xi02 = _xi02_from(h0)
    return xi02, _condition_ratio_from(h0, stat.meta["s00"] / data.counts[0] ** 2)


def estimate_xi02(data: GroupedSample, kernel: KernelSpec) -> float:
    """Variance over case pairs of the plug-in two-case projection,
    integrated over the controls (they dominate the data and share the
    case law under the null).  It reads no control pair: O(p n0 n1 +
    p n1^2)."""
    return _xi02_from(_pair_projection(data, kernel))


def condition_diagnostic(data: GroupedSample, kernel: KernelSpec) -> float:
    """Plug-in estimate of the high-dimensional CLT condition ratio.

    Small values support the normal null used by
    :func:`pvalue_asymptotic_highdim`; the ratio is
    ``(E[G^2] + E[h^4]/n1) / E[h^2]^2`` with
    ``G(x,y) = E[h(X,x) h(X,y)]``, all moments taken over case pairs.
    It reads the pair sums of :func:`raresig.engine.compute_rit`.
    """
    if kernel.kind not in SECOND_ORDER_KINDS:
        raise ValidationError(f"{kernel.kind} has no pair function")
    _check_pair_guard(data.counts[1])
    return _highdim_summary(data, kernel, compute_rit(data, kernel))[1]


# ---------------------------------------------------------------------------
# asymptotic p-values
# ---------------------------------------------------------------------------


def _normal_outcome(stat: RitStatistic, scaled: float, variance: float, method: str,
                    **meta) -> TestOutcome:
    """The two-sided normal p-value of ``scaled``, a statistic with
    asymptotic variance ``variance``: max(2 sf(|scaled| / sqrt(variance)),
    5e-324)."""
    if variance <= 0:
        raise DegenerateDataError("degenerate: variance <= 0; use permutation")
    p = max(2.0 * _normal_sf(abs(scaled) / math.sqrt(variance)), _TINY_P)
    return TestOutcome(stat.value, scaled, variance, p, method,
                       {"kernel": stat.kernel.kind, "n0": stat.n0, "n1": stat.n1, **meta})


def pvalue_asymptotic_first(stat: RitStatistic, variance: float) -> TestOutcome:
    """Two-sided normal p-value for sqrt(n1) * T with asymptotic variance
    ``variance``, for one rare class or several
    (:func:`raresig.multiclass.multi_asymptotic_variance`)."""
    if stat.kernel.order != "first":
        raise ValidationError("asymptotic_first applies to first-order kernels only")
    return _normal_outcome(stat, math.sqrt(stat.n1) * stat.value, variance,
                           "asymptotic_first")


def _highdim_variance(orders: tuple, xi02: float, s: int | None) -> float:
    """Var(n1 T) of a binary six-term kernel with block ``orders`` and
    case-pair projection variance ``xi02``: the K = 1
    :func:`raresig.multiclass.multi_second_order_variance` with the H0
    identities (Hoeffding 1948) zeta_00 = xi02, as a control pair projects
    like a case pair, and zeta_01 = xi02 / 4, as a case and a control
    project to -h/2.  At m0 = m1 = 2 it is 2 xi02 (1 + 1/s)^2."""
    spec = MultiClassSpec(1, orders, (1.0,))
    return multi_second_order_variance(spec, [xi02], {}, s, xi02, [xi02 / 4.0])


def pvalue_asymptotic_highdim(stat: RitStatistic, xi02: float) -> TestOutcome:
    """Two-sided normal p-value for n1 * T, whose variance is
    :func:`_highdim_variance` at the statistic's control ratio
    ``stat.meta["s"]``.  Valid when the dimension grows with the sample;
    the caller asserts that (see :func:`condition_diagnostic`)."""
    if stat.kernel.order != "second":
        raise ValidationError("asymptotic_highdim applies to second-order kernels only")
    variance = _highdim_variance(stat.kernel.block_orders, xi02, stat.meta["s"])
    return _normal_outcome(stat, stat.n1 * stat.value, variance, "asymptotic_highdim",
                           xi02=xi02)


# ---------------------------------------------------------------------------
# permutation test
# ---------------------------------------------------------------------------


def _ordered_draws(rng, n: int, m: int) -> np.ndarray:
    """``PERMUTATION_CHUNK`` rows of m distinct positions in range(n), each
    the first m distinct values of k uniform draws (the mean count that
    takes plus 4 sd; a chunk with a shorter row is redrawn).  A row's
    law is invariant under relabelling range(n), so every ordered m-tuple
    is equally likely.  Past m = n/2 a row is the complement of n - m
    such draws, in uniform order."""
    rows = PERMUTATION_CHUNK
    if 2 * m > n:
        mask = np.ones((rows, n), dtype=bool)
        mask[np.arange(rows)[:, None], _ordered_draws(rng, n, n - m)] = False
        return rng.permuted(np.nonzero(mask)[1].reshape(rows, m), axis=1)
    q = 1.0 - np.arange(m) / n
    k = int(np.sum(1.0 / q) + 4.0 * math.sqrt(np.sum((1.0 - q) / q**2))) + 2
    bits = k.bit_length()
    while True:
        draws = rng.integers(0, n, size=(rows, k))
        # (value, stream index) keys, sorted: a value's first draw leads
        keys = np.sort((draws << bits) | np.arange(k), axis=1)
        first = np.ones((rows, k), dtype=bool)
        np.not_equal(keys[:, 1:] >> bits, keys[:, :-1] >> bits, out=first[:, 1:])
        # the stream indices of the first m distinct values, in order
        take = np.sort(np.where(first, keys & ((1 << bits) - 1), k), axis=1)[:, :m]
        if take[:, -1].max() < k:
            return np.take_along_axis(draws, take, axis=1)


def _permutation_stats(statistic, labels: np.ndarray, B: int, seed: int) -> np.ndarray:
    """``statistic`` at the case sets of ``labels``, then at B uniform
    relabelings that keep every class count.

    ``statistic`` takes one (c, n_k) array of sorted positions per rare
    class and returns c values; the observed labels are a chunk of one.
    Chunk c, relabelings 64c + 1 to 64c + 64, is one
    :func:`_ordered_draws` from ``spawn_rng(seed, 2, c)``, its rows past
    B dropped, so the first B relabelings do not depend on B.  The i-th
    position of a row takes the i-th rare label in row order, so every
    count-preserving labeling is equally likely and the null is exact;
    each class's positions are sorted, so the statistic sees sets.
    """
    rare = np.flatnonzero(labels)
    slots = [np.flatnonzero(labels[rare] == k) for k in range(1, int(labels.max()) + 1)]
    stats = np.empty(B + 1)
    stats[0] = statistic(tuple(rare[None, i] for i in slots))[0]
    for lo in range(0, B, PERMUTATION_CHUNK):
        drawn = _ordered_draws(spawn_rng(seed, 2, lo // PERMUTATION_CHUNK),
                               labels.size, rare.size)[: B - lo]
        stats[lo + 1 : lo + 1 + len(drawn)] = statistic(
            tuple(np.sort(drawn[:, i], axis=1) for i in slots))
    return stats


def _regroup_statistic(x: np.ndarray, kernel: KernelSpec):
    """``cases -> statistics`` over the rows ``x`` that groups them by
    each case set of the chunk, the controls being the other rows, and
    recomputes the full-sample statistic: O(n) or more per case set."""

    def statistic(cases: tuple) -> np.ndarray:
        out = []
        for b in range(len(cases[0])):
            rare = [idx[b] for idx in cases]
            indices = (np.setdiff1d(np.arange(x.shape[0]), np.concatenate(rare)), *rare)
            grouped = GroupedSample(x, tuple(i.size for i in indices), indices)
            out.append(compute_rit(grouped, kernel).value)
        return np.array(out)

    return statistic


def _permutation_pool(data: GroupedSample) -> tuple:
    """``(x, labels)``: the rows of ``data``, ``source[rows]`` in source
    order (``source`` itself when every row is kept), and their class
    labels.  No class is gathered."""
    rows = np.sort(np.concatenate(data.indices))
    x = data.source if rows.size == data.source.shape[0] else data.source[rows]
    labels = np.zeros(rows.size, dtype=np.int64)
    for k, idx in enumerate(data.indices[1:], 1):
        labels[np.searchsorted(rows, idx)] = k
    return x, labels


def pvalue_permutation(
    data: GroupedSample,
    kernel: KernelSpec,
    B: int = 999,
    seed: int = 0,
    plan: SubsamplePlan | None = None,
) -> TestOutcome:
    """Label-permutation p-value with the add-one estimator.

    Each permutation draws the rare rows' positions uniformly, class
    counts preserved, a chunk of 64 permutations from one generator and
    one vectorised draw (see :func:`_permutation_stats`); permuted
    values tying the observed one count toward rejection.

    Under subsampling the test conditions on the thinning ``plan``, the
    one ``run_test`` draws before it picks a null, whose statistic is
    the observed one (see :func:`raresig.subsample.compute_bit`).  The
    labels are then permuted only within the cases and the kept
    controls, and each value carries the plan's constant
    C(realized, m0) / C(s n1, m0).  The plan depends on the class counts
    and its seed only, not on the features, so under the null the cases
    and the kept controls are i.i.d. given the plan and their labels are
    exchangeable: the conditional null is exact.  ``metadata
    ["plan_attempts"]`` is the plan's draw count (None without a plan).

    Most kernels compute one pooled summary of the pool before the loop
    and each chunk of permutations reads only the drawn rows
    (``metadata["batched"]``: the statistic read a pooled summary, see
    :func:`engine._pooled_statistic`):

    * ``kendall`` (and ``imbalanced-kendall`` at m = 1): one sort for
      the pooled sign counts, then O(n1) a permutation;
    * ``multi-kendall``: the same, plus O(n_r log n_r) for the sign
      counts among the n_r rare rows;
    * ``pearson``: one centred total, then an O(n1) ``fsum``;
    * ``dcov``/``ipcov``: the pooled row sums (O(p n^2) once), then the
      n1 x n1 pair blocks of a chunk's case sets in one stacked GEMM,
      O(p n1^2) a permutation.

    ``imbalanced-kendall`` at m >= 2 and ``custom`` kernels regroup the
    rows and recompute the statistic per permutation.
    """
    if B < 19:
        raise ValidationError("need at least 19 permutations")
    _check_sizes(data, kernel)
    kept, ratio, s, attempts = data, 1.0, None, None
    if plan is not None:
        kept = _kept_sample(data, kernel, plan)
        ratio = plan.ratio(data.counts[1], kernel.m0)
        s, attempts = plan.s, plan.attempts
    x, labels = _permutation_pool(kept)
    statistic = _pooled_statistic(x, kernel)
    batched = statistic is not None
    if not batched:
        statistic = _regroup_statistic(x, kernel)
    stats = ratio * _permutation_stats(statistic, labels, B, seed)
    t_obs = stats[0]
    count = int((np.abs(stats[1:]) >= abs(t_obs)).sum())
    p = (1 + count) / (B + 1)
    n1 = data.counts[1]
    scale = math.sqrt(n1) if kernel.order == "first" else n1
    null_var = float((scale * stats[1:]).var(ddof=1))
    return TestOutcome(float(t_obs), float(scale * t_obs), null_var, p, "permutation",
                       {"kernel": kernel.kind, "n0": data.counts[0], "n1": n1, "B": B,
                        "s": s, "seed": seed, "batched": batched,
                        "plan_attempts": attempts})


# ---------------------------------------------------------------------------
# power calculators
# ---------------------------------------------------------------------------


def _two_sided_power(ncp: float, alpha: float) -> float:
    """Power of a two-sided level-``alpha`` normal test whose standardized
    statistic is shifted by ``ncp``."""
    if not 0 < alpha < 1:
        raise ValidationError("alpha must lie in (0, 1)")
    lo = _normal_ppf(alpha / 2)
    hi = _normal_ppf(1 - alpha / 2)
    return 1.0 + _normal_cdf(lo - ncp) - _normal_cdf(hi - ncp)


def power_first_order(mu0: float, n1: int, m0: int, m1: int, xi01: float, alpha: float,
                      s: float | None = None, xi10: float | None = None) -> float:
    """Two-sided power of the first-order test against mean shift ``mu0``.

    The variance of the statistic is the K = 1 case of
    :func:`raresig.multiclass.multi_asymptotic_variance` over n1.  Pass
    the sampling ratio ``s`` (and ``xi10``) for the subsampled test and
    s = n0/n1 for the full-sample test at a finite ratio; None is the
    limit n1/n0 -> 0.  At ``mu0 = 0`` the value is exactly ``alpha``.
    """
    _check_finite(mu0=mu0)
    if xi01 <= 0 or n1 < 1:
        raise ValidationError("need xi01 > 0 and n1 >= 1")
    spec = MultiClassSpec(1, (m0, m1), (1.0,))
    var = multi_asymptotic_variance(spec, [xi10, xi01], s=s) / n1
    return _two_sided_power(mu0 / math.sqrt(var), alpha)


def power_highdim(mu0: float, n1: int, m1: int, xi02: float, alpha: float) -> float:
    """Two-sided power of the high-dimensional second-order test, whose
    null sd is that of :func:`pvalue_asymptotic_highdim` (m0 = m1) in
    the limit n1/n0 -> 0, the shift entering at rate n1."""
    _check_finite(mu0=mu0)
    if xi02 <= 0 or m1 < 2 or n1 < m1:
        raise ValidationError("need xi02 > 0, m1 >= 2 and n1 >= m1")
    sd = math.sqrt(_highdim_variance((m1, m1), xi02, None))
    return _two_sided_power(mu0 * n1 / sd, alpha)


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
    _check_finite(mu_g1=mu_g1, xi_eff=xi_eff)
    if mu_g1 == 0:
        raise ValidationError("mu_g1 must be non-zero")
    if not 0 < alpha < 1 or not 0 < beta < 1 - alpha:
        raise ValidationError("need 0 < alpha < 1 and 0 < beta < 1 - alpha")
    if xi_eff <= 0:
        raise ValidationError("xi_eff must be positive")
    return float(
        (_normal_ppf(1 - alpha / 2) - _normal_ppf(1 - beta))
        * math.sqrt(xi_eff)
        / abs(mu_g1)
    )
