import math
from itertools import combinations

import numpy as np
import pytest
from numpy.testing import assert_allclose

from raresig import (
    DegenerateDataError,
    LabeledSample,
    SubsamplePlan,
    ValidationError,
    compute_bit,
    compute_rit,
    dcov_kernel,
    draw_subsample,
    evaluate,
    group_by_label,
    kendall_kernel,
    power_first_order,
    select_s_power_floor,
    select_s_power_gap,
    select_s_variance,
)
from raresig.multiclass import _variance_parts


def _grouped(n0, n1, rng, p=1):
    labels = np.r_[np.zeros(n0, np.int64), np.ones(n1, np.int64)]
    return group_by_label(LabeledSample(rng.standard_normal((n0 + n1, p)), labels))


# ---------------------------------------------------------------------------
# plans
# ---------------------------------------------------------------------------


def test_full_ratio_includes_everything():
    g = _grouped(20, 5, np.random.default_rng(0))
    plan = draw_subsample(g, 4, seed=1)
    assert plan.realized_count == 20
    assert plan.inclusion.all()


def test_plan_is_deterministic_in_seed():
    g = _grouped(500, 20, np.random.default_rng(1))
    a = draw_subsample(g, 5, seed=42)
    b = draw_subsample(g, 5, seed=42)
    assert np.array_equal(a.inclusion, b.inclusion)
    c = draw_subsample(g, 5, seed=43)
    assert not np.array_equal(a.inclusion, c.inclusion)


def test_realized_count_matches_binomial_mean():
    g = _grouped(2000, 40, np.random.default_rng(2))
    s = 10
    q = s * 40 / 2000
    counts = [draw_subsample(g, s, seed=k).realized_count for k in range(500)]
    se = math.sqrt(2000 * q * (1 - q) / 500)
    assert abs(np.mean(counts) - s * 40) < 4 * se


def test_ratio_exceeding_one_errors():
    g = _grouped(30, 20, np.random.default_rng(3))
    with pytest.raises(ValidationError, match="ratio exceeds 1"):
        draw_subsample(g, 2, seed=0)


def test_s_must_be_integer_at_least_two():
    g = _grouped(100, 5, np.random.default_rng(4))
    with pytest.raises(ValidationError):
        draw_subsample(g, 1, seed=0)
    with pytest.raises(ValidationError):
        draw_subsample(g, 2.5, seed=0)


def test_redraw_until_min_include():
    # inclusion probability is tiny; requiring two controls forces redraws
    g = _grouped(5000, 2, np.random.default_rng(5))
    plan = draw_subsample(g, 2, seed=7, min_include=2)
    assert plan.realized_count >= 2


# ---------------------------------------------------------------------------
# the subsampled statistic
# ---------------------------------------------------------------------------


def test_full_inclusion_identity():
    rng = np.random.default_rng(6)
    g = _grouped(24, 6, rng)
    plan = draw_subsample(g, 4, seed=0)  # probability 1
    for kernel in (kendall_kernel(), dcov_kernel()):
        t = compute_rit(g, kernel)
        ts = compute_bit(g, kernel, plan)
        assert ts.value == t.value
        # the full sample's control ratio n0/n1 is the kept plan's s
        assert t.meta["s"] == ts.meta["s"] == 4


def test_manual_plan_matches_direct_enumeration():
    # exactly m0 = 2 included controls: the statistic is the sum over
    # case pairs of the kernel at that single control pair / C(s n1, 2)
    rng = np.random.default_rng(7)
    g = _grouped(4, 2, rng, p=2)
    s = 2
    inclusion = np.array([True, False, True, False])
    plan = SubsamplePlan(s, inclusion, seed=0, realized_count=2)
    ts = compute_bit(g, dcov_kernel(), plan)
    x0 = g.group(0)[inclusion]
    x1 = g.group(1)
    direct = evaluate(dcov_kernel(), [x0, x1]) / math.comb(s * 2, 2)
    assert_allclose(ts.value, direct, atol=1e-14)


def test_bit_matches_bruteforce_thinned_scaling():
    rng = np.random.default_rng(8)
    g = _grouped(12, 4, rng)
    plan = draw_subsample(g, 2, seed=3, min_include=1)
    kernel = kendall_kernel()
    ts = compute_bit(g, kernel, plan)
    kept = g.group(0)[plan.inclusion][:, 0]
    cases = g.group(1)[:, 0]
    total = math.fsum(
        np.sign(c - k) for k in kept for c in cases
    )
    expected = total / (math.comb(plan.s * 4, 1) * math.comb(4, 1))
    assert_allclose(ts.value, expected, atol=1e-14)


def test_too_few_included_controls_errors():
    g = _grouped(10, 2, np.random.default_rng(9), p=2)
    plan = SubsamplePlan(2, np.zeros(10, bool) | (np.arange(10) == 0), 0, 1)
    with pytest.raises(DegenerateDataError, match="min_include"):
        compute_bit(g, dcov_kernel(), plan)


def test_zero_mean_under_null():
    rng = np.random.default_rng(10)
    values = []
    for rep in range(400):
        g = _grouped(400, 20, np.random.default_rng(1000 + rep))
        plan = draw_subsample(g, 5, seed=rep)
        values.append(compute_bit(g, kendall_kernel(), plan).value)
    values = np.array(values)
    se = values.std(ddof=1) / math.sqrt(values.size)
    assert abs(values.mean()) < 4 * se


def test_variance_decreases_with_s():
    # scaled variance approaches the full-sample value as s grows
    reps = 600
    n0, n1 = 20_000, 100
    stats = {s: [] for s in (2, 20)}
    full = []
    for rep in range(reps):
        rng = np.random.default_rng(2000 + rep)
        g = _grouped(n0, n1, rng)
        full.append(compute_rit(g, kendall_kernel()).value)
        for s in stats:
            plan = draw_subsample(g, s, seed=rep * 7 + s)
            stats[s].append(compute_bit(g, kendall_kernel(), plan).value)
    var = {s: n1 * np.var(v, ddof=1) for s, v in stats.items()}
    var_full = n1 * np.var(full, ddof=1)
    assert var[2] > var[20] > 0
    assert abs(var[2] - (1 / 3 + 1 / 6)) / (1 / 3 + 1 / 6) < 0.25
    assert abs(var_full - 1 / 3) / (1 / 3) < 0.25


# ---------------------------------------------------------------------------
# choosing s
# ---------------------------------------------------------------------------


def test_select_s_variance_examples():
    assert select_s_variance(100, 0.001) == 10
    assert select_s_variance(50, 1.0) == 2
    assert select_s_variance(10, 0.01) == 10
    with pytest.raises(ValidationError):
        select_s_variance(100, 0.0)


def test_select_s_power_floor_examples():
    assert select_s_power_floor(100, 1, 1, 1 / 3, 0.0, 0.5, 0.05, 0.8) == 2
    with pytest.raises(ValidationError, match="infeasible"):
        select_s_power_floor(100, 1, 1, 1 / 3, 1 / 3, 1e-6, 0.05, 0.8)


def test_select_s_power_floor_against_numeric_inversion():
    n1, xi01, xi10, mu0, alpha, beta = 40, 1 / 3, 1 / 3, 0.35, 0.05, 0.9
    s_formula = select_s_power_floor(n1, 1, 1, xi01, xi10, mu0, alpha, beta)
    s_exact = next(
        s for s in range(2, 500)
        if power_first_order(mu0, n1, 1, 1, xi01, alpha, s=s, xi10=xi10) >= beta
    )
    assert abs(s_formula - s_exact) <= 1
    assert power_first_order(mu0, n1, 1, 1, xi01, alpha, s=s_formula, xi10=xi10) >= beta - 1e-9


def test_select_s_power_gap_limits():
    assert select_s_power_gap(10_000, 1, 1, 1 / 3, 1 / 3, 0.3, 0.05, 0.01) == 2
    assert select_s_power_gap(50, 1, 1, 1 / 3, 1 / 3, 0.0, 0.05, 0.01) == 2
    with pytest.raises(ValidationError):
        select_s_power_gap(50, 1, 1, 0.0, 1 / 3, 0.3, 0.05, 0.01)


def test_select_s_power_gap_against_numeric_inversion():
    n1, xi, mu0, alpha, eps = 50, 1 / 3, 0.3, 0.05, 0.01
    s_formula = select_s_power_gap(n1, 1, 1, xi, xi, mu0, alpha, eps)
    p_full = power_first_order(mu0, n1, 1, 1, xi, alpha)
    gap = lambda s: p_full - power_first_order(  # noqa: E731
        mu0, n1, 1, 1, xi, alpha, s=s, xi10=xi
    )
    s_exact = next(s for s in range(2, 2000) if gap(s) <= eps)
    # first-order expansion: allow one step of slack around the inversion
    assert abs(s_formula - s_exact) <= 2
    assert gap(s_formula) <= 1.5 * eps


def test_power_rules_read_the_variance_parts_without_rounding():
    # the rules' m1^2 xi01 and m0^2 xi10 are the two parts of the K = 1
    # first-order variance, exact even when xi10 is tiny next to xi01
    for xi10 in (0.0, 1e-18, 1 / 3, 7.0):
        assert _variance_parts((2, 1), (1,), [xi10, 1 / 3]) == (1 / 3, 4 * xi10)


@pytest.mark.parametrize("xi10", [None, "0.3"])
@pytest.mark.parametrize("rule", [select_s_power_floor, select_s_power_gap])
def test_power_rules_refuse_an_unreadable_xi10(rule, xi10):
    # both rules always read xi10: a None is refused, not skipped as unread
    with pytest.raises(ValidationError):
        rule(100, 1, 1, 0.3, xi10, 0.3, 0.05, 0.8)


def test_select_s_monotonicity():
    base = dict(m0=1, m1=1, xi01=1 / 3, xi10=1 / 3, mu0=0.3, alpha=0.05)
    assert select_s_variance(100, 0.0005) >= select_s_variance(100, 0.001)
    assert select_s_power_floor(60, beta=0.95, **base) >= select_s_power_floor(
        60, beta=0.8, **base
    )
    assert select_s_power_gap(50, epsilon=0.002, **base) >= select_s_power_gap(
        50, epsilon=0.01, **base
    )
