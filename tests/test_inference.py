import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose
from scipy.spatial.distance import pdist
from scipy.stats import norm

from raresig import (
    DegenerateDataError,
    LabeledSample,
    RitStatistic,
    ValidationError,
    compute_rit,
    condition_diagnostic,
    dcov_kernel,
    estimate_xi01,
    estimate_xi02,
    estimate_xi10,
    group_by_label,
    ipcov_kernel,
    kendall_kernel,
    local_power_threshold,
    pearson_kernel,
    power_first_order,
    power_highdim,
    pvalue_asymptotic_first,
    pvalue_asymptotic_highdim,
    pvalue_permutation,
)
from raresig import inference
from raresig.simulate import MethodConfig, ScenarioSpec, run_erp


def _grouped(n0, n1, rng, p=1, shift=0.0):
    labels = np.r_[np.zeros(n0, np.int64), np.ones(n1, np.int64)]
    x = rng.standard_normal((n0 + n1, p))
    x[labels == 0] += shift
    return group_by_label(LabeledSample(x, labels))


def _stat(value, kernel, n0, n1):
    return RitStatistic(value, kernel, kernel.order, n0, n1, "test")


# ---------------------------------------------------------------------------
# variance estimators
# ---------------------------------------------------------------------------


def test_xi01_pearson_is_case_variance():
    rng = np.random.default_rng(0)
    g = _grouped(5000, 2000, rng)
    xi = estimate_xi01(g, pearson_kernel())
    assert abs(xi - 1.0) < 0.1


def test_xi01_constant_cases_is_zero():
    g = group_by_label(
        LabeledSample(
            np.r_[np.random.default_rng(1).standard_normal(50), np.full(10, 2.0)][:, None],
            np.r_[np.zeros(50, np.int64), np.ones(10, np.int64)],
        )
    )
    assert estimate_xi01(g, pearson_kernel()) < 1e-28
    assert estimate_xi01(g, kendall_kernel()) < 1e-28


def test_xi01_needs_first_order_kernel_and_two_cases():
    rng = np.random.default_rng(2)
    g = _grouped(30, 5, rng, p=2)
    with pytest.raises(ValidationError):
        estimate_xi01(g, dcov_kernel())
    g1 = _grouped(30, 1, rng)
    with pytest.raises(DegenerateDataError):
        estimate_xi01(g1, kendall_kernel())


def test_xi10_mirrors_xi01_for_kendall():
    rng = np.random.default_rng(3)
    g = _grouped(3000, 1500, rng)
    assert abs(estimate_xi10(g, kendall_kernel()) - 1 / 3) < 0.05


def test_xi02_identical_cases_has_zero_variance():
    rng = np.random.default_rng(4)
    x = np.vstack([rng.standard_normal((40, 2)), np.tile([1.0, 2.0], (5, 1))])
    labels = np.r_[np.zeros(40, np.int64), np.ones(5, np.int64)]
    g = group_by_label(LabeledSample(x, labels))
    assert_allclose(estimate_xi02(g, dcov_kernel()), 0.0, atol=1e-20)


def test_xi02_single_pair_errors():
    rng = np.random.default_rng(5)
    g = _grouped(20, 2, rng, p=2)
    with pytest.raises(DegenerateDataError, match="single pair"):
        estimate_xi02(g, dcov_kernel())


def test_xi02_stable_across_draws():
    vals = []
    for rep in range(30):
        rng = np.random.default_rng(100 + rep)
        g = _grouped(400, 60, rng, p=20)
        vals.append(estimate_xi02(g, dcov_kernel()))
    vals = np.array(vals)
    assert vals.std(ddof=1) / vals.mean() < 0.2


def test_xi02_pooled_reference_option():
    rng = np.random.default_rng(6)
    g = _grouped(100, 20, rng, p=5)
    a = estimate_xi02(g, dcov_kernel(), reference="controls")
    b = estimate_xi02(g, dcov_kernel(), reference="pooled")
    assert a > 0 and b > 0 and a != b
    with pytest.raises(ValidationError):
        estimate_xi02(g, dcov_kernel(), reference="cases")
    assert estimate_xi02(g, ipcov_kernel()) > 0


def test_condition_diagnostic_positive_and_finite():
    rng = np.random.default_rng(7)
    g = _grouped(300, 50, rng, p=30)
    ratio = condition_diagnostic(g, dcov_kernel())
    assert 0 < ratio < 10


def test_condition_diagnostic_rejects_unknown_reference():
    g = _grouped(100, 20, np.random.default_rng(6), p=5)
    with pytest.raises(ValidationError, match="reference"):
        condition_diagnostic(g, dcov_kernel(), reference="bogus")


def test_condition_diagnostic_single_pair_errors():
    g = _grouped(20, 2, np.random.default_rng(5), p=2)
    with pytest.raises(DegenerateDataError, match="single pair"):
        condition_diagnostic(g, dcov_kernel())


# ---------------------------------------------------------------------------
# asymptotic p-values
# ---------------------------------------------------------------------------


def test_first_order_pvalue_at_zero_statistic():
    out = pvalue_asymptotic_first(_stat(0.0, kendall_kernel(), 1000, 100), 1 / 3)
    assert out.p_value == 1.0
    assert out.method == "asymptotic_first"


def test_first_order_pvalue_at_normal_quantile():
    # sqrt(n1) T / sigma = 1.96 -> p close to 0.05
    n1 = 100
    xi01 = 1.0
    value = 1.959963984540054 / math.sqrt(n1)
    out = pvalue_asymptotic_first(_stat(value, pearson_kernel(), 1000, n1), xi01)
    assert_allclose(out.p_value, 0.05, atol=1e-9)


def test_first_order_pvalue_kendall_example():
    out = pvalue_asymptotic_first(_stat(0.1, kendall_kernel(), 10_000, 100), 1 / 3)
    z = 1.0 / math.sqrt(1 / 3)
    assert_allclose(out.p_value, 2 * norm.sf(z), atol=1e-12)
    assert_allclose(out.p_value, 0.0833, atol=5e-4)


def test_first_order_pvalue_with_subsampling_variance():
    stat = _stat(0.1, kendall_kernel(), 10_000, 100)
    out = pvalue_asymptotic_first(stat, 1 / 3, s=5, xi10=1 / 3)
    assert_allclose(out.variance_estimate, 1 / 3 + 1 / 15, atol=1e-12)
    with pytest.raises(ValidationError):
        pvalue_asymptotic_first(stat, 1 / 3, s=5)


def test_first_order_pvalue_degenerate_xi_errors():
    stat = _stat(0.1, kendall_kernel(), 1000, 50)
    with pytest.raises(DegenerateDataError, match="permutation"):
        pvalue_asymptotic_first(stat, 0.0)
    with pytest.raises(ValidationError):
        pvalue_asymptotic_first(_stat(0.1, dcov_kernel(), 1000, 50), 1 / 3)


def test_highdim_pvalue_values():
    stat = _stat(0.0, dcov_kernel(), 1000, 100)
    assert pvalue_asymptotic_highdim(stat, 2.0).p_value == 1.0
    # n1 T / sqrt(xi02) = sqrt(2) * 1.96 with variance 2 -> p = 0.05
    n1 = 100
    target = math.sqrt(2.0) * 1.959963984540054
    stat = _stat(target / n1, dcov_kernel(), 1000, n1)
    out = pvalue_asymptotic_highdim(stat, 1.0)
    assert_allclose(out.p_value, 0.05, atol=1e-9)
    with pytest.raises(ValidationError):
        pvalue_asymptotic_highdim(_stat(0.1, kendall_kernel(), 100, 10), 1.0)
    with pytest.raises(DegenerateDataError):
        pvalue_asymptotic_highdim(_stat(0.1, dcov_kernel(), 100, 10), 0.0)


# ---------------------------------------------------------------------------
# permutation
# ---------------------------------------------------------------------------


def test_permutation_floor_on_separated_data():
    rng = np.random.default_rng(8)
    x = np.r_[rng.random(40), 10 + rng.random(8)]
    labels = np.r_[np.zeros(40, np.int64), np.ones(8, np.int64)]
    out = pvalue_permutation(LabeledSample(x[:, None], labels), kendall_kernel(), B=99, seed=0)
    assert out.p_value == 1 / 100
    assert out.statistic == 1.0


def test_permutation_requires_enough_replicates():
    rng = np.random.default_rng(9)
    s = LabeledSample(rng.standard_normal((20, 1)), np.r_[np.zeros(15, np.int64), np.ones(5, np.int64)])
    with pytest.raises(ValidationError):
        pvalue_permutation(s, kendall_kernel(), B=10)


def test_permutation_ties_count_toward_rejection():
    # constant features: every permuted statistic equals the observed 0
    x = np.ones((30, 1))
    labels = np.r_[np.zeros(24, np.int64), np.ones(6, np.int64)]
    out = pvalue_permutation(LabeledSample(x, labels), kendall_kernel(), B=49, seed=1)
    assert out.p_value == 1.0


def test_permutation_invariant_to_monotone_transforms():
    rng = np.random.default_rng(10)
    x = rng.standard_normal(60)
    labels = np.r_[np.zeros(48, np.int64), np.ones(12, np.int64)]
    a = pvalue_permutation(LabeledSample(x[:, None], labels), kendall_kernel(), B=99, seed=5)
    b = pvalue_permutation(
        LabeledSample(np.exp(x)[:, None], labels), kendall_kernel(), B=99, seed=5
    )
    assert a.p_value == b.p_value


@st.composite
def permutation_samples(draw):
    """Small binary samples with ties, duplicate rows, constant columns,
    1e8 offsets and as few as two cases."""
    n1 = draw(st.sampled_from((2, 3, 8)))
    n0 = draw(st.integers(24, 60))
    p = draw(st.integers(1, 8))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    x = rng.standard_normal((n0 + n1, p))
    if draw(st.booleans()):
        x = np.round(x, 1)  # ties
    if draw(st.booleans()):
        src = rng.integers(0, x.shape[0], size=x.shape[0] // 2)
        x[rng.integers(0, x.shape[0], size=src.size)] = x[src]  # duplicate rows
    if draw(st.booleans()):
        x[:, draw(st.integers(0, p - 1))] = 3.0  # constant column
    if draw(st.booleans()):
        x[:, 0] += 1e8
    labels = rng.permutation(np.r_[np.zeros(n0, np.int64), np.ones(n1, np.int64)])
    return LabeledSample(x, labels)


@settings(max_examples=40, deadline=None, derandomize=True, database=None)
@given(
    st.sampled_from(("dcov", "ipcov")),
    st.sampled_from((None, 3)),
    permutation_samples(),
    st.integers(0, 2**16),
)
def test_permutation_row_sum_engine_matches_regrouping(kind, s, sample, seed):
    # the pooled row-sum statistics equal compute_rit on each regrouped
    # pool, over the same pool and the same permutation streams
    kernel = dcov_kernel() if kind == "dcov" else ipcov_kernel()
    B = 39
    pool, ratio = sample, 1.0
    if s is not None:
        pool, ratio = inference._thinned_pool(
            sample, group_by_label(sample), kernel, s, seed
        )
    rows = inference._pair_sum_statistic(pool.features, kernel, inference._rit_from_sums)
    fast = ratio * inference._permutation_stats(rows, pool.labels, B, seed)
    slow = ratio * inference._permutation_stats(
        inference._regroup_statistic(pool, kernel), pool.labels, B, seed
    )
    # rounding of the six-term cancellation, relative to the pair
    # distances; plus ANGLE_ATOL of test_accel, the arccos rounding near
    # angle 0 (rows made parallel by a 1e8 offset)
    atol = 1e-12 * pdist(pool.features).mean() + (1e-7 if kind == "ipcov" else 0.0)
    assert_allclose(fast, slow, rtol=1e-9, atol=atol)
    out = pvalue_permutation(sample, kernel, B=B, seed=seed, s=s)
    assert out.metadata["batched"]
    assert out.statistic == fast[0]
    exceed = np.abs(fast[1:]) >= abs(fast[0])
    assert out.p_value == (1 + int(exceed.sum())) / (B + 1)
    # both engines count the same permutations, except those tying the
    # observed value to within the rounding above: distinct case sets
    # can tie exactly (e.g. collinear rows), and rounding breaks such a
    # tie either way
    near_tie = np.abs(np.abs(slow[1:]) - abs(slow[0])) <= 2 * (1e-9 * abs(slow[0]) + atol)
    assert np.array_equal(
        exceed[~near_tie], (np.abs(slow[1:]) >= abs(slow[0]))[~near_tie]
    )


def test_permutation_null_pvalues_roughly_uniform():
    rng = np.random.default_rng(12)
    pvals = []
    for rep in range(60):
        x = np.random.default_rng(500 + rep).standard_normal(40)
        labels = np.r_[np.zeros(32, np.int64), np.ones(8, np.int64)]
        pvals.append(
            pvalue_permutation(
                LabeledSample(x[:, None], labels), kendall_kernel(), B=39, seed=rep
            ).p_value
        )
    assert 0.3 < np.mean(pvals) < 0.7


# ---------------------------------------------------------------------------
# power calculators
# ---------------------------------------------------------------------------


def test_power_first_order_reference_points():
    assert_allclose(power_first_order(0.0, 100, 1, 1, 1 / 3, 0.05), 0.05, atol=1e-12)
    assert power_first_order(100.0, 100, 1, 1, 1 / 3, 0.05) > 1 - 1e-12
    full = power_first_order(0.3, 100, 1, 1, 1 / 3, 0.05)
    gaps = []
    for s in (2, 5, 20, 100):
        sub = power_first_order(0.3, 100, 1, 1, 1 / 3, 0.05, s=s, xi10=1 / 3)
        assert sub <= full
        gaps.append(full - sub)
    assert gaps == sorted(gaps, reverse=True)
    # xi10 = 0 collapses to the full-sample branch exactly
    assert power_first_order(0.3, 100, 1, 1, 1 / 3, 0.05, s=7, xi10=0.0) == full


def test_power_highdim_reference_points():
    assert_allclose(power_highdim(0.0, 100, 2, 1.0, 0.05), 0.05, atol=1e-12)
    assert power_highdim(0.05, 200, 2, 1.0, 0.05) > power_highdim(
        0.05, 100, 2, 1.0, 0.05
    )


def test_local_power_threshold_quantile_arithmetic():
    c = local_power_threshold(0.2, 0.05, 1.0, 1 / 3)
    assert_allclose(c, 0.6457, atol=1e-3)
    # subsampled variance raises the threshold
    xi_eff = 1 / 3 + 1 / (5 * 1)
    assert local_power_threshold(0.2, 0.05, 1.0, xi_eff) > c
    # the beta parameter acts as the power level: higher beta, larger C
    assert local_power_threshold(0.4, 0.05, 1.0, 1 / 3) > c
    with pytest.raises(ValidationError):
        local_power_threshold(0.2, 0.05, 0.0, 1 / 3)
    with pytest.raises(ValidationError):
        local_power_threshold(0.97, 0.05, 1.0, 1 / 3)


def test_local_power_threshold_consistency_with_mixture_power():
    # at delta0 = 1.2 C the Monte Carlo power of the sign-kernel test
    # matches the analytic first-order power and clears the beta floor
    beta, alpha, g_shift = 0.2, 0.05, 1.0
    mu_g1 = 2 * norm.cdf(g_shift / math.sqrt(2)) - 1
    c = local_power_threshold(beta, alpha, mu_g1, 1 / 3)
    n1 = 500
    delta0 = 1.2 * c
    scenario = ScenarioSpec(
        "mixture_local", n=10_500, n1=n1, effect=g_shift,
        params={"delta0": delta0}, M=400, alpha=alpha, seed=31,
    )
    method = MethodConfig(kernel="kendall", mode="rit", xi_basis="controls")
    report = run_erp(scenario, method)
    predicted = power_first_order(delta0 * mu_g1 / math.sqrt(n1), n1, 1, 1, 1 / 3, alpha)
    assert abs(report.erp - predicted) < 0.07
    assert report.erp >= beta - 0.04
