import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose
from scipy.stats import norm

from raresig import (
    DegenerateDataError,
    LabeledSample,
    ValidationError,
    compute_bit,
    compute_rit,
    compute_rit_bruteforce,
    custom_kernel,
    draw_subsample,
    estimate_zeta1k,
    group_by_label,
    kendall_kernel,
    multi_asymptotic_variance,
    multi_kendall_kernel,
    multi_second_order_variance,
    pearson_kernel,
)
from raresig.multiclass import _normal_cdf, _normal_ppf, _normal_sf, block_projection
from raresig.pipeline import MethodConfig, run_test
from raresig.rng import spawn_rng


def _grouped(counts, rng, p=1):
    labels = np.concatenate(
        [np.full(c, k, dtype=np.int64) for k, c in enumerate(counts)]
    )
    return group_by_label(LabeledSample(rng.standard_normal((labels.size, p)), labels))


def test_single_tuple_example():
    g = group_by_label(
        LabeledSample(np.array([[1.0], [2.0], [0.0]]), np.array([0, 1, 2]))
    )
    stat = compute_rit(g, multi_kendall_kernel(2))
    assert stat.value == 0.0  # sgn(2-1) + sgn(0-1)


@st.composite
def tied_multiclass_samples(draw):
    """K in {1, 2, 3} rare classes of 1-3 rows against 1-12 controls,
    values on a coarse grid (ties) with some rows duplicated."""
    counts = [draw(st.integers(1, 12))] + draw(
        st.lists(st.integers(1, 3), min_size=1, max_size=3))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    labels = np.concatenate([np.full(c, k, np.int64) for k, c in enumerate(counts)])
    x = rng.integers(-2, 3, labels.size) * draw(st.sampled_from((0.5, 1.0, 1e8)))
    if draw(st.booleans()):
        dup = rng.integers(0, labels.size, labels.size)
        x = x[dup]  # duplicate rows, across classes too
    return group_by_label(LabeledSample(x[:, None], labels))


@settings(max_examples=120)
@given(tied_multiclass_samples())
def test_fast_path_matches_bruteforce(g):
    kernel = multi_kendall_kernel(g.n_classes - 1)
    fast = compute_rit(g, kernel)
    assert fast.algorithm == "sort-count"
    assert_allclose(fast.value, compute_rit_bruteforce(g, kernel).value, atol=1e-12)
    if g.n_classes == 2:
        assert fast.value == compute_rit(g, kendall_kernel()).value


def test_custom_three_block_kernel_bruteforce():
    fn = lambda b0, b1, b2: float(b1[:, 0].mean() + b2[:, 0].mean() - 2 * b0[:, 0].mean())  # noqa: E731
    kernel = custom_kernel(fn, (2, 1, 1))
    rng = np.random.default_rng(1)
    g = _grouped((6, 3, 3), rng)
    stat = compute_rit_bruteforce(g, kernel)
    # linear kernel: the average telescopes to group means
    means = [g.group(k)[:, 0].mean() for k in range(3)]
    assert_allclose(stat.value, means[1] + means[2] - 2 * means[0], atol=1e-12)
    assert compute_rit(g, kernel).value == stat.value


def test_binary_reduction_is_bitwise():
    rng = np.random.default_rng(2)
    g = _grouped((40, 12), rng)
    multi = compute_rit(g, multi_kendall_kernel(1))
    binary = compute_rit(g, kendall_kernel())
    assert multi.value == binary.value
    plan = draw_subsample(g, 2, seed=7)
    multi_s = compute_bit(g, multi_kendall_kernel(1), plan)
    binary_s = compute_bit(g, kendall_kernel(), plan)
    assert multi_s.value == binary_s.value
    z = estimate_zeta1k(g, multi_kendall_kernel(1), k=1)
    xi = estimate_zeta1k(g, kendall_kernel(), 1, basis="cases")
    assert z == xi


def test_multi_bit_full_inclusion_identity():
    rng = np.random.default_rng(3)
    g = _grouped((20, 5, 5), rng)
    plan = draw_subsample(g, 4, seed=0)  # 4 * 5 = 20 -> probability one
    kernel = multi_kendall_kernel(2)
    assert compute_bit(g, kernel, plan).value == compute_rit(g, kernel).value


def test_multi_bit_zero_mean_under_null():
    vals = []
    for rep in range(300):
        rng = np.random.default_rng(900 + rep)
        g = _grouped((600, 25, 25), rng)
        plan = draw_subsample(g, 4, seed=rep)
        vals.append(compute_bit(g, multi_kendall_kernel(2), plan).value)
    vals = np.array(vals)
    assert abs(vals.mean()) < 4 * vals.std(ddof=1) / math.sqrt(vals.size)


def test_zeta1k_near_one_third_for_normal_classes():
    rng = np.random.default_rng(4)
    g = _grouped((4000, 400, 400), rng)
    kernel = multi_kendall_kernel(2)
    for k in (1, 2):
        assert abs(estimate_zeta1k(g, kernel, k=k) - 1 / 3) < 0.05
    # control-side projection variance is K^2/3 for this kernel
    assert abs(estimate_zeta1k(g, kernel, k=0) - 4 / 3) < 0.15


def test_zeta1k_constant_class_is_zero():
    rng = np.random.default_rng(5)
    x = np.r_[rng.standard_normal(50), np.full(10, 3.0), rng.standard_normal(10)]
    labels = np.r_[np.zeros(50, np.int64), np.ones(10, np.int64), np.full(10, 2, np.int64)]
    g = group_by_label(LabeledSample(x[:, None], labels))
    assert estimate_zeta1k(g, multi_kendall_kernel(2), k=1) < 1e-28


def test_variance_formula_reference_values():
    orders, sizes = (1, 1, 1), (1, 1)
    assert_allclose(
        multi_asymptotic_variance(orders, sizes, [None, 1 / 3, 1 / 3]), 2 / 3, atol=1e-15
    )
    # goes to the full-sample value as s grows
    with_s = multi_asymptotic_variance(orders, sizes, [4 / 3, 1 / 3, 1 / 3], s=10**9)
    assert_allclose(with_s, 2 / 3, atol=1e-8)
    # every rare term is divided by its ratio, and only class 1's is left
    # as the other classes outgrow it
    for ratio, expected in ((10.0, 1 / 3 + 1 / 30), (1e12, 1 / 3)):
        wide = (1, ratio)
        assert_allclose(multi_asymptotic_variance(orders, wide, [None, 1 / 3, 1 / 3]),
                        expected, rtol=1e-11)
        assert_allclose(multi_asymptotic_variance(orders, wide, [4 / 3, 1 / 3, 1 / 3], s=5),
                        expected + 4 / 15, rtol=1e-11)
    for s in (0, -2, math.nan, math.inf):
        with pytest.raises(ValidationError, match="s must be positive"):
            multi_asymptotic_variance(orders, sizes, [1 / 3, 1 / 3, 1 / 3], s=s)
    for zetas, s in (([None, 1 / 3, -1.0], None), ([-1.0, 1 / 3, 1 / 3], 5)):
        with pytest.raises(ValidationError, match="non-negative"):
            multi_asymptotic_variance(orders, sizes, zetas, s=s)


def test_variance_formulas_refuse_a_missing_or_non_numeric_zeta_they_read():
    # a None zeta the formula reads (every rare-class zeta, and zeta_0
    # under a ratio s), or a zeta that is not a number, is a
    # ValidationError, not a TypeError from the sum
    for zetas, s in (([0.1, None], None), ([None, 0.1], 5), ([0.1, "0.2"], None),
                     (["0.2", 0.1], 5), (["0.2", 0.1], None)):
        with pytest.raises(ValidationError, match="real"):
            multi_asymptotic_variance((1, 1), (5,), zetas, s=s)
    assert multi_asymptotic_variance((1, 1), (5,), [None, 0.1]) == 0.1
    for diag, cross in (([None, 0.5], 0.1), ([0.5, "0.5"], 0.1), ([0.5, 0.5], None)):
        with pytest.raises(ValidationError, match="real"):
            multi_second_order_variance((2, 2, 2), (1, 1), diag, {(1, 2): cross})


def test_variance_formula_binary_reduction():
    orders, sizes = (1, 1), (1,)
    assert multi_asymptotic_variance(orders, sizes, [None, 0.25]) == 0.25
    # m1^2 xi01 + m0^2 xi10 / s under subsampling
    assert_allclose(multi_asymptotic_variance(orders, sizes, [1 / 3, 1 / 3], s=5),
                    1 / 3 + 1 / 15, atol=1e-12)


def test_variance_degenerate_error_and_second_order_report():
    orders, sizes = (2, 2, 2), (1, 1)
    with pytest.raises(DegenerateDataError, match="second_order"):
        multi_asymptotic_variance(orders, sizes, [None, 0.0, 0.0])
    value = multi_second_order_variance(
        orders, sizes, zeta2_diag=[0.5, 0.25], zeta2_cross={(1, 2): 0.1}
    )
    # 4*1*0.5/2 + 4*1*0.25/2 + 16*0.1 reference arithmetic
    expected = (4 * 0.5) / 2 + (4 * 0.25) / 2 + 16 * 0.1
    assert_allclose(value, expected, atol=1e-15)
    with_s = multi_second_order_variance(
        orders, sizes, [0.5, 0.25], {(1, 2): 0.1}, s=4, zeta2_control=0.3,
        zeta2_control_cross=[0.2, 0.2],
    )
    expected_s = expected + 4 * 0.3 / (2 * 16) + (16 * 0.2 / 4) * 2
    assert_allclose(with_s, expected_s, atol=1e-15)


def test_second_order_variance_divides_every_rare_term_by_its_ratio():
    # K = 2 with r = (1, 3): the rare terms carry r_k with or without s
    orders, sizes = (2, 2, 2), (1, 3)
    rare = 4 * 0.5 / 2 + 4 * 0.25 / (2 * 9) + 16 * 0.1 / 3
    assert_allclose(multi_second_order_variance(orders, sizes, [0.5, 0.25], {(1, 2): 0.1}),
                    rare, rtol=1e-15)
    with_s = multi_second_order_variance(
        orders, sizes, [0.5, 0.25], {(1, 2): 0.1}, s=4, zeta2_control=0.3,
        zeta2_control_cross=[0.2, 0.4],
    )
    control = 4 * 0.3 / (2 * 16) + 16 * 0.2 / 4 + 16 * 0.4 / (4 * 3)
    assert_allclose(with_s, rare + control, rtol=1e-15)


def test_second_order_variance_validates_its_inputs():
    orders, sizes = (2, 2, 2), (1, 1)
    with pytest.raises(ValidationError, match="per rare class"):
        multi_second_order_variance(orders, sizes, [0.5], {(1, 2): 0.1})
    with pytest.raises(ValidationError, match="control"):
        multi_second_order_variance(orders, sizes, [0.5, 0.5], {(1, 2): 0.1}, s=3,
                                    zeta2_control=0.3)
    with pytest.raises(ValidationError, match="per rare class"):
        multi_second_order_variance(orders, sizes, [0.5, 0.5], {(1, 2): 0.1}, s=3,
                                    zeta2_control=0.3, zeta2_control_cross=[0.2])
    with pytest.raises(DegenerateDataError):
        multi_second_order_variance(orders, sizes, [0.0, 0.0], {(1, 2): 0.0})
    with pytest.raises(ValidationError, match="s must be positive"):
        multi_second_order_variance(orders, sizes, [0.5, 0.5], {(1, 2): 0.1}, s=0,
                                    zeta2_control=0.3, zeta2_control_cross=[0.2, 0.2])
    for diag, cross, control_cross in (([0.5, -0.5], 0.1, [0.2, 0.2]),
                                       ([0.5, 0.5], -0.1, [0.2, 0.2]),
                                       ([0.5, 0.5], 0.1, [0.2, -0.2])):
        with pytest.raises(ValidationError, match="non-negative"):
            multi_second_order_variance(orders, sizes, diag, {(1, 2): cross}, s=3,
                                        zeta2_control=0.3,
                                        zeta2_control_cross=control_cross)



@pytest.mark.parametrize(
    "orders, sizes, match",
    [
        ((1, 0), (5,), "integers >= 1"),
        ((-1, 1), (5,), "integers >= 1"),
        ((1, 1.5), (5,), "integers >= 1"),
        ((1, 1), (0,), "positive and finite"),
        ((1, 1), (math.inf,), "positive and finite"),
        ((1, 1, 1), (5,), "size per rare class"),
        ((1, 1), (5, 5), "size per rare class"),
        ((1,), (), "size per rare class"),
    ],
    ids=["order-0", "order-neg", "order-float", "size-0", "size-inf", "orders-long",
         "sizes-long", "no-rare-class"],
)
def test_variance_formulas_refuse_bad_orders_and_sizes(orders, sizes, match):
    with pytest.raises(ValidationError, match=match):
        multi_asymptotic_variance(orders, sizes, [1 / 3] * len(orders), s=5)
    with pytest.raises(ValidationError, match=match):
        multi_second_order_variance(orders, sizes, [0.5] * len(sizes), {}, s=5,
                                    zeta2_control=0.5,
                                    zeta2_control_cross=[0.1] * len(sizes))


def test_variance_formulas_refuse_lists_of_the_wrong_length():
    for zetas in ([1 / 3, 1 / 3], [1 / 3] * 4):
        with pytest.raises(ValidationError, match="one zeta per class"):
            multi_asymptotic_variance((1, 1, 1), (5, 5), zetas, s=5)
    with pytest.raises(ValidationError, match="one zeta2_diag per rare class"):
        multi_second_order_variance((2, 2, 2), (5, 5), [0.5] * 3, {(1, 2): 0.1})
    with pytest.raises(ValidationError, match="one zeta2_control_cross per rare class"):
        multi_second_order_variance((2, 2, 2), (5, 5), [0.5, 0.5], {(1, 2): 0.1}, s=3,
                                    zeta2_control=0.3, zeta2_control_cross=[0.2] * 3)

def test_normal_helpers_match_scipy():
    # the normal tail, distribution and quantile the p-values and power
    # rules read, against scipy.stats.norm
    z = np.linspace(-37.0, 37.0, 7_401)
    assert_allclose([_normal_sf(v) for v in z], norm.sf(z), rtol=1e-12, atol=0)
    assert_allclose([_normal_cdf(v) for v in z], norm.cdf(z), rtol=1e-12, atol=0)
    q = np.r_[np.logspace(-300, -1, 600), np.linspace(0.1, 0.9, 81),
              1.0 - np.logspace(-1, -16, 300)]
    assert_allclose([_normal_ppf(v) for v in q], norm.ppf(q), rtol=1e-14, atol=0)
    assert (_normal_ppf(0.0), _normal_ppf(1.0)) == (-math.inf, math.inf)


def test_one_variance_formula_at_every_ratio():
    # n2 = 5 n1 - 1, 5 n1 and 10 n1: the variance keeps every rare term on
    # both sides of n1 = 0.2 n2, and the subsampled test takes any ratio
    rng = np.random.default_rng(6)
    for n2 in (199, 200, 400):
        counts = (2000, 40, n2)
        labels = np.concatenate([np.full(c, k, np.int64) for k, c in enumerate(counts)])
        sample = LabeledSample(rng.standard_normal((labels.size, 1)), labels)
        for mode, s in (("rit", None), ("bit", 3)):
            method = MethodConfig(kernel="multi_kendall", mode=mode, s=s,
                                  inference="asymptotic")
            out = run_test(sample, method, 11)
            z = out.metadata["zetas"]
            # the full sample takes the controls at ratio n0/n1 = 50
            expected = z[1] + z[2] / (n2 / 40) + z[0] / (s or 50)
            assert_allclose(out.variance_estimate, expected, rtol=1e-14)
    # the last sample, at (2000, 40, 400), under BIT's statistic and
    # permutation null
    g = group_by_label(sample)
    plan = draw_subsample(g, 2, seed=0)
    assert math.isfinite(compute_bit(g, multi_kendall_kernel(2), plan).value)
    method = MethodConfig(kernel="multi_kendall", mode="bit", s=3,
                          inference="permutation", B=99)
    assert 0 < run_test(sample, method, 11).p_value <= 1


def test_multi_kernel_arity_checks():
    rng = np.random.default_rng(7)
    g = _grouped((20, 5, 5), rng)
    with pytest.raises(ValidationError):
        compute_rit(g, multi_kendall_kernel(1))
    with pytest.raises(ValidationError):
        compute_rit(
            group_by_label(
                LabeledSample(rng.standard_normal((30, 2)),
                              np.r_[np.zeros(20, np.int64), np.ones(5, np.int64),
                                    np.full(5, 2, np.int64)])
            ),
            multi_kendall_kernel(2),
        )
    # a 3-block kernel on binary data: compute_bit checks the block count
    # with compute_rit's typed error
    g2 = _grouped((12, 4), rng)
    plan = draw_subsample(g2, 2, seed=0)
    for stat in (lambda k: compute_rit(g2, k), lambda k: compute_bit(g2, k, plan)):
        with pytest.raises(ValidationError, match="kernel declares 3 blocks for 2 classes"):
            stat(multi_kendall_kernel(2))


# ---------------------------------------------------------------------------
# block projections
# ---------------------------------------------------------------------------


@st.composite
def binary_scalar_samples(draw):
    n0, n1 = draw(st.integers(2, 60)), draw(st.sampled_from((2, 3, 9)))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    x = rng.standard_normal(n0 + n1)
    if draw(st.booleans()):
        x = np.round(x, 1)  # ties
    if draw(st.booleans()):
        x[:] = 3.0  # constant column
    if draw(st.booleans()):
        x += 1e8
    labels = np.r_[np.zeros(n0, np.int64), np.ones(n1, np.int64)]
    return group_by_label(LabeledSample(x[:, None], labels))


@settings(max_examples=60)
@given(binary_scalar_samples(), st.sampled_from(("cases", "controls")))
def test_k1_zetas_are_the_binary_xis(g, basis):
    multi = multi_kendall_kernel(1)
    zeta1 = estimate_zeta1k(g, multi, 1, basis=basis)
    assert zeta1 == estimate_zeta1k(g, kendall_kernel(), 1, basis=basis)
    zeta0 = estimate_zeta1k(g, multi, 0, basis=basis)
    assert zeta0 == estimate_zeta1k(g, kendall_kernel(), 0)
    # brute force: the mean sign against the other class, at the basis points
    x0, x1 = g.group(0)[:, 0], g.group(1)[:, 0]
    pts = x1 if basis == "cases" else x0
    h1 = np.sign(pts[:, None] - x0[None, :]).mean(axis=1)
    h0 = np.sign(x1[None, :] - x0[:, None]).mean(axis=1)
    assert_allclose([zeta1, zeta0], [h1.var(ddof=1), h0.var(ddof=1)], rtol=1e-12)


def _mean_difference(*blocks):
    """Sum over rare blocks of the block mean minus the control-block
    mean: the difference kernel, for any block orders."""
    rare = sum(b[:, 0].mean() for b in blocks[1:])
    return rare - (len(blocks) - 1) * blocks[0][:, 0].mean()


def _mean_difference_projection(g, orders, k, pts):
    means = [g.group(c)[:, 0].mean() for c in range(g.n_classes)]
    means[k] = (pts[:, 0] + (orders[k] - 1) * means[k]) / orders[k]
    return sum(means[1:]) - (len(orders) - 1) * means[0]


@pytest.mark.parametrize("orders", [(1, 1), (2, 1), (1, 1, 1)],
                         ids=lambda o: "-".join(map(str, o)))
def test_generic_projection_matches_the_closed_form(orders):
    budget = 400
    counts = (30, 8, 6)[: len(orders)]
    labels = np.concatenate([np.full(c, k, np.int64) for k, c in enumerate(counts)])
    x = np.random.default_rng(11).random((labels.size, 1))
    g = group_by_label(LabeledSample(x, labels))
    kernel = custom_kernel(_mean_difference, orders)
    for k in range(len(orders)):
        pts = g.group(k)
        want = _mean_difference_projection(g, orders, k, pts)
        if orders == (1, 1):
            closed = block_projection(g, pearson_kernel(), k, pts, budget, None)
            assert_allclose(want, closed, rtol=1e-12)
        got = block_projection(g, kernel, k, pts, budget, spawn_rng(3, k))
        assert np.abs(got - want).max() < 5 / math.sqrt(budget)

