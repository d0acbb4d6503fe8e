"""Acceptance suite: one test per release criterion, each at its stated
tolerance, printing a PASS line with the measured quantities.

This module is the exit gate for the package; expect a total runtime of
roughly ten minutes on one core.  Run it alone with

    pytest tests/test_acceptance.py -v -s
"""

import math
import time

import numpy as np
import pytest
from numpy.testing import assert_allclose
from scipy.spatial.distance import pdist
from scipy.stats import norm

from raresig import (
    LabeledSample,
    compute_bit,
    compute_classical,
    compute_rit,
    compute_rit_bruteforce,
    dcov_kernel,
    draw_subsample,
    estimate_xi02,
    estimate_zeta1k,
    group_by_label,
    imbalanced_kendall_kernel,
    ipcov_kernel,
    kendall_kernel,
    multi_asymptotic_variance,
    multi_kendall_kernel,
    pearson_kernel,
    power_first_order,
    pvalue_asymptotic_highdim,
    pvalue_permutation,
)
from raresig.multiclass import MultiClassSpec
from raresig.rng import spawn_rng, spawn_seed
from raresig.simulate import (
    MethodConfig,
    ScenarioSpec,
    benchmark_complexity,
    figure1_phenomenon,
    generate,
    loglog_slope,
    run_erp,
)

pytestmark = pytest.mark.slow


def _report(name: str, detail: str) -> None:
    print(f"\nACCEPTANCE {name}: {detail} ... PASS")


def _grouped(x, labels):
    return group_by_label(LabeledSample(np.asarray(x, float), np.asarray(labels)))


# ---------------------------------------------------------------------------
# 1. oracle equivalence for every kernel
# ---------------------------------------------------------------------------


def test_criterion_1_oracle_equivalence():
    t0 = time.perf_counter()
    kernels = [
        (pearson_kernel(), 1),
        (kendall_kernel(), 1),
        (imbalanced_kendall_kernel(2), 1),
        (dcov_kernel(), 2),
        (ipcov_kernel(1.0), 2),
    ]
    rng = np.random.default_rng(101)
    worst = 0.0
    for kernel, p in kernels:
        for _ in range(200):
            n0 = int(rng.integers(max(kernel.m0, 2), 13))
            n1 = int(rng.integers(max(kernel.m1, 2), 9))
            x = rng.standard_normal((n0 + n1, p))
            labels = np.r_[np.zeros(n0, np.int64), np.ones(n1, np.int64)]
            g = _grouped(x, labels)
            fast = compute_rit(g, kernel).value
            brute = compute_rit_bruteforce(g, kernel).value
            err = abs(fast - brute) / max(1.0, abs(brute))
            worst = max(worst, err)
            assert err < 1e-12
    elapsed = time.perf_counter() - t0
    assert elapsed < 60.0
    _report("1 oracle equivalence",
            f"5 kernels x 200 instances, worst relative error {worst:.2e}, "
            f"{elapsed:.1f}s")


# ---------------------------------------------------------------------------
# 2-3. first-order reproduction at published scale
# ---------------------------------------------------------------------------


def test_criterion_2_pearson_size_and_power():
    t0 = time.perf_counter()
    base = ScenarioSpec("first_order_eg1", n=100_000, n1=50, M=1000, seed=202)
    rit = MethodConfig(kernel="pearson", mode="rit", xi_basis="controls")
    size = run_erp(base.null(), rit).erp
    power = run_erp(base, rit).erp
    bit = MethodConfig(kernel="pearson", mode="bit", s=40, xi_basis="controls")
    power_bit = run_erp(base, bit).erp
    elapsed = time.perf_counter() - t0
    assert abs(size - 0.055) <= 0.03
    assert abs(power - 0.569) <= 0.05
    assert abs(power_bit - 0.541) <= 0.05
    assert elapsed < 600.0
    _report("2 rescaled-difference reproduction",
            f"size {size:.3f} (target 0.055±0.03), power {power:.3f} "
            f"(0.569±0.05), subsampled power {power_bit:.3f} (0.541±0.05), "
            f"{elapsed:.0f}s")


def test_criterion_3_kendall_power():
    t0 = time.perf_counter()
    base = ScenarioSpec("first_order_eg1", n=100_000, n1=100, M=1000, seed=303)
    rit = MethodConfig(kernel="kendall", mode="rit", xi_basis="controls")
    power = run_erp(base, rit).erp
    bit = MethodConfig(kernel="kendall", mode="bit", s=20, xi_basis="controls")
    power_bit = run_erp(base, bit).erp
    elapsed = time.perf_counter() - t0
    assert abs(power - 0.831) <= 0.05
    assert abs(power_bit - 0.815) <= 0.05
    assert elapsed < 1200.0
    _report("3 rescaled-sign reproduction",
            f"power {power:.3f} (0.831±0.05), subsampled power "
            f"{power_bit:.3f} (0.815±0.05), {elapsed:.0f}s")


# ---------------------------------------------------------------------------
# 4. the imbalance phenomenon
# ---------------------------------------------------------------------------


def test_criterion_4_phenomenon():
    t0 = time.perf_counter()
    rows = figure1_phenomenon(
        fixed_grid=(500, 1000, 2000),
        decreasing_grid=(2000, 5000, 20000),
        n1=100, M=500, seed=404,
    )
    by = {(r["scenario"], r["n"], r["statistic"]): r for r in rows}
    for stat in ("pearson", "kendall"):
        balanced = by[("intro_fixed_p", 2000, stat)]["power"]
        assert balanced > 0.95
        plateau = (
            by[("intro_decreasing_p", 20000, stat)]["power"]
            - by[("intro_decreasing_p", 2000, stat)]["power"]
        )
        assert abs(plateau) < 0.1
    corr = [by[("intro_decreasing_p", n, "pearson")]["mean_abs_stat"]
            for n in (2000, 5000, 20000)]
    assert corr[0] > corr[1] - 0.002 > corr[2] - 0.004
    elapsed = time.perf_counter() - t0
    assert elapsed < 900.0
    _report("4 imbalance phenomenon",
            f"balanced power(n=2000) > 0.95, rare-case power change "
            f"{plateau:+.3f} over n in [2000, 20000], mean |corr| "
            f"{corr[0]:.4f} -> {corr[2]:.4f}, {elapsed:.0f}s")


# ---------------------------------------------------------------------------
# 5. subsampled-statistic variance law
# ---------------------------------------------------------------------------


def test_criterion_5_variance_law():
    t0 = time.perf_counter()
    n0, n1, reps = 100_000, 200, 2000
    s_values = (2, 5, 20)
    kernel = kendall_kernel()
    full = np.empty(reps)
    sub = {s: np.empty(reps) for s in s_values}
    labels = np.r_[np.zeros(n0, np.int64), np.ones(n1, np.int64)]
    for rep in range(reps):
        rng = spawn_rng(505, rep)
        g = _grouped(rng.standard_normal((n0 + n1, 1)), labels)
        full[rep] = compute_rit(g, kernel).value
        for s in s_values:
            plan = draw_subsample(g, s, seed=505_000 + rep * 7 + s)
            sub[s][rep] = compute_bit(g, kernel, plan).value
    var_full = n1 * full.var(ddof=1)
    assert abs(var_full - 1 / 3) / (1 / 3) < 0.15
    details = [f"full {var_full:.4f}/0.3333"]
    for s in s_values:
        target = 1 / 3 + 1 / (3 * s)
        got = n1 * sub[s].var(ddof=1)
        assert abs(got - target) / target < 0.15
        details.append(f"s={s} {got:.4f}/{target:.4f}")
    elapsed = time.perf_counter() - t0
    assert elapsed < 600.0
    _report("5 variance law", ", ".join(details) + f", {elapsed:.0f}s")


# ---------------------------------------------------------------------------
# 6. second-order kernel at desk scale
# ---------------------------------------------------------------------------


def test_criterion_6_second_order_desk_scale():
    t0 = time.perf_counter()
    # (a) high-dimensional normal null: uniform p-values and size
    null = ScenarioSpec("second_order_eg1", n=2_100, n1=100, p=50,
                        M=500, seed=606).null()
    kernel = dcov_kernel()
    pvals = np.empty(null.M)
    for rep in range(null.M):
        g = group_by_label(generate(null, rep))
        stat = compute_rit(g, kernel)
        xi02 = estimate_xi02(g, kernel)
        pvals[rep] = pvalue_asymptotic_highdim(stat, xi02).p_value
    size = float((pvals <= 0.05).mean())
    sorted_p = np.sort(pvals)
    grid = np.arange(1, null.M + 1) / null.M
    ks = max(
        float(np.abs(grid - sorted_p).max()),
        float(np.abs(sorted_p - (grid - 1 / null.M)).max()),
    )
    assert ks < 0.08
    assert 0.02 <= size <= 0.09

    # (b) permutation power of the subsampled statistic under the shift
    alt = ScenarioSpec("second_order_eg1", n=2_050, n1=50, p=50, M=200, seed=607)
    rejected = 0
    for rep in range(alt.M):
        g, seed = group_by_label(generate(alt, rep)), 607_000 + rep
        plan = draw_subsample(g, 20, spawn_seed(seed, 1), kernel.m0)
        out = pvalue_permutation(g, kernel, B=199, seed=seed, plan=plan)
        rejected += out.p_value <= 0.05
    power = rejected / alt.M
    assert power >= 0.85
    elapsed = time.perf_counter() - t0
    assert elapsed < 3600.0
    _report("6 second-order desk scale",
            f"null KS {ks:.3f} (<0.08), size {size:.3f} in [0.02, 0.09], "
            f"permutation power {power:.3f} (>=0.85), {elapsed:.0f}s")


# ---------------------------------------------------------------------------
# 7. power formulas against Monte Carlo
# ---------------------------------------------------------------------------


def test_criterion_7_power_formula_cross_check():
    t0 = time.perf_counter()
    # exact size at zero shift
    assert_allclose(power_first_order(0.0, 100, 1, 1, 1 / 3, 0.05), 0.05, atol=1e-12)

    # large-sample plug-in for the population quantities
    rng = np.random.default_rng(707)
    n_big = 200_000
    labels = np.r_[np.zeros(n_big, np.int64), np.ones(n_big, np.int64)]
    x = rng.standard_normal(2 * n_big)
    x[labels == 0] += 0.3
    g_big = _grouped(x[:, None], labels)
    kernel = kendall_kernel()
    mu0 = compute_rit(g_big, kernel).value
    xi01 = estimate_zeta1k(g_big, kernel, 1, basis="controls")
    xi10 = estimate_zeta1k(g_big, kernel, 0)

    details = []
    for n1 in (50, 100):
        s = 2000 // n1
        base = ScenarioSpec("first_order_eg1", n=20_000, n1=n1, M=1000,
                            seed=708 + n1)
        erp_rit = run_erp(
            base, MethodConfig(kernel="kendall", mode="rit", xi_basis="controls")
        ).erp
        erp_bit = run_erp(
            base,
            MethodConfig(kernel="kendall", mode="bit", s=s, xi_basis="controls"),
        ).erp
        pred_rit = power_first_order(mu0, n1, 1, 1, xi01, 0.05)
        pred_bit = power_first_order(mu0, n1, 1, 1, xi01, 0.05, s=s, xi10=xi10)
        assert abs(pred_rit - erp_rit) <= 0.08
        assert abs(pred_bit - erp_bit) <= 0.08
        details.append(
            f"n1={n1}: full {pred_rit:.3f}/{erp_rit:.3f}, "
            f"subsampled {pred_bit:.3f}/{erp_bit:.3f}"
        )
    elapsed = time.perf_counter() - t0
    _report("7 power formulas vs Monte Carlo",
            "; ".join(details) + f" (formula/ERP, tol 0.08), {elapsed:.0f}s")


# ---------------------------------------------------------------------------
# 8. rescaling identities
# ---------------------------------------------------------------------------


def test_criterion_8_rescaling_identities():
    t0 = time.perf_counter()
    rng = np.random.default_rng(808)
    worst_tau, worst_dcov = 0.0, 0.0
    for trial in range(50):
        n0 = int(rng.integers(40, 200))
        n1 = int(rng.integers(5, 30))
        n = n0 + n1
        labels = np.r_[np.zeros(n0, np.int64), np.ones(n1, np.int64)]
        x1 = rng.standard_normal(n)
        if trial % 3 == 0:
            x1 = np.round(x1, 1)  # exercise ties
        s1 = LabeledSample(x1[:, None], labels)
        tau = compute_classical(s1, "kendall")
        t_tau = compute_rit(group_by_label(s1), kendall_kernel()).value
        worst_tau = max(worst_tau, abs(tau - t_tau * 2 * n0 * n1 / n**2))

        p = int(rng.integers(1, 4))
        xp = rng.standard_normal((n, p))
        sp = LabeledSample(xp, labels)
        dcov2 = compute_classical(sp, "dcov")
        t_dcov = compute_rit(group_by_label(sp), dcov_kernel()).value
        s00 = 2 * pdist(xp[labels == 0]).sum()
        s11 = 2 * pdist(xp[labels == 1]).sum()
        residual = 2 * s00 / (n0**2 * (n0 - 1)) + 2 * s11 / (n1**2 * (n1 - 1))
        worst_dcov = max(
            worst_dcov, abs(dcov2 * n**4 / (n0**2 * n1**2) - t_dcov - residual)
        )
    assert worst_tau < 1e-12
    assert worst_dcov < 1e-10
    elapsed = time.perf_counter() - t0
    _report("8 rescaling identities",
            f"50 datasets: sign-statistic worst |err| {worst_tau:.1e} (<1e-12), "
            f"distance worst |err| {worst_dcov:.1e} (<1e-10), {elapsed:.0f}s")


# ---------------------------------------------------------------------------
# 9. multiclass reduction and size
# ---------------------------------------------------------------------------


def test_criterion_9_multiclass_reduction_and_size():
    t0 = time.perf_counter()
    # K = 1 reductions are bit-for-bit on shared seeds
    rng = np.random.default_rng(909)
    labels = np.r_[np.zeros(300, np.int64), np.ones(40, np.int64)]
    g = _grouped(rng.standard_normal((340, 1)), labels)
    assert (
        compute_rit(g, multi_kendall_kernel(1)).value
        == compute_rit(g, kendall_kernel()).value
    )
    plan = draw_subsample(g, 3, seed=55)
    assert (
        compute_bit(g, multi_kendall_kernel(1), plan).value
        == compute_bit(g, kendall_kernel(), plan).value
    )
    assert estimate_zeta1k(g, multi_kendall_kernel(1), k=1) == estimate_zeta1k(
        g, kendall_kernel(), 1, basis="cases"
    )

    # K = 2 null size with the first-order normal calibration
    n0, n1 = 4_000, 200
    m = 1000
    labels = np.concatenate(
        [np.zeros(n0, np.int64), np.ones(n1, np.int64), np.full(n1, 2, np.int64)]
    )
    kernel = multi_kendall_kernel(2)
    rejected = 0
    for rep in range(m):
        rng = spawn_rng(910, rep)
        g = _grouped(rng.standard_normal((labels.size, 1)), labels)
        stat = compute_rit(g, kernel)
        mspec = MultiClassSpec.from_grouped(g, kernel.block_orders)
        zetas = [None] + [estimate_zeta1k(g, kernel, k) for k in (1, 2)]
        var = multi_asymptotic_variance(mspec, zetas)
        z = math.sqrt(n1) * stat.value / math.sqrt(var)
        rejected += 2 * norm.sf(abs(z)) <= 0.05
    size = rejected / m
    assert 0.03 <= size <= 0.07
    elapsed = time.perf_counter() - t0
    _report("9 multiclass reduction and size",
            f"K=1 paths bitwise equal; K=2 null size {size:.3f} in "
            f"[0.03, 0.07], {elapsed:.0f}s")


# ---------------------------------------------------------------------------
# 10. runtime scaling
# ---------------------------------------------------------------------------


def test_criterion_10_complexity_slopes():
    t0 = time.perf_counter()
    # sizes span 16x while staying clear of memory-hierarchy superlinearity
    rows = benchmark_complexity(
        "kendall", sizes=(10_000, 40_000, 160_000), trials=5, seed=111
    )
    slope_kendall = loglog_slope([r["x"] for r in rows],
                                 [r["cpu_seconds"] for r in rows])
    rows = benchmark_complexity("dcov", sizes=(1_000, 2_000, 4_000), trials=5,
                                p=5, seed=112)
    slope_dcov = loglog_slope([r["x"] for r in rows],
                              [r["cpu_seconds"] for r in rows])
    rows = benchmark_complexity("dcov", sizes=(), mode="bit", n1=100,
                                s_values=(5, 10, 20), trials=5, p=5, seed=113)
    slope_bit = loglog_slope([r["x"] for r in rows],
                             [r["cpu_seconds"] for r in rows])
    assert 0.9 <= slope_kendall <= 1.4
    assert 1.7 <= slope_dcov <= 2.3
    assert 1.6 <= slope_bit <= 2.4
    elapsed = time.perf_counter() - t0
    _report("10 complexity slopes",
            f"sign statistic vs n {slope_kendall:.2f} in [0.9, 1.4]; "
            f"pairwise statistic vs n {slope_dcov:.2f} in [1.7, 2.3]; "
            f"subsampled pairwise vs s {slope_bit:.2f} in [1.6, 2.4], "
            f"{elapsed:.0f}s")
