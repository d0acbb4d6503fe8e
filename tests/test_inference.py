import math
from unittest.mock import patch

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose
from scipy.spatial.distance import cdist, pdist
from scipy.stats import norm

from raresig import (
    DegenerateDataError,
    LabeledSample,
    MultiClassSpec,
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
    multi_kendall_kernel,
    multi_asymptotic_variance,
    pearson_kernel,
    power_first_order,
    power_highdim,
    pvalue_asymptotic_first,
    pvalue_asymptotic_highdim,
    pvalue_permutation,
)
from raresig import _accel, engine, inference
from raresig._accel import angle_embed
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
    # the projection integrates over the controls only; there is no
    # reference option
    rng = np.random.default_rng(6)
    g = _grouped(100, 20, rng, p=5)
    assert estimate_xi02(g, dcov_kernel()) > 0
    with pytest.raises(TypeError):
        estimate_xi02(g, dcov_kernel(), reference="pooled")
    assert estimate_xi02(g, ipcov_kernel()) > 0


def test_condition_diagnostic_positive_and_finite():
    rng = np.random.default_rng(7)
    g = _grouped(300, 50, rng, p=30)
    ratio = condition_diagnostic(g, dcov_kernel())
    assert 0 < ratio < 10


def test_condition_diagnostic_rejects_unknown_reference():
    g = _grouped(100, 20, np.random.default_rng(6), p=5)
    with pytest.raises(TypeError):
        condition_diagnostic(g, dcov_kernel(), reference="controls")


def test_condition_diagnostic_single_pair_errors():
    g = _grouped(20, 2, np.random.default_rng(5), p=2)
    with pytest.raises(DegenerateDataError, match="single pair"):
        condition_diagnostic(g, dcov_kernel())


def test_pair_projection_guard_refuses_before_summing(monkeypatch):
    g = _grouped(10, inference.PAIR_PROJECTION_GUARD + 1, np.random.default_rng(8))
    calls = []
    monkeypatch.setattr(_accel, "pair_matrix", lambda *a: calls.append("pair_matrix"))
    monkeypatch.setattr(_accel, "cross_rowsum", lambda *a: calls.append("cross_rowsum"))
    with pytest.raises(ValidationError, match="guard"):
        estimate_xi02(g, dcov_kernel())
    assert calls == []
    monkeypatch.undo()
    # condition_diagnostic refuses before its statistic sums any pair
    for name in ("pair_matrix", "within_sum", "cross_rowsum"):
        f = getattr(_accel, name)
        monkeypatch.setattr(_accel, name,
                            lambda *a, name=name, f=f: calls.append(name) or f(*a))
    with pytest.raises(ValidationError, match="guard"):
        condition_diagnostic(g, dcov_kernel())
    assert calls == []


# angle_embed rows with c_sigma2 = 0.7 for ipcov; an angle near 0 is
# only good to ~1e-8 absolute (see test_accel.ANGLE_ATOL)
C_SIGMA2 = 0.7
ANGLE_ATOL = 1e-7


def _dense_pairs(kind, a, b):
    if kind == "dcov":
        return cdist(a, b)
    u, v = angle_embed(a, C_SIGMA2), angle_embed(b, C_SIGMA2)
    return np.arccos(np.clip(u @ v.T, -1.0, 1.0))


@st.composite
def projection_samples(draw):
    n0 = draw(st.sampled_from((2, 5, 40, 513)))
    n1 = draw(st.sampled_from((3, 4, 9)))
    p = draw(st.integers(1, 8))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    x = rng.standard_normal((n0 + n1, p))
    x[n0:] *= draw(st.sampled_from((1.0, 3.0)))
    if draw(st.booleans()):
        x = np.round(x, 1)  # ties
    if draw(st.booleans()):
        src = rng.integers(0, n0 + n1, size=(n0 + n1) // 2)
        x[rng.integers(0, n0 + n1, size=src.size)] = x[src]  # duplicate rows
    if draw(st.booleans()):
        x[:, draw(st.integers(0, p - 1))] = 3.0  # constant column
    if draw(st.booleans()):
        x[:, 0] += 1e8
    labels = np.r_[np.zeros(n0, np.int64), np.ones(n1, np.int64)]
    return group_by_label(LabeledSample(x, labels))


@settings(max_examples=60)
@given(st.sampled_from(("dcov", "ipcov")), projection_samples())
def test_xi02_and_condition_ratio_match_dense_reference(kind, g):
    kernel = dcov_kernel() if kind == "dcov" else ipcov_kernel(C_SIGMA2)
    controls, cases = g.group(0), g.group(1)
    n1 = cases.shape[0]
    within = _dense_pairs(kind, controls, controls)
    np.fill_diagonal(within, 0.0)
    big_d = _dense_pairs(kind, cases, controls).mean(axis=1)
    h = 2.0 * (big_d[:, None] + big_d[None, :] - _dense_pairs(kind, cases, cases)
               - within.mean())
    np.fill_diagonal(h, 0.0)
    off = ~np.eye(n1, dtype=bool)
    eh2 = (h[off] ** 2).mean()
    want_xi02 = h[np.triu_indices(n1, k=1)].var(ddof=1)
    # error of one projection entry: rounding, plus four angles for ipcov
    scale = np.abs(h).max()
    dh = 1e-13 * scale + (8 * ANGLE_ATOL if kind == "ipcov" else 0.0)
    assert_allclose(estimate_xi02(g, kernel), want_xi02, rtol=1e-12,
                    atol=4 * scale * dh + dh * dh)
    try:
        ratio = condition_diagnostic(g, kernel)
    except DegenerateDataError:
        assert eh2 <= dh * dh
        return
    big_g = np.einsum("ik,kj->ij", h, h) / n1
    want_ratio = ((big_g[off] ** 2).mean() + (h[off] ** 4).mean() / n1) / eh2**2
    assert_allclose(ratio, want_ratio, rtol=1e-12 + 50 * scale * dh / eh2)


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
    spec = MultiClassSpec(1, (1, 1), (1.0,), "comparable_rare")
    var = multi_asymptotic_variance(spec, [1 / 3, 1 / 3], s=5)
    out = pvalue_asymptotic_first(stat, var)
    assert out.variance_estimate == var
    assert_allclose(out.p_value, 2 * norm.sf(1.0 / math.sqrt(1 / 3 + 1 / 15)), rtol=1e-12)
    # the variance is the caller's: the xi01/xi10/s parameters are gone
    with pytest.raises(TypeError):
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
def permutation_samples(draw, p=None, n_rare=1):
    """Small samples with ties, duplicate rows, constant columns, 1e8
    offsets and as few as two rows in a rare class; ``p`` features
    (drawn from 1-8 when None) and ``n_rare`` rare classes."""
    sizes = [draw(st.sampled_from((2, 3, 8))) for _ in range(n_rare)]
    n0 = draw(st.integers(24, 60))
    if p is None:
        p = draw(st.integers(1, 8))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    x = rng.standard_normal((n0 + sum(sizes), p))
    if draw(st.booleans()):
        x = np.round(x, 1)  # ties
    if draw(st.booleans()):
        src = rng.integers(0, x.shape[0], size=x.shape[0] // 2)
        x[rng.integers(0, x.shape[0], size=src.size)] = x[src]  # duplicate rows
    if draw(st.booleans()):
        x[:, draw(st.integers(0, p - 1))] = 3.0  # constant column
    if draw(st.booleans()):
        x[:, 0] += 1e8
    labels = rng.permutation(np.repeat(np.arange(n_rare + 1), [n0, *sizes]))
    return LabeledSample(x, labels)


# kernel, feature count (None: drawn) and rare-class count of every
# kernel whose permutations read a pooled summary
SUMMARY_KERNELS = {
    "kendall": (kendall_kernel(), 1, 1),
    "pearson": (pearson_kernel(), 1, 1),
    "multi-kendall-1": (multi_kendall_kernel(1), 1, 1),
    "multi-kendall-2": (multi_kendall_kernel(2), 1, 2),
    "dcov": (dcov_kernel(), None, 1),
    "ipcov": (ipcov_kernel(), None, 1),
}


def _pool(sample, kernel, s, seed):
    """The permuted rows of a test and the plan's constant."""
    if s is None:
        return sample, 1.0
    grouped = group_by_label(sample)
    pool, plan = inference._thinned_pool(sample, grouped, kernel, s, seed)
    return pool, plan.ratio(grouped.counts[1], kernel.m0)


class _Replay:
    """Stands in for ``spawn_rng``: every generator hands out the next of
    ``draws`` as its ``choice``."""

    def __init__(self, draws):
        self.draws = iter(draws)

    def __call__(self, *key):
        return self

    def choice(self, n, size, replace):
        return next(self.draws)


@pytest.mark.parametrize("name", list(SUMMARY_KERNELS))
@settings(max_examples=40)
@given(s=st.sampled_from((None, 3)), seed=st.integers(0, 2**16), data=st.data())
def test_permutation_summary_engines_match_regrouping(name, s, seed, data):
    # each pooled summary equals compute_rit on the regrouped pool, over
    # the same pool and the same drawn case sets
    kernel, p, n_rare = SUMMARY_KERNELS[name]
    sample = data.draw(permutation_samples(p=p, n_rare=n_rare))
    B = 39
    pool, ratio = _pool(sample, kernel, s, seed)
    summary = engine._pooled_statistic(pool.features, kernel)
    seen = []
    fast = ratio * inference._permutation_stats(
        lambda cases: seen.append(cases) or summary(cases), pool.labels, B, seed
    )
    slow = ratio * inference._permutation_stats(
        inference._regroup_statistic(pool, kernel), pool.labels, B, seed
    )
    # every labeling keeps the class counts: disjoint sorted sets of the
    # observed sizes, the observed sets first
    counts = list(np.bincount(pool.labels)[1:])
    assert len(seen) == B + 1
    for cases in seen:
        assert [idx.size for idx in cases] == counts
        rows = np.concatenate(cases)
        assert np.unique(rows).size == rows.size
        assert all(np.all(np.diff(idx) > 0) for idx in cases)
    assert all(np.array_equal(idx, np.flatnonzero(pool.labels == k))
               for k, idx in enumerate(seen[0], 1))
    if kernel.kind in ("rescaled_kendall", "multi_kendall"):
        # integer sign sums: bitwise
        assert np.array_equal(fast, slow)
    # rounding of the six-term cancellation, relative to the pair
    # distances; plus ANGLE_ATOL of test_accel, the arccos rounding near
    # angle 0 (rows made parallel by a 1e8 offset)
    atol = 1e-12 * pdist(pool.features).mean() + (1e-7 if name == "ipcov" else 0.0)
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
    # one case set drawn in two orders gives the same value, bit for bit
    rng = np.random.default_rng(seed)
    rare = np.flatnonzero(pool.labels)
    drawn = rng.choice(pool.n, rare.size, replace=False)
    shuffled = drawn.copy()
    for k in range(1, n_rare + 1):
        slot = np.flatnonzero(pool.labels[rare] == k)
        shuffled[slot] = rng.permutation(drawn[slot])
    with patch.object(inference, "spawn_rng", _Replay([drawn, shuffled])):
        twice = inference._permutation_stats(summary, pool.labels, 2, seed)
    assert twice[1] == twice[2]


@pytest.mark.parametrize(
    "kernel,p",
    [(kendall_kernel(), 1), (pearson_kernel(), 1), (dcov_kernel(), 3)],
    ids=["kendall", "pearson", "dcov"],
)
def test_summary_permutations_never_regroup(monkeypatch, kernel, p):
    # a permutation reads the pooled summary: no regrouping and no full
    # statistic per permutation, however many permutations run
    rng = np.random.default_rng(13)
    labels = rng.permutation(np.r_[np.zeros(200, np.int64), np.ones(20, np.int64)])
    sample = LabeledSample(rng.standard_normal((220, p)), labels)
    calls = {"group_by_label": 0, "compute_rit": 0}
    for module in (inference, engine):
        for name in calls:
            f = getattr(module, name)

            def counted(*a, name=name, f=f, **kw):
                calls[name] += 1
                return f(*a, **kw)

            monkeypatch.setattr(module, name, counted)
    out = pvalue_permutation(sample, kernel, B=99, seed=3)
    assert out.metadata["batched"]
    assert calls == {"group_by_label": 1, "compute_rit": 0}


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
