import math
import tracemalloc
from dataclasses import replace
from unittest.mock import patch

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose
from scipy.spatial.distance import cdist, pdist
from scipy.stats import chisquare, norm

from raresig import (
    DegenerateDataError,
    LabeledSample,
    RaresigError,
    RitStatistic,
    ValidationError,
    compute_rit,
    dcov_kernel,
    draw_subsample,
    estimate_xi02,
    estimate_zeta1k,
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
from raresig import _accel, engine, inference, subsample
from raresig._accel import angle_embed
from raresig.pipeline import run_test
from raresig.rng import spawn_rng, spawn_seed
from raresig.simulate import MethodConfig, ScenarioSpec, run_erp


def _grouped(n0, n1, rng, p=1, shift=0.0):
    labels = np.r_[np.zeros(n0, np.int64), np.ones(n1, np.int64)]
    x = rng.standard_normal((n0 + n1, p))
    x[labels == 0] += shift
    return group_by_label(LabeledSample(x, labels))


def _stat(value, kernel, n0, n1):
    return RitStatistic(value, kernel, n0, n1, "test")


# ---------------------------------------------------------------------------
# variance estimators
# ---------------------------------------------------------------------------


def test_xi01_pearson_is_case_variance():
    rng = np.random.default_rng(0)
    g = _grouped(5000, 2000, rng)
    xi = estimate_zeta1k(g, pearson_kernel(), 1)
    assert abs(xi - 1.0) < 0.1


def test_xi01_constant_cases_is_zero():
    g = group_by_label(
        LabeledSample(
            np.r_[np.random.default_rng(1).standard_normal(50), np.full(10, 2.0)][:, None],
            np.r_[np.zeros(50, np.int64), np.ones(10, np.int64)],
        )
    )
    assert estimate_zeta1k(g, pearson_kernel(), 1) < 1e-28
    assert estimate_zeta1k(g, kendall_kernel(), 1) < 1e-28


def test_xi01_needs_first_order_kernel_and_two_cases():
    rng = np.random.default_rng(2)
    g = _grouped(30, 5, rng, p=2)
    # a second-order kernel has no first-order projection variance, at
    # either block; a Monte Carlo number would hide that
    for k in (1, 0):
        with pytest.raises(ValidationError, match="first-order"):
            estimate_zeta1k(g, dcov_kernel(), k)
    g1 = _grouped(30, 1, rng)
    with pytest.raises(DegenerateDataError):
        estimate_zeta1k(g1, kendall_kernel(), 1)


def test_xi10_mirrors_xi01_for_kendall():
    rng = np.random.default_rng(3)
    g = _grouped(3000, 1500, rng)
    assert abs(estimate_zeta1k(g, kendall_kernel(), 0) - 1 / 3) < 0.05


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


@pytest.mark.parametrize("kernel", [dcov_kernel(), ipcov_kernel()], ids=["dcov", "ipcov"])
def test_xi02_from_the_statistic_row_sums_holds_no_case_pair_array(kernel):
    # n = 20,000, n1 = 5,000, p = 50: an n1 x n1 array alone is 200 MB,
    # while xi02 from the row sums the statistic keeps, the case rows
    # gathered included, stays below 4x the 8 MB input
    rng = np.random.default_rng(25)
    labels = rng.permutation(np.r_[np.zeros(15_000, np.int64), np.ones(5_000, np.int64)])
    sample = LabeledSample(rng.standard_normal((20_000, 50)), labels)
    g = group_by_label(sample)
    rowsums = _accel.cross_rowsum(kernel, g.group(1), g.group(0))
    g = group_by_label(sample)
    tracemalloc.start()
    try:
        xi02 = estimate_xi02(g, kernel, rowsums)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert 0 < xi02 < math.inf
    assert peak < 4 * sample.features.nbytes


# angle_embed rows with c_sigma2 = 0.7 for ipcov
C_SIGMA2 = 0.7
# feature counts on both sides of _accel.GEMM_MIN_P, from which the dcov
# distance block is one GEMM
FEATURE_COUNTS = st.one_of(st.integers(1, 8), st.just(64))
# and the high dimensions of the normal null
PROJECTION_FEATURE_COUNTS = st.one_of(FEATURE_COUNTS, st.sampled_from((300, 2_000)))


def _dense_pairs(kind, a, b):
    if kind == "dcov":
        return cdist(a, b)
    u, v = angle_embed(a, C_SIGMA2), angle_embed(b, C_SIGMA2)
    return 2.0 * np.arcsin(cdist(u, v) / 2.0)


@st.composite
def projection_samples(draw):
    n0 = draw(st.sampled_from((2, 5, 40, 513)))
    n1 = draw(st.sampled_from((3, 4, 9)))
    p = draw(PROJECTION_FEATURE_COUNTS)
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
def test_xi02_matches_dense_reference(kind, g):
    kernel = dcov_kernel() if kind == "dcov" else ipcov_kernel(C_SIGMA2)
    controls, cases = g.group(0), g.group(1)
    n1 = cases.shape[0]
    within = _dense_pairs(kind, controls, controls)
    np.fill_diagonal(within, 0.0)
    big_d = _dense_pairs(kind, cases, controls).mean(axis=1)
    h = 2.0 * (big_d[:, None] + big_d[None, :] - _dense_pairs(kind, cases, cases)
               - within.mean())
    want_xi02 = h[np.triu_indices(n1, k=1)].var(ddof=1)
    # error of one projection entry: rounding
    scale = np.abs(h).max()
    dh = 1e-13 * scale
    assert_allclose(estimate_xi02(g, kernel), want_xi02, rtol=1e-12,
                    atol=4 * scale * dh + dh * dh)


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
    var = multi_asymptotic_variance((1, 1), (1,), [1 / 3, 1 / 3], s=5)
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
    # n1 T = sqrt(2) * 1.1 * 1.96 with variance 2 xi02 (1 + n1/n0)^2 =
    # 2 * 1.1^2 -> p = 0.05
    n1 = 100
    target = math.sqrt(2.0) * 1.1 * 1.959963984540054
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
    out = pvalue_permutation(group_by_label(LabeledSample(x[:, None], labels)),
                             kendall_kernel(), B=99, seed=0)
    assert out.p_value == 1 / 100
    assert out.statistic == 1.0


def test_permutation_requires_enough_replicates():
    rng = np.random.default_rng(9)
    s = LabeledSample(rng.standard_normal((20, 1)), np.r_[np.zeros(15, np.int64), np.ones(5, np.int64)])
    with pytest.raises(ValidationError):
        pvalue_permutation(group_by_label(s), kendall_kernel(), B=10)


def test_permutation_ties_count_toward_rejection():
    # constant features: every permuted statistic equals the observed 0
    x = np.ones((30, 1))
    labels = np.r_[np.zeros(24, np.int64), np.ones(6, np.int64)]
    out = pvalue_permutation(group_by_label(LabeledSample(x, labels)), kendall_kernel(),
                             B=49, seed=1)
    assert out.p_value == 1.0


def _outcome(sample, method, seed):
    """The fields of ``run_test``'s outcome that a test reports, or the
    refusal it raised."""
    try:
        out = run_test(sample, method, seed)
    except RaresigError as exc:
        return type(exc).__name__, str(exc)
    return out.statistic, out.scaled_statistic, out.variance_estimate, out.p_value, out.method


@settings(max_examples=120)
@given(kernel=st.sampled_from((("kendall", 1), ("multi_kendall", 1), ("multi_kendall", 2))),
       mode=st.sampled_from(("rit", "bit")),
       inference=st.sampled_from(("asymptotic", "permutation")),
       seed=st.integers(0, 2**16), data=st.data())
def test_permutation_invariant_to_monotone_transforms(kernel, mode, inference, seed, data):
    # a paper identity: the sign statistics, their variance and both nulls
    # see only the order of the values, so dense ranks (which keep order
    # and ties exactly, 1e8 offsets included) change no bit of the test
    kernel, n_rare = kernel
    sample = data.draw(permutation_samples(p=1, n_rare=n_rare))
    ranks = np.unique(sample.features[:, 0], return_inverse=True)[1]
    method = MethodConfig(kernel=kernel, mode=mode, s=3 if mode == "bit" else None,
                          inference=inference, B=39)
    assert _outcome(LabeledSample(ranks[:, None].astype(float), sample.labels),
                    method, seed) == _outcome(sample, method, seed)


@pytest.mark.parametrize("mode", ["rit", "bit"])
@pytest.mark.parametrize("basis", ["cases", "controls"])
@pytest.mark.parametrize("inference", ["asymptotic", "permutation", "auto"])
@settings(max_examples=12)
@given(seed=st.integers(0, 2**16), data=st.data())
def test_one_rare_class_multi_kendall_is_the_kendall_test(mode, basis, inference,
                                                          seed, data):
    # the K = 1 reduction end to end, on tied values: the same statistic,
    # variance, p-value and null, bit for bit
    sample = data.draw(permutation_samples(p=1))
    sample = LabeledSample(np.round(sample.features, 1), sample.labels)
    method = MethodConfig(mode=mode, s=2 if mode == "bit" else None, inference=inference,
                          xi_basis=basis, B=39)
    assert _outcome(sample, replace(method, kernel="multi_kendall"), seed) == _outcome(
        sample, replace(method, kernel="kendall"), seed)


@st.composite
def permutation_samples(draw, p=None, n_rare=1):
    """Small samples with ties, duplicate rows, constant columns, 1e8
    offsets and as few as two rows in a rare class; ``p`` features
    (drawn from ``FEATURE_COUNTS`` when None) and ``n_rare`` rare
    classes."""
    sizes = [draw(st.sampled_from((2, 3, 8))) for _ in range(n_rare)]
    n0 = draw(st.integers(24, 60))
    if p is None:
        p = draw(FEATURE_COUNTS)
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


def _plan(grouped, kernel, s, seed):
    """The plan ``run_test`` draws for a subsampled test with ``seed``,
    None without ``s``."""
    return None if s is None else draw_subsample(grouped, s, spawn_seed(seed, 1), kernel.m0)


def _pool(grouped, kernel, plan):
    """The permuted rows of a test, their labels and the plan's constant."""
    if plan is None:
        return (*inference._permutation_pool(grouped), 1.0)
    kept = subsample._kept_sample(grouped, kernel, plan)
    return (*inference._permutation_pool(kept), plan.ratio(grouped.counts[1], kernel.m0))


class _Replay:
    """Stands in for ``_ordered_draws``: every chunk draws ``rows`` in
    turn, repeated to fill its relabelings."""

    def __init__(self, rows):
        self.rows = np.asarray(rows)

    def __call__(self, rng, n, m):
        assert m == self.rows.shape[1]
        return np.resize(self.rows, (inference.PERMUTATION_CHUNK, m))


@pytest.mark.parametrize("name", list(SUMMARY_KERNELS))
@settings(max_examples=40)
@given(s=st.sampled_from((None, 3)), seed=st.integers(0, 2**16), data=st.data())
def test_permutation_summary_engines_match_regrouping(name, s, seed, data):
    # each pooled summary equals compute_rit on the regrouped pool, over
    # the same pool and the same drawn case sets
    kernel, p, n_rare = SUMMARY_KERNELS[name]
    sample = data.draw(permutation_samples(p=p, n_rare=n_rare))
    B = 39
    grouped = group_by_label(sample)
    plan = _plan(grouped, kernel, s, seed)
    x, labels, ratio = _pool(grouped, kernel, plan)
    summary = engine._pooled_statistic(x, kernel)
    chunks = []
    fast = ratio * inference._permutation_stats(
        lambda cases: chunks.append(cases) or summary(cases), labels, B, seed
    )
    slow = ratio * inference._permutation_stats(
        inference._regroup_statistic(x, kernel), labels, B, seed
    )
    # the observed labeling is a chunk of one, then one chunk of B; every
    # labeling keeps the class counts: disjoint sorted sets of the
    # observed sizes, the observed sets first
    assert [len(cases[0]) for cases in chunks] == [1, B]
    seen = [tuple(idx[b] for idx in cases)
            for cases in chunks for b in range(len(cases[0]))]
    counts = list(np.bincount(labels)[1:])
    for cases in seen:
        assert [idx.size for idx in cases] == counts
        rows = np.concatenate(cases)
        assert np.unique(rows).size == rows.size
        assert all(np.all(np.diff(idx) > 0) for idx in cases)
    assert all(np.array_equal(idx, np.flatnonzero(labels == k))
               for k, idx in enumerate(seen[0], 1))
    if kernel.kind in ("rescaled_kendall", "multi_kendall"):
        # integer sign sums: bitwise
        assert np.array_equal(fast, slow)
    # rounding of the six-term cancellation, relative to the pair
    # distances
    atol = 1e-12 * pdist(x).mean()
    assert_allclose(fast, slow, rtol=1e-9, atol=atol)
    out = pvalue_permutation(grouped, kernel, B=B, seed=seed, plan=plan)
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
    # one case set drawn in two orders gives the same value, bit for bit,
    # and the i-th drawn position takes the i-th rare label
    rng = np.random.default_rng(seed)
    rare = np.flatnonzero(labels)
    drawn = rng.choice(labels.size, rare.size, replace=False)
    shuffled = drawn.copy()
    for k in range(1, n_rare + 1):
        slot = np.flatnonzero(labels[rare] == k)
        shuffled[slot] = rng.permutation(drawn[slot])
    replayed = []
    with patch.object(inference, "_ordered_draws", _Replay([drawn, shuffled])):
        twice = inference._permutation_stats(
            lambda cases: replayed.append(cases) or summary(cases), labels, 2, seed)
    assert twice[1] == twice[2]
    for k, idx in enumerate(replayed[1], 1):
        assert np.array_equal(idx[0], np.sort(drawn[labels[rare] == k]))


@pytest.mark.parametrize(
    "kernel,p",
    [(kendall_kernel(), 1), (pearson_kernel(), 1), (dcov_kernel(), 3)],
    ids=["kendall", "pearson", "dcov"],
)
def test_summary_permutations_never_regroup(monkeypatch, kernel, p):
    # a permutation reads the pooled summary: no regrouping and no full
    # statistic per permutation, however many permutations run (the
    # caller groups the sample once, before the test)
    rng = np.random.default_rng(13)
    labels = rng.permutation(np.r_[np.zeros(200, np.int64), np.ones(20, np.int64)])
    grouped = group_by_label(LabeledSample(rng.standard_normal((220, p)), labels))
    calls = {"GroupedSample": 0, "compute_rit": 0}
    for module in (inference, engine):
        for name in calls:
            f = getattr(module, name)

            def counted(*a, name=name, f=f, **kw):
                calls[name] += 1
                return f(*a, **kw)

            monkeypatch.setattr(module, name, counted)
    out = pvalue_permutation(grouped, kernel, B=99, seed=3)
    assert out.metadata["batched"]
    assert calls == {"GroupedSample": 0, "compute_rit": 0}


def test_permutation_streams_do_not_depend_on_B():
    # relabeling b comes from the generator of its chunk, so a shorter
    # test is a prefix of a longer one, across the first chunk boundary
    rng = np.random.default_rng(14)
    labels = rng.permutation(np.r_[np.zeros(300, np.int64), np.ones(12, np.int64)])
    statistic = engine._pooled_statistic(rng.standard_normal((312, 1)), kendall_kernel())
    short = inference._permutation_stats(statistic, labels, 39, seed=4)
    long = inference._permutation_stats(statistic, labels, 199, seed=4)
    assert 199 > inference.PERMUTATION_CHUNK
    assert np.array_equal(short, long[:40])


def test_permutation_draws_one_generator_per_chunk(monkeypatch):
    # B = 999 relabelings come from ceil(999 / 64) = 16 generators
    keys = []
    spawn = inference.spawn_rng
    monkeypatch.setattr(inference, "spawn_rng", lambda *key: keys.append(key) or spawn(*key))
    rng = np.random.default_rng(15)
    labels = rng.permutation(np.r_[np.zeros(200, np.int64), np.ones(20, np.int64)])
    pvalue_permutation(group_by_label(LabeledSample(rng.standard_normal((220, 1)), labels)),
                       kendall_kernel(), B=999, seed=6)
    assert inference.PERMUTATION_CHUNK == 64
    assert keys == [(6, 2, c) for c in range(16)]


@pytest.mark.parametrize("m", [2, 3], ids=["stream", "complement"])
def test_chunk_draw_is_uniform_over_ordered_tuples(m):
    # every ordered m-tuple of distinct positions in range(5) is equally
    # likely: 20 tuples from the stream of first distinct draws, 60 from
    # the complement of 5 - m such draws in uniform order (m > 5 / 2)
    rows = np.concatenate([inference._ordered_draws(spawn_rng(16, c), 5, m)
                           for c in range(150)])
    assert all(len(set(row)) == m for row in rows.tolist())
    codes = (rows * 5 ** np.arange(m)).sum(axis=1)
    _, counts = np.unique(codes, return_counts=True)
    assert counts.size == math.perm(5, m)
    assert chisquare(counts).pvalue > 1e-3


def test_relabelings_are_uniform_over_two_class_labelings():
    # two controls, one class-1 row and two class-2 rows: each of the
    # 5! / (2! 1! 2!) = 30 labelings is equally likely
    labels = np.array([2, 0, 1, 0, 2])
    seen = []

    def record(cases):
        for b in range(len(cases[0])):
            code = np.zeros(5, np.int64)
            for k, idx in enumerate(cases, 1):
                code[idx[b]] = k
            seen.append(tuple(code))
        return np.zeros(len(cases[0]))

    inference._permutation_stats(record, labels, 6399, seed=17)
    assert seen[0] == tuple(labels)
    assert all(sorted(code) == [0, 0, 1, 2, 2] for code in seen)
    _, counts = np.unique(np.array(seen[1:]), axis=0, return_counts=True)
    assert counts.size == 30
    assert chisquare(counts).pvalue > 1e-3


@pytest.mark.parametrize("n1", [500, 1000])
def test_permutation_memory_stays_within_two_pooled_blocks(n1):
    # the peak stays below twice the pooled pass's footprint, its 1.25 MB
    # of mapped rows and one block of about _BLOCK_BYTES: at n1 = 500 the
    # stacked case blocks of a chunk go one at a time (19 at once would
    # take ~45 MB) with their packed upper triangles, at n1 = 1,000 each
    # case set's pairs go one block of rows at a time
    rng = np.random.default_rng(18)
    n = 3000
    labels = rng.permutation(np.r_[np.zeros(n - n1, np.int64), np.ones(n1, np.int64)])
    sample = LabeledSample(rng.standard_normal((n, 16)), labels)
    tracemalloc.start()
    try:
        pvalue_permutation(group_by_label(sample), dcov_kernel(), B=19, seed=1)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2 * (_accel._BLOCK_BYTES + 8 * n * (3 * 16 + 4))


def _pair_values(kernel, sample):
    """compute_rit's value and the pooled summary's at the observed case
    set."""
    pooled = engine._pooled_statistic(sample.features, kernel)
    return (compute_rit(group_by_label(sample), kernel).value,
            pooled((np.flatnonzero(sample.labels)[None],))[0])


@pytest.mark.parametrize("p", [3, 64], ids=["cdist", "gemm"])
@settings(max_examples=30)
@given(data=st.data())
def test_dcov_invariant_under_translation_and_rotation(p, data):
    # a paper identity: the distances, hence the statistic, do not move
    # under rigid motions of the features, however large the offset; the
    # angles of ipcov do not move under rotations about the origin (its
    # rows, [x, sqrt(c)], have p + 1 columns: the same side of GEMM_MIN_P)
    assert (p < _accel.GEMM_MIN_P) == (p + 1 < _accel.GEMM_MIN_P) == (p == 3)
    sample = data.draw(permutation_samples(p=p))
    rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
    # on a 2^-10 grid below 2^43 a shift by whole numbers is exact, so
    # only the statistic's own rounding can move it
    x = np.ldexp(np.round(np.ldexp(sample.features, 10)), -10)
    shift = rng.integers(-10**8, 10**8, size=p).astype(float)
    shift[rng.integers(0, p)] = data.draw(st.sampled_from((1e8, -1e8, 0.5)))
    dcov, ipcov = dcov_kernel(), ipcov_kernel()
    base = _pair_values(dcov, LabeledSample(x, sample.labels))
    atol = 1e-12 * pdist(x).mean()
    moved = _pair_values(dcov, LabeledSample(x + shift, sample.labels))
    assert_allclose(moved, base, rtol=1e-9, atol=atol)
    # a rotation about the mean (rotating the 1e8 offset itself would
    # round the rows to ~1e-8)
    q = np.linalg.qr(rng.standard_normal((p, p)))[0]
    turned = _pair_values(dcov, LabeledSample((x - x.mean(axis=0)) @ q, sample.labels))
    assert_allclose(turned, base, rtol=1e-9, atol=atol)
    base = _pair_values(ipcov, LabeledSample(x, sample.labels))
    turned = _pair_values(ipcov, LabeledSample(x @ q, sample.labels))
    assert_allclose(turned, base, rtol=1e-9, atol=atol)


@pytest.mark.parametrize("kernel", [dcov_kernel(), ipcov_kernel()], ids=["dcov", "ipcov"])
def test_permutation_variance_matches_the_highdim_null(kernel):
    # on one null sample at (n, n1, p) = (1,050, 50, 50), the variance of
    # n1 T over the relabelings is the high-dimensional null's
    # 2 xi02 (1 + n1/n0)^2 within 15%.  At small p, e.g. (300, 20, 5), the
    # ratio strays by up to 30% across samples: that is the fixed
    # dimension, where the paper does not claim the high-dimensional null
    rng = np.random.default_rng(24)
    labels = rng.permutation(np.r_[np.zeros(1_000, np.int64), np.ones(50, np.int64)])
    g = group_by_label(LabeledSample(rng.standard_normal((1_050, 50)), labels))
    xi02 = estimate_xi02(g, kernel, compute_rit(g, kernel).meta["case_rowsums"])
    null = inference._highdim_variance(kernel.block_orders, xi02, g.counts[0] / g.counts[1])
    for seed in range(5):
        out = pvalue_permutation(g, kernel, B=3999, seed=seed)
        assert 0.85 <= out.variance_estimate / null <= 1.15


def test_permutation_null_pvalues_roughly_uniform():
    rng = np.random.default_rng(12)
    pvals = []
    for rep in range(60):
        x = np.random.default_rng(500 + rep).standard_normal(40)
        labels = np.r_[np.zeros(32, np.int64), np.ones(8, np.int64)]
        pvals.append(
            pvalue_permutation(
                group_by_label(LabeledSample(x[:, None], labels)), kendall_kernel(),
                B=39, seed=rep,
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


@pytest.mark.parametrize("alpha", [0.05, 0.01])
def test_power_highdim_uses_the_pvalue_sd(alpha):
    # at the shift whose highdim p-value is exactly alpha the standardized
    # shift is z = ppf(1 - alpha/2), so the power is 0.5 + cdf(-2 z).  The
    # power takes the p-value's sd in the limit n1/n0 -> 0; at n0 = 1000
    # the p-value's sd carries the factor 1 + n1/n0 = 1.1
    n1, xi02 = 100, 0.7
    z = norm.ppf(1 - alpha / 2)
    mu0 = z * math.sqrt(2 * xi02) / n1
    stat = _stat(1.1 * mu0, dcov_kernel(), 1000, n1)
    assert_allclose(pvalue_asymptotic_highdim(stat, xi02).p_value, alpha, rtol=1e-9)
    assert_allclose(power_highdim(mu0, n1, 2, xi02, alpha), 0.5 + norm.cdf(-2 * z),
                    rtol=1e-12)


@pytest.mark.parametrize("call", [
    lambda: power_highdim(0.1, 100, 1, 1.0, 0.05),
    lambda: power_highdim(0.1, 1, 2, 1.0, 0.05),
    lambda: power_highdim(0.1, 0, 2, 1.0, 0.05),
    lambda: power_highdim(0.1, 100, 2, 0.0, 0.05),
    lambda: power_highdim(0.1, 100, 2, 1.0, 2.0),
    lambda: power_highdim(0.1, 100, 2, 1.0, -1.0),
    lambda: power_first_order(0.1, 100, 1, 1, 1 / 3, -1.0),
    lambda: power_first_order(0.1, 100, 1, 1, 1 / 3, 1.0),
    lambda: local_power_threshold(0.2, -1.0, 1.0, 1 / 3),
    lambda: local_power_threshold(0.2, 0.0, 1.0, 1 / 3),
], ids=["highdim-m1", "highdim-n1-1", "highdim-n1-0", "highdim-xi02", "highdim-alpha-2",
        "highdim-alpha-neg", "first-order-alpha-neg", "first-order-alpha-1",
        "local-threshold-alpha-neg", "local-threshold-alpha-0"])
def test_power_calculators_refuse_bad_input(call):
    with pytest.raises(ValidationError):
        call()


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
