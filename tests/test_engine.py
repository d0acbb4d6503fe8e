import math
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose
from scipy.spatial.distance import cdist, pdist
from scipy.stats import chisquare

from raresig import (
    DegenerateDataError,
    LabeledSample,
    ValidationError,
    compute_classical,
    compute_rit,
    compute_rit_bruteforce,
    custom_kernel,
    dcov_kernel,
    estimate_zeta1k,
    group_by_label,
    imbalanced_kendall_kernel,
    ipcov_kernel,
    kendall_kernel,
    pearson_kernel,
)
from raresig import engine, multiclass
from raresig._accel import angle_embed
from raresig.rng import spawn_rng


def _grouped(x, labels):
    return group_by_label(LabeledSample(np.asarray(x, float), np.asarray(labels)))


def _random_instance(rng, kernel, p=1, n0_max=12, n1_max=8):
    m0, m1 = kernel.m0, kernel.m1
    n0 = int(rng.integers(max(m0, 2), n0_max + 1))
    n1 = int(rng.integers(max(m1, 2), n1_max + 1))
    x = rng.standard_normal((n0 + n1, p))
    labels = np.r_[np.zeros(n0, np.int64), np.ones(n1, np.int64)]
    return _grouped(x, labels)


def test_kendall_enumerated_example():
    g = _grouped([[1.0], [2.0], [4.0], [3.0], [5.0]], [0, 0, 0, 1, 1])
    assert_allclose(compute_rit(g, kendall_kernel()).value, 2 / 3, atol=1e-15)


def test_pearson_group_means_example():
    g = _grouped([[0.0], [1.0], [2.0], [1.0], [2.0]], [0, 0, 0, 1, 1])
    assert compute_rit(g, pearson_kernel()).value == 0.5


def test_kendall_complete_separation_is_one():
    g = _grouped([[0.1], [0.5], [0.9], [2.0], [3.0]], [0, 0, 0, 1, 1])
    assert compute_rit(g, kendall_kernel()).value == 1.0


def test_dcov_closed_form_example():
    g = _grouped([[0.0], [1.0], [0.0], [1.0]], [0, 0, 1, 1])
    assert_allclose(compute_rit(g, dcov_kernel()).value, -2.0, atol=1e-14)


def test_bruteforce_single_term_equals_kernel():
    g = _grouped([[0.0], [1.0], [2.0], [5.0]], [0, 0, 1, 1])
    stat = compute_rit_bruteforce(g, dcov_kernel())
    from raresig import kernel_dcov

    assert_allclose(stat.value, kernel_dcov([0.0], [1.0], [2.0], [5.0]), atol=1e-14)


def test_bruteforce_guard():
    rng = np.random.default_rng(0)
    labels = np.r_[np.zeros(2000, np.int64), np.ones(200, np.int64)]
    g = _grouped(rng.standard_normal((2200, 1)), labels)
    with pytest.raises(ValidationError, match="guard"):
        compute_rit_bruteforce(g, dcov_kernel())


@pytest.mark.parametrize(
    "kernel,p,seed",
    [
        pytest.param(pearson_kernel(), 1, 101, id="kernel0-1"),
        pytest.param(kendall_kernel(), 1, 102, id="kernel1-1"),
        pytest.param(imbalanced_kendall_kernel(2), 1, 103, id="kernel2-1"),
        pytest.param(imbalanced_kendall_kernel(3), 1, 104, id="kernel3-1"),
        pytest.param(dcov_kernel(), 3, 105, id="kernel4-3"),
        pytest.param(ipcov_kernel(0.8), 2, 106, id="kernel5-2"),
        pytest.param(imbalanced_kendall_kernel(4), 1, 107, id="kernel6-1"),
    ],
)
def test_fast_paths_match_bruteforce(kernel, p, seed):
    rng = np.random.default_rng(seed)
    for _ in range(20):
        g = _random_instance(rng, kernel, p=p)
        fast = compute_rit(g, kernel).value
        brute = compute_rit_bruteforce(g, kernel).value
        assert_allclose(fast, brute, rtol=1e-12, atol=1e-12)


# kernel and feature count (None: drawn) of every binary built-in kernel
BINARY_KERNELS = {
    "pearson": (pearson_kernel(), 1),
    "kendall": (kendall_kernel(), 1),
    "imbalanced-kendall-2": (imbalanced_kendall_kernel(2), 1),
    "imbalanced-kendall-3": (imbalanced_kendall_kernel(3), 1),
    "dcov": (dcov_kernel(), None),
    "ipcov": (ipcov_kernel(0.8), None),
}


@st.composite
def adversarial_instances(draw, kernel, p=None):
    """Small binary samples with ties, duplicate rows, constant columns,
    1e8 offsets and two or three cases."""
    n1 = draw(st.sampled_from((2, 3)))
    n0 = draw(st.integers(max(kernel.m0, 2), 12))
    if p is None:
        # both sides of _accel.GEMM_MIN_P (the GEMM distance block)
        p = draw(st.one_of(st.integers(1, 8), st.just(64)))
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
    return _grouped(x, labels)


@pytest.mark.parametrize("name", list(BINARY_KERNELS))
@settings(max_examples=60)
@given(data=st.data())
def test_fast_paths_match_bruteforce_on_adversarial_inputs(name, data):
    kernel, p = BINARY_KERNELS[name]
    g = data.draw(adversarial_instances(kernel, p))
    fast = compute_rit(g, kernel).value
    brute = compute_rit_bruteforce(g, kernel).value
    assert_allclose(fast, brute, rtol=1e-12, atol=1e-12)


def test_custom_kernel_goes_through_enumeration():
    spec = custom_kernel(
        lambda b0, b1: float(b1[:, 0].mean() - b0[:, 0].mean()), (2, 1)
    )
    rng = np.random.default_rng(5)
    g = _random_instance(rng, spec)
    assert_allclose(
        compute_rit(g, spec).value, compute_rit_bruteforce(g, spec).value, atol=1e-14
    )


def test_imbalanced_kendall_budgeted_path_flagged():
    rng = np.random.default_rng(9)
    labels = np.r_[np.zeros(4000, np.int64), np.ones(800, np.int64)]
    g = _grouped(rng.standard_normal((4800, 1)), labels)
    stat = compute_rit(g, imbalanced_kendall_kernel(3), seed=1)
    assert stat.meta.get("budgeted") is True
    assert stat.algorithm == "budgeted-subsample"
    # budgeted value close to the sign statistic's scale, and reproducible
    again = compute_rit(g, imbalanced_kendall_kernel(3), seed=1)
    assert stat.value == again.value


def test_imbalanced_kendall_reference_stays_within_the_budget():
    # 9.7 million control pairs for one case: the statistic draws
    # IMBALANCED_BUDGET tuples instead of enumerating them
    rng = np.random.default_rng(10)
    g = _grouped(rng.standard_normal((4401, 1)), np.r_[np.zeros(4400, np.int64), 1])
    tracemalloc.start()
    try:
        stat = compute_rit(g, imbalanced_kendall_kernel(2))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert stat.algorithm == "budgeted-subsample"
    assert peak < 16 * 2**20, peak
    # 1.3 million control triples: more than the budget, so drawn too
    labels = np.r_[np.zeros(200, np.int64), np.ones(5, np.int64)]
    g = _grouped(rng.standard_normal((205, 1)), labels)
    assert compute_rit(g, imbalanced_kendall_kernel(3)).algorithm == "budgeted-subsample"


def test_budgeted_tuples_are_drawn_when_m_is_close_to_n0(monkeypatch):
    # 25 of 30 controls, C(30, 25) = 142,506 tuples: more than both caps,
    # so the statistic and zeta_1 draw them; 25 independent positions are
    # distinct with probability ~2.6e-7, and a sampler that redraws rows
    # with a repeat does not finish here
    rng = np.random.default_rng(12)
    g = _grouped(rng.standard_normal((35, 1)), np.r_[np.zeros(30, np.int64), np.ones(5, np.int64)])
    drawn = []
    sampler = engine._distinct_tuples
    for module in (engine, multiclass):
        monkeypatch.setattr(module, "_distinct_tuples",
                            lambda *a: drawn.append(sampler(*a)) or drawn[-1])
    kernel = imbalanced_kendall_kernel(25)
    assert compute_rit(g, kernel).algorithm == "budgeted-subsample"
    assert estimate_zeta1k(g, kernel, 1, 2000) > 0
    assert [rows.shape for rows in drawn] == [(engine.IMBALANCED_BUDGET, 25), (2000, 25)]
    for rows in drawn:
        srt = np.sort(rows, axis=1)
        assert srt.min() >= 0 and srt.max() < 30 and (np.diff(srt, axis=1) > 0).all()


def test_distinct_tuples_are_uniform_subsets():
    # every 3-subset of range(6) is equally likely, whatever the order a
    # row holds it in
    rows = engine._distinct_tuples(spawn_rng(13), 6, 3, 200_000)
    codes = np.sort(rows, axis=1) @ np.array([36, 6, 1])
    _, counts = np.unique(codes, return_counts=True)
    assert counts.size == math.comb(6, 3)
    assert chisquare(counts).pvalue > 1e-3


def test_label_swap_negates_first_order_statistics():
    rng = np.random.default_rng(2)
    x = rng.standard_normal((30, 1))
    labels = np.r_[np.zeros(20, np.int64), np.ones(10, np.int64)]
    g = _grouped(x, labels)
    g_swapped = _grouped(x, 1 - labels)
    for kernel in (pearson_kernel(), kendall_kernel()):
        assert_allclose(
            compute_rit(g, kernel).value,
            -compute_rit(g_swapped, kernel).value,
            atol=1e-12,
        )


def test_within_group_shuffle_leaves_value_unchanged():
    rng = np.random.default_rng(3)
    x = rng.standard_normal((40, 2))
    labels = np.r_[np.zeros(30, np.int64), np.ones(10, np.int64)]
    base = compute_rit(_grouped(x, labels), dcov_kernel()).value
    perm = np.r_[rng.permutation(30), 30 + rng.permutation(10)]
    shuffled = compute_rit(_grouped(x[perm], labels), dcov_kernel()).value
    assert_allclose(shuffled, base, rtol=1e-12)


def test_insufficient_rows_and_arity_errors():
    g = _grouped([[0.0], [1.0], [2.0]], [0, 0, 1])
    with pytest.raises(DegenerateDataError):
        compute_rit(g, dcov_kernel())
    g2 = group_by_label(
        LabeledSample(np.random.default_rng(0).standard_normal((10, 2)),
                      np.r_[np.zeros(6, np.int64), np.ones(4, np.int64)])
    )
    with pytest.raises(ValidationError, match="scalar"):
        compute_rit(g2, kendall_kernel())


# ---------------------------------------------------------------------------
# classical baselines and the rescaling identities
# ---------------------------------------------------------------------------


def test_classical_requires_binary_labels():
    s = LabeledSample(np.zeros((3, 1)) + [[0.0], [1.0], [2.0]], np.array([0, 1, 2]))
    with pytest.raises(ValidationError, match="binary"):
        compute_classical(s, "kendall")


def test_classical_kendall_all_labels_equal_pairs_vanish():
    # only one case: no case/case pairs; statistic is the single column sum
    x = np.array([[1.0], [1.0], [1.0], [1.0]])
    s = LabeledSample(x, np.array([0, 0, 0, 1]))
    assert compute_classical(s, "kendall") == 0.0  # all ties


def test_classical_pearson_matches_correlation_coefficient():
    rng = np.random.default_rng(4)
    x = rng.standard_normal(300)
    labels = (rng.random(300) < 0.2).astype(np.int64)
    labels[:2] = [0, 1]
    s = LabeledSample(x[:, None], labels)
    r = compute_classical(s, "pearson")
    assert_allclose(r, np.corrcoef(x, labels)[0, 1], atol=1e-12)


def test_classical_pearson_is_exact_at_a_large_offset():
    # against exact rationals: at a 1e8 offset uncentred class means keep
    # only ~1e-8 of their absolute accuracy, ~1e-7 of this mean difference
    rng = np.random.default_rng(8)
    n, n1 = 1000, 50
    n0 = n - n1
    x = 1e8 + rng.standard_normal(n)
    x[n0:] += 0.1
    labels = np.r_[np.zeros(n0, np.int64), np.ones(n1, np.int64)]
    q = [Fraction(v) for v in x]
    diff = sum(q[n0:]) / n1 - sum(q[:n0]) / n0
    mean = sum(q) / n
    var = sum((v - mean) ** 2 for v in q) / n
    want = math.copysign(math.sqrt(n0 * n1 * diff**2 / (n**2 * var)), diff)
    got = compute_classical(LabeledSample(x[:, None], labels), "pearson")
    assert_allclose(got, want, rtol=1e-12)


def test_classical_kendall_rescaling_identity():
    rng = np.random.default_rng(5)
    for trial in range(10):
        n0, n1 = int(rng.integers(20, 80)), int(rng.integers(3, 15))
        x = rng.standard_normal(n0 + n1)
        if trial % 2:
            x = np.round(x, 1)  # force ties
        labels = np.r_[np.zeros(n0, np.int64), np.ones(n1, np.int64)]
        s = LabeledSample(x[:, None], labels)
        tau = compute_classical(s, "kendall")
        t = compute_rit(group_by_label(s), kendall_kernel()).value
        n = n0 + n1
        assert_allclose(tau, t * 2 * n0 * n1 / n**2, atol=1e-12)


def test_classical_dcov_rescaling_residual_identity():
    rng = np.random.default_rng(6)
    for _ in range(5):
        n0, n1 = int(rng.integers(30, 80)), int(rng.integers(5, 15))
        p = int(rng.integers(1, 4))
        x = rng.standard_normal((n0 + n1, p))
        labels = np.r_[np.zeros(n0, np.int64), np.ones(n1, np.int64)]
        s = LabeledSample(x, labels)
        n = n0 + n1
        dcov2 = compute_classical(s, "dcov")
        t = compute_rit(group_by_label(s), dcov_kernel()).value
        s00 = 2 * pdist(x[labels == 0]).sum()
        s11 = 2 * pdist(x[labels == 1]).sum()
        residual = 2 * s00 / (n0**2 * (n0 - 1)) + 2 * s11 / (n1**2 * (n1 - 1))
        assert_allclose(dcov2 * n**4 / (n0**2 * n1**2) - t, residual, atol=1e-10)


@pytest.mark.parametrize("offset", [0.0, 1e8])
def test_classical_ipcov_matches_dense_angles(offset):
    # a 1e8-offset column makes every pair angle ~1e-8: the row totals
    # must keep their relative accuracy there
    rng = np.random.default_rng(3)
    n, n1 = 400, 40
    x = rng.standard_normal((n, 50))
    x[:, 0] += offset
    labels = np.r_[np.zeros(n - n1, np.int64), np.ones(n1, np.int64)]
    x[labels == 1, 1] += 0.5
    u = angle_embed(x, 1.0)
    a = 2.0 * np.arcsin(cdist(u, u) / 2.0)
    b = np.abs(labels[:, None] - labels[None, :]).astype(float)
    want = (
        (a * b).sum() / n**2
        + a.sum() / n**2 * b.sum() / n**2
        - 2 * (a.sum(axis=1) * b.sum(axis=1)).sum() / n**3
    )
    got = compute_classical(LabeledSample(x, labels), "ipcov")
    assert_allclose(got, want, rtol=1e-9)


def test_spearman_style_statistic_reduces_to_cross_term():
    # n^-3 sum over (i, j, k) of sgn(x_i - x_j) sgn(y_i - y_k) keeps only
    # the case/control cross term: (n0 n1 / n^2) * T
    rng = np.random.default_rng(7)
    n0, n1 = 40, 12
    x = rng.standard_normal(n0 + n1)
    labels = np.r_[np.zeros(n0, np.int64), np.ones(n1, np.int64)]
    n = n0 + n1
    rowsgn_x = np.sign(x[:, None] - x[None, :]).sum(axis=1)
    rowsgn_y = np.sign(labels[:, None] - labels[None, :]).sum(axis=1)
    rho = float((rowsgn_x * rowsgn_y).sum()) / n**3
    t = compute_rit(
        group_by_label(LabeledSample(x[:, None], labels)), kendall_kernel()
    ).value
    assert_allclose(rho, n0 * n1 / n**2 * t, atol=1e-12)
