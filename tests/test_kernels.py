import math

import numpy as np
import pytest
from numpy.testing import assert_allclose
from scipy.integrate import quad
from scipy.stats import norm

from raresig import (
    KernelSpec,
    LabeledSample,
    ValidationError,
    custom_kernel,
    dcov_kernel,
    estimate_zeta1k,
    evaluate,
    group_by_label,
    imbalanced_kendall_kernel,
    ipcov_kernel,
    kendall_kernel,
    kernel_from_name,
    multi_kendall_kernel,
    pearson_kernel,
)
from raresig._accel import angle_embed
from raresig.inference import estimate_xi02
from raresig.multiclass import block_projection
from raresig.rng import spawn_rng


# ---------------------------------------------------------------------------
# closed-form kernel values
# ---------------------------------------------------------------------------


def _pearson(x0, x1):
    return evaluate(pearson_kernel(), [[x0], [x1]])


def _kendall(x0, x1):
    return evaluate(kendall_kernel(), [[x0], [x1]])


def _imbalanced_kendall(x0s, x1):
    spec = imbalanced_kendall_kernel(len(x0s))
    return evaluate(spec, [np.reshape(x0s, (-1, 1)), [[x1]]])


def _dcov(a, b, c, d):
    return evaluate(dcov_kernel(), [[a, b], [c, d]])


def _ipcov(a, b, c, d, c_sigma2=1.0):
    return evaluate(ipcov_kernel(c_sigma2), [[a, b], [c, d]])


def test_kernel_pearson_values():
    assert _pearson(0.0, 0.0) == 0.0
    assert _pearson(1.5, 2.0) == 0.5
    assert _pearson(2.0, 1.5) == -0.5
    with pytest.raises(ValidationError, match="p=1"):
        evaluate(pearson_kernel(), [[[1.0, 2.0]], [[0.0, 0.0]]])


def test_kernel_kendall_values():
    assert _kendall(1, 3) == 1.0
    assert _kendall(3, 1) == -1.0
    assert _kendall(2, 2) == 0.0
    for spec in (kendall_kernel(), imbalanced_kendall_kernel(2), multi_kendall_kernel(2)):
        blocks = [np.zeros((m, 2)) for m in spec.block_orders]
        with pytest.raises(ValidationError, match="p=1"):
            evaluate(spec, blocks)


def test_one_sign_kernel_at_one_rare_class_and_one_control():
    # the K = 1 multi-class kernel and the m = 1 imbalanced kernel are the
    # binary sign kernel: one kind and one set of block orders
    specs = [kendall_kernel(), multi_kendall_kernel(1), imbalanced_kendall_kernel(1)]
    assert {(k.kind, k.block_orders) for k in specs} == {("rescaled_kendall", (1, 1))}
    three = multi_kendall_kernel(2)
    assert (three.kind, three.block_orders) == ("rescaled_kendall", (1, 1, 1))
    assert evaluate(three, [[0.0], [1.0], [-2.0]]) == 0.0
    assert evaluate(three, [[0.0], [1.0], [0.0]]) == 1.0


def test_kernel_imbalanced_kendall_values():
    assert _imbalanced_kendall([0.0, 2.0], 2.0) == 1.0
    assert _imbalanced_kendall([5.0], 5.0) == 0.0
    assert _imbalanced_kendall([1.0, 2.0, 3.0], 0.0) == -1.0


def test_kernel_dcov_values():
    assert _dcov([1.0], [1.0], [1.0], [1.0]) == 0.0
    assert _dcov([0.0], [1.0], [0.0], [1.0]) == -2.0
    # within-block symmetry (up to summation-order rounding)
    rng = np.random.default_rng(0)
    for _ in range(10):
        a, b, c, d = rng.standard_normal((4, 3))
        v = _dcov(a, b, c, d)
        assert_allclose(_dcov(b, a, c, d), v, rtol=1e-12)
        assert_allclose(_dcov(a, b, d, c), v, rtol=1e-12)
        w = _ipcov(a, b, c, d)
        assert_allclose(_ipcov(b, a, c, d), w, rtol=1e-12, atol=1e-14)
        assert_allclose(_ipcov(a, b, d, c), w, rtol=1e-12, atol=1e-14)
    with pytest.raises(ValidationError, match="dimension"):
        evaluate(dcov_kernel(), [[[0.0], [1.0]], [[0.0, 2.0], [1.0, 2.0]]])


@pytest.mark.parametrize("spec", [
    pearson_kernel(), kendall_kernel(), imbalanced_kendall_kernel(2),
    multi_kendall_kernel(2), dcov_kernel(), ipcov_kernel(0.7),
], ids=lambda spec: f"{spec.kind}-{spec.n_blocks}")
def test_every_built_in_kind_refuses_blocks_of_different_dimension(spec):
    blocks = [np.zeros((m, 1 if k == 0 else 2)) for k, m in enumerate(spec.block_orders)]
    with pytest.raises(ValidationError, match="dimension"):
        evaluate(spec, blocks)


def test_kernel_ipcov_values():
    assert _ipcov([1.0], [1.0], [1.0], [1.0]) == 0.0
    # blocks equal pointwise: the self-affinities vanish, leaving
    # -2 A(a, b) (four identical points are needed for full cancellation)
    from raresig.kernels import _angle

    left = _ipcov([0.3], [1.2], [0.3], [1.2])
    assert_allclose(left, -2 * _angle(np.array([0.3]), np.array([1.2]), 1.0),
                    rtol=1e-12)
    assert_allclose(
        _ipcov([0.0], [1.0], [0.0], [1.0], c_sigma2=1.0), -math.pi / 2,
        atol=1e-12,
    )
    for c in (0.0, math.nan, math.inf):
        for refuse in (lambda: _ipcov([0.0], [1.0], [0.0], [1.0], c_sigma2=c),
                       lambda: ipcov_kernel(c), lambda: angle_embed([[0.0]], c),
                       lambda: KernelSpec("rescaled_ipcov", (2, 2),
                                          params={"c_sigma2": c}, order="second")):
            with pytest.raises(ValidationError, match="c_sigma2"):
                refuse()
    # a directly built ipcov spec names its c_sigma2
    with pytest.raises(ValidationError, match="c_sigma2"):
        KernelSpec("rescaled_ipcov", (2, 2), order="second")


def test_first_order_antisymmetry_under_block_swap():
    rng = np.random.default_rng(1)
    for _ in range(20):
        x0, x1 = rng.standard_normal(2)
        assert _pearson(x0, x1) == -_pearson(x1, x0)
        assert _kendall(x0, x1) == -_kendall(x1, x0)


def test_kernel_from_name_refuses_non_integer_block_orders():
    # an integer-valued float builds the kernel; a fraction is refused,
    # not truncated
    assert imbalanced_kendall_kernel(2).block_orders == kernel_from_name(
        "imbalanced-kendall", m=2.0).block_orders == (2, 1)
    assert kernel_from_name("multi_kendall", n_rare=2.0).block_orders == (1, 1, 1)
    with pytest.raises(ValidationError, match="integer m"):
        kernel_from_name("imbalanced_kendall", m=2.5)
    with pytest.raises(ValidationError, match="rare class"):
        kernel_from_name("multi_kendall", n_rare=1.9)


def test_kernel_spec_arity_validation():
    with pytest.raises(ValidationError):
        imbalanced_kendall_kernel(0)
    with pytest.raises(ValidationError):
        ipcov_kernel(-1.0)
    with pytest.raises(ValidationError):
        custom_kernel(None, (1, 1))
    spec = dcov_kernel()
    with pytest.raises(ValidationError):
        evaluate(spec, [np.zeros((1, 2)), np.zeros((2, 2))])


# ---------------------------------------------------------------------------
# zero mean under independence (4 standard errors)
# ---------------------------------------------------------------------------


def _zero_mean_check(values):
    values = np.asarray(values, dtype=float)
    se = values.std(ddof=1) / math.sqrt(values.size)
    assert abs(values.mean()) < 4 * se + 1e-12


def test_zero_mean_under_null_all_kernels():
    rng = np.random.default_rng(7)
    n = 100_000
    x0 = rng.standard_normal(n)
    x1 = rng.standard_normal(n)
    _zero_mean_check(x1 - x0)
    _zero_mean_check(np.sign(x1 - x0))
    blocks = rng.standard_normal((n, 3))
    _zero_mean_check(np.sign(x1 - blocks.mean(axis=1)))
    p = 4
    a, b, c, d = (rng.standard_normal((n, p)) for _ in range(4))
    e = lambda u, v: np.linalg.norm(u - v, axis=1)  # noqa: E731
    _zero_mean_check(
        e(a, c) + e(a, d) + e(b, c) + e(b, d) - 2 * e(a, b) - 2 * e(c, d)
    )
    from raresig._accel import angle_embed

    ua, ub, uc, ud = (angle_embed(m, 1.0) for m in (a, b, c, d))
    ang = lambda u, v: np.arccos(np.clip((u * v).sum(axis=1), -1, 1))  # noqa: E731
    _zero_mean_check(
        ang(ua, uc) + ang(ua, ud) + ang(ub, uc) + ang(ub, ud)
        - 2 * ang(ua, ub) - 2 * ang(uc, ud)
    )


# ---------------------------------------------------------------------------
# projections
# ---------------------------------------------------------------------------


def _two_class(controls, cases):
    x = np.vstack([controls, cases]).astype(float)
    labels = np.r_[np.zeros(len(controls), np.int64), np.ones(len(cases), np.int64)]
    return group_by_label(LabeledSample(x, labels))


def test_block_projection_kendall_and_pearson():
    g = _two_class([[1.0], [3.0]], [[2.0]])
    assert block_projection(g, kendall_kernel(), 1, g.group(1), 2000, spawn_rng(0)) == 0.0
    g = _two_class([[1.0], [2.0], [6.0]], [[4.0]])
    vals = block_projection(g, pearson_kernel(), 1, g.group(1), 2000, spawn_rng(0))
    assert_allclose(vals, [4.0 - 3.0])


def test_block_projection_many_shapes():
    g = _two_class([[0.5], [2.0]], [[0.0], [1.0]])
    vals = block_projection(g, kendall_kernel(), 1, g.group(1), 2000, spawn_rng(0))
    assert vals.shape == (2,)
    assert_allclose(vals, [-1.0, 0.0])


def test_kendall_projection_variance_one_third():
    # Var(2F(x) - 1) = 1/3 for continuous data
    rng = np.random.default_rng(3)
    labels = np.r_[np.zeros(5000, np.int64), np.ones(500, np.int64)]
    sample = LabeledSample(rng.standard_normal(5500)[:, None], labels)
    xi = estimate_zeta1k(group_by_label(sample), kendall_kernel(), 1)
    assert abs(xi - 1 / 3) < 0.05


def test_imbalanced_kendall_normal_closed_forms():
    # for standard normal data the projection variances have closed
    # integral forms; the empirical estimates must match them
    m = 2
    xi01_true = quad(
        lambda x: (1 - 2 * norm.cdf(math.sqrt(m) * x)) ** 2 * norm.pdf(x),
        -10, 10,
    )[0]
    xi10_true = quad(
        lambda x: (1 - 2 * norm.cdf(x / math.sqrt(m * m + m - 1))) ** 2 * norm.pdf(x),
        -10, 10,
    )[0]
    rng = np.random.default_rng(4)
    labels = np.r_[np.zeros(4000, np.int64), np.ones(2500, np.int64)]
    sample = LabeledSample(rng.standard_normal(6500)[:, None], labels)
    grouped = group_by_label(sample)
    spec = imbalanced_kendall_kernel(m)
    assert abs(estimate_zeta1k(grouped, spec, 1, budget=1500, seed=1) - xi01_true) < 0.05
    xi10 = estimate_zeta1k(grouped, spec, 0, budget=1500, seed=2)
    assert abs(xi10 - xi10_true) < 0.05


def test_imbalanced_kendall_projection_reads_one_sorted_draw():
    rng = np.random.default_rng(12)
    spec = imbalanced_kendall_kernel(2)
    # C(12, 2) = 66 <= budget: the case block averages every control pair
    g = _two_class(rng.standard_normal((12, 1)), rng.standard_normal((5, 1)))
    x0, pts = g.group(0)[:, 0], rng.standard_normal((9, 1))
    pair_means = [(x0[i] + x0[j]) / 2 for i in range(12) for j in range(i)]
    brute = [np.mean([_imbalanced_kendall([mu], v) for mu in pair_means])
             for v in pts[:, 0]]
    assert_allclose(block_projection(g, spec, 1, pts, 100, spawn_rng(0)), brute,
                    atol=1e-15)
    # budgeted blocks: every point is read against the same `budget` draws,
    # so a prefix of the points projects as it does alone
    g = _two_class(rng.standard_normal((300, 1)), rng.standard_normal((40, 1)))
    pts = rng.standard_normal((1000, 1))
    for k in (0, 1):
        vals = block_projection(g, spec, k, pts, 50, spawn_rng(1, k))
        assert_allclose(vals * 50, np.round(vals * 50), atol=1e-12)
        assert_allclose(block_projection(g, spec, k, pts[:7], 50, spawn_rng(1, k)),
                        vals[:7], atol=0)


def test_dcov_first_order_degeneracy():
    # the one-case projection of the distance kernel is degenerate: its
    # values across case points stay near zero while the sign kernel's
    # projection has variance about 1/3
    rng = np.random.default_rng(5)
    ref = rng.standard_normal((120, 2))
    points = rng.standard_normal((25, 2))
    g = _two_class(ref, points)
    vals = block_projection(g, dcov_kernel(), 1, points, 4000, spawn_rng(5))
    raw = [
        _dcov(*rng.standard_normal((4, 2))) for _ in range(400)
    ]
    assert np.var(vals, ddof=1) < 0.05 * np.var(raw, ddof=1)


def test_xi02_hand_values():
    # dcov, cases {0, 2, 0} against controls {0, 2}: D = 1 at every case;
    # the pairs |0 - 2| = 2 give h = 2 * (1 + 1 - 2) = 0 and the duplicate
    # pair |0 - 0| = 0 gives 4, so over (0, 4, 0) xi02 = 16/3
    g = _two_class([[0.0], [2.0]], [[0.0], [2.0], [0.0]])
    assert_allclose(estimate_xi02(g, dcov_kernel()), 16.0 / 3.0, rtol=1e-15)
    # ipcov with c = 1 at p = 1: the angle between x and y is
    # |atan x - atan y|; cases {-1, 1, -1} and controls {-1, 1} give
    # D = pi/4 and a pair angle of pi/2 (h = 0) or 0 (h = pi), so
    # xi02 = pi^2/3
    g = _two_class([[-1.0], [1.0]], [[-1.0], [1.0], [-1.0]])
    assert_allclose(estimate_xi02(g, ipcov_kernel()), math.pi**2 / 3.0, rtol=1e-15)


# ---------------------------------------------------------------------------
# covariance identities for projections (oracle on custom kernels)
# ---------------------------------------------------------------------------


def _linear_kernel(block0, block1):
    return float(block1[:, 0].sum() - block0[:, 0].sum())


def _spread_kernel(block0, block1):
    return float(
        abs(block0[0, 0] - block0[1, 0]) - abs(block1[0, 0] - block1[1, 0])
    )


@pytest.mark.parametrize("r,s", [(0, 1), (1, 0), (1, 1), (2, 0), (0, 2)])
def test_shared_observation_covariance_linear_kernel(r, s):
    # h = sum(cases) - sum(controls) on N(0,1): E[h h'] with (r, s)
    # shared indices equals Var(h_{r,s}) = r + s exactly
    rng = np.random.default_rng(10 + 3 * r + s)
    n = 200_000
    shared_c = rng.standard_normal((n, r))
    shared_k = rng.standard_normal((n, s))
    c1 = np.hstack([shared_c, rng.standard_normal((n, 2 - r))])
    c2 = np.hstack([shared_c, rng.standard_normal((n, 2 - r))])
    k1 = np.hstack([shared_k, rng.standard_normal((n, 2 - s))])
    k2 = np.hstack([shared_k, rng.standard_normal((n, 2 - s))])
    h1 = k1.sum(axis=1) - c1.sum(axis=1)
    h2 = k2.sum(axis=1) - c2.sum(axis=1)
    prod = h1 * h2
    se = prod.std(ddof=1) / math.sqrt(n)
    assert abs(prod.mean() - (r + s)) < 4 * se


@pytest.mark.parametrize("r,s", [(1, 0), (0, 1), (1, 1)])
def test_shared_observation_covariance_matches_projection_variance(r, s):
    # brute-force E[h h'] over tuples sharing (r, s) observations vs the
    # Monte Carlo variance of the (r, s)-projection, for a nonlinear kernel
    spec = custom_kernel(_spread_kernel, (2, 2), order="first")
    rng = np.random.default_rng(20 + 2 * r + s)
    n = 120_000
    shared_c = rng.standard_normal((n, r))
    shared_k = rng.standard_normal((n, s))

    def draw(shared, r_used):
        return np.hstack([shared, rng.standard_normal((n, 2 - r_used))])

    h = lambda c, k: np.abs(c[:, 0] - c[:, 1]) - np.abs(k[:, 0] - k[:, 1])  # noqa: E731
    prod = h(draw(shared_c, r), draw(shared_k, s)) * h(
        draw(shared_c, r), draw(shared_k, s)
    )
    lhs = prod.mean()
    lhs_se = prod.std(ddof=1) / math.sqrt(n)

    # projection variance by nested Monte Carlo
    n_pts, budget = 900, 800
    pts_c = rng.standard_normal((n_pts, r))
    pts_k = rng.standard_normal((n_pts, s))
    comp_c = rng.standard_normal((n_pts, budget, 2 - r))
    comp_k = rng.standard_normal((n_pts, budget, 2 - s))

    def block_col(pts, comp, j):
        return pts[:, j, None] if j < pts.shape[1] else comp[:, :, j - pts.shape[1]]

    c_cols = [block_col(pts_c, comp_c, j) for j in range(2)]
    k_cols = [block_col(pts_k, comp_k, j) for j in range(2)]
    vals = np.abs(c_cols[0] - c_cols[1]) - np.abs(k_cols[0] - k_cols[1])
    proj = vals.mean(axis=1)
    # subtract the nested-MC noise floor E[Var(h | conditioned)] / budget
    inner_var = vals.var(axis=1, ddof=1).mean() / budget
    rhs = proj.var(ddof=1) - inner_var
    tol = 4 * lhs_se + 4 * proj.var(ddof=1) * math.sqrt(2 / (n_pts - 1))
    assert abs(lhs - rhs) < tol
