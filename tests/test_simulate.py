import concurrent.futures
import math
from dataclasses import replace

import numpy as np
import pytest
from numpy.testing import assert_allclose, assert_array_equal
from scipy.spatial import distance

from raresig import ValidationError, _accel, simulate
from raresig.kernels import kernel_from_name
from raresig.rng import spawn_rng
from raresig.simulate import (
    MethodConfig,
    ScenarioSpec,
    benchmark_complexity,
    figure1_phenomenon,
    generate,
    loglog_slope,
    run_erp,
)


def test_generate_is_deterministic():
    spec = ScenarioSpec("first_order_eg1", n=500, n1=25, seed=3)
    a = generate(spec, 4)
    b = generate(spec, 4)
    assert_array_equal(a.features, b.features)
    assert_array_equal(a.labels, b.labels)
    c = generate(spec, 5)
    assert not np.array_equal(a.features, c.features)


def test_first_order_eg1_group_moments():
    spec = ScenarioSpec("first_order_eg1", n=40_000, n1=2_000, seed=1)
    sample = generate(spec, 0)
    x = sample.features[:, 0]
    ctrl = x[sample.labels == 0]
    cases = x[sample.labels == 1]
    assert int(sample.labels.sum()) == 2_000
    assert abs(ctrl.mean() - 0.3) < 4 / math.sqrt(ctrl.size)
    assert abs(cases.mean()) < 4 / math.sqrt(cases.size)


def test_null_variant_removes_separation():
    spec = ScenarioSpec("first_order_eg1", n=30_000, n1=1_000, seed=2).null()
    sample = generate(spec, 0)
    x = sample.features[:, 0]
    d = x[sample.labels == 0].mean() - x[sample.labels == 1].mean()
    assert abs(d) < 4 * math.sqrt(1 / 1_000 + 1 / 29_000)


def test_logistic_family_enforces_exact_case_count():
    spec = ScenarioSpec("first_order_eg2", n=5_000, n1=137, seed=5)
    for rep in range(5):
        assert int(generate(spec, rep).labels.sum()) == 137


def test_logistic_family_effect_direction():
    spec = ScenarioSpec("first_order_eg2", n=60_000, n1=3_000, seed=6)
    sample = generate(spec, 0)
    x = sample.features[:, 0]
    assert x[sample.labels == 1].mean() > x[sample.labels == 0].mean() + 0.05


def test_highdim_family_covariance_and_shift():
    spec = ScenarioSpec("second_order_eg1", n=41_000, n1=40_000, p=50, seed=7)
    sample = generate(spec, 0)
    cases = sample.features[sample.labels == 1]
    emp = np.cov(cases, rowvar=False)
    idx = np.arange(50)
    target = 0.5 ** np.abs(idx[:, None] - idx[None, :])
    assert np.abs(emp - target).max() < 0.05
    ctrl = sample.features[sample.labels == 0]
    assert abs(ctrl[:, 0].mean() - 0.4) < 0.15
    assert abs(ctrl[:, 20].mean()) < 0.15


def _masked_scatter_reference(spec, rep):
    """second_order_eg1 with the effect added as a full-width shift vector
    to the control rows picked by a boolean mask."""
    rng = spawn_rng(spec.seed, rep, 0)
    chol = simulate._ar1_cholesky(spec.p, spec.params.get("rho", 0.5))
    labels = simulate._exact_count_labels(spec.n, spec.n1, rng)
    x = rng.standard_normal((spec.n, spec.p)) @ chol.T
    shift = np.zeros(spec.p)
    shift[: int(spec.params.get("p1", 10))] = spec.effect_size
    x[labels == 0] += shift
    return x, labels


def test_highdim_shift_is_bytewise_the_masked_scatter():
    # 24 (seed, n, p) cases, p on both sides of p1 = 10, with the null,
    # a negative effect and another p1
    cases = [(seed, n, p) for seed, n in ((0, 20), (3, 257), (11, 2_050), (29, 1_001))
             for p in (1, 3, 9, 10, 11, 50)]
    for i, (seed, n, p) in enumerate(cases):
        effect = (None, 0.0, -0.7)[i % 3]
        params = {"p1": 4} if i % 4 == 1 else {}
        spec = ScenarioSpec("second_order_eg1", n=n, n1=n // 10, p=p, effect=effect,
                            params=params, seed=seed)
        for rep in (0, 5):
            sample = generate(spec, rep)
            x, labels = _masked_scatter_reference(spec, rep)
            assert sample.features.tobytes() == x.tobytes(), (seed, n, p, rep)
            assert sample.labels.tobytes() == labels.tobytes()


def _one_feature_reference(spec, rep):
    """The scalar designs written out on their own: a case shift for the
    intro families, a control shift N(effect, 1) against N(0, 1) cases
    with exactly n1 of them for first_order_eg1, and logistic labels on
    one N(0, 1) feature, cut or topped up to n1 cases, for
    first_order_eg2."""
    rng = spawn_rng(spec.seed, rep, 0)
    n, n1, eff = spec.n, spec.n1, spec.effect_size
    if spec.family == "first_order_eg2":
        x = rng.standard_normal(n)
        prob = 1.0 / (1.0 + np.exp(-(math.log(n1 / (n - n1)) + eff * x)))
        labels = (rng.random(n) < prob).astype(np.int64)
        cases = int(labels.sum())
        if cases > n1:
            labels[rng.choice(np.flatnonzero(labels == 1), cases - n1, replace=False)] = 0
        elif cases < n1:
            labels[rng.choice(np.flatnonzero(labels == 0), n1 - cases, replace=False)] = 1
        return x[:, None], labels
    if spec.family == "intro_fixed_p":
        labels = (rng.random(n) < 0.5).astype(np.int64)
        if labels.sum() == 0:
            labels[rng.integers(n)] = 1
        elif labels.sum() == n:
            labels[rng.integers(n)] = 0
    else:
        labels = np.zeros(n, dtype=np.int64)
        labels[rng.choice(n, size=n1, replace=False)] = 1
    x = rng.standard_normal(n)
    x = x + eff * (labels == 1 if spec.family.startswith("intro") else labels == 0)
    return x[:, None], labels


@pytest.mark.parametrize("family", ["first_order_eg1", "first_order_eg2",
                                    "intro_fixed_p", "intro_decreasing_p"])
def test_scalar_designs_are_bytewise_their_formulas(family):
    # first_order_eg1/eg2 run through the p-column shift and logistic
    # generators at p = 1: 24 (seed, n, n1, effect) cases, with the
    # default, zero and negative effects, n1 = n/2 and n1 = 1
    cases = [(seed, n, n1) for seed in (0, 7, 123)
             for n, n1 in ((2, 1), (20, 10), (257, 3), (1_000, 500),
                           (1_001, 1), (4_096, 41), (10_000, 5_000), (33, 32))]
    for i, (seed, n, n1) in enumerate(cases):
        effect = (None, 0.0, -0.45, 1.3)[i % 4]
        spec = ScenarioSpec(family, n=n, n1=n1, effect=effect, seed=seed)
        for rep in (0, 3):
            sample = generate(spec, rep)
            x, labels = _one_feature_reference(spec, rep)
            assert sample.features.tobytes() == x.tobytes(), (family, seed, n, n1, rep)
            assert sample.labels.tobytes() == labels.tobytes()


def test_mixture_boundaries():
    spec = ScenarioSpec(
        "mixture_local", n=30_000, n1=20_000, effect=2.0, params={"delta": 1.0}, seed=8
    )
    sample = generate(spec, 0)
    cases = sample.features[sample.labels == 1, 0]
    assert abs(cases.mean() - 2.0) < 0.05  # every case contaminated
    null = ScenarioSpec(
        "mixture_local", n=30_000, n1=20_000, effect=2.0, params={"delta": 0.0}, seed=8
    )
    cases0 = generate(null, 0).features[generate(null, 0).labels == 1, 0]
    assert abs(cases0.mean()) < 0.05
    with pytest.raises(ValidationError):
        generate(
            ScenarioSpec("mixture_local", n=100, n1=50, params={"delta": 1.5}), 0
        )


def test_scenario_validation():
    with pytest.raises(ValidationError):
        ScenarioSpec("no_such_family", n=100, n1=10)
    with pytest.raises(ValidationError):
        ScenarioSpec("first_order_eg1", n=100, n1=200)
    for family in ("intro_fixed_p", "intro_decreasing_p", "first_order_eg1",
                   "first_order_eg2", "mixture_local"):
        with pytest.raises(ValidationError, match="p = 1"):
            ScenarioSpec(family, n=100, n1=10, p=3)
    assert ScenarioSpec("second_order_eg2", n=100, n1=10, p=3).p == 3
    for alpha in (0.0, 1.0, -0.5, 1.5, math.nan):
        with pytest.raises(ValidationError, match="alpha"):
            ScenarioSpec("first_order_eg1", n=100, n1=10, alpha=alpha)


def test_run_erp_deterministic_and_thread_invariant():
    scenario = ScenarioSpec("first_order_eg1", n=2_000, n1=40, M=40, seed=11)
    method = MethodConfig(kernel="kendall", mode="rit", xi_basis="controls")
    serial = run_erp(scenario, method, threads=1)
    again = run_erp(scenario, method, threads=1)
    assert serial.erp == again.erp
    parallel = run_erp(scenario, method, threads=2)
    assert parallel.erp == serial.erp
    assert serial.rejected == round(serial.erp * 40)
    assert_allclose(
        serial.mc_se, math.sqrt(serial.erp * (1 - serial.erp) / 40), atol=1e-15
    )


class _InlineExecutor:
    """Stands in for ProcessPoolExecutor: records ``max_workers`` and runs
    ``map`` in this process, so no worker is started."""

    sizes: list = []

    def __init__(self, max_workers):
        self.sizes.append(max_workers)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False

    def map(self, fn, items):
        return list(map(fn, items))


def test_run_erp_caps_the_worker_processes(monkeypatch):
    # run_erp imports the pool from concurrent.futures when it needs one
    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", _InlineExecutor)
    monkeypatch.setattr(simulate.os, "cpu_count", lambda: 4)
    _InlineExecutor.sizes = []
    scenario = ScenarioSpec("first_order_eg1", n=500, n1=20, M=3, seed=11)
    method = MethodConfig(kernel="kendall", mode="rit", xi_basis="controls")
    serial = run_erp(scenario, method, threads=1)
    assert _InlineExecutor.sizes == []
    # min(threads, M, cpu_count): M = 3 bounds a huge thread count
    assert run_erp(scenario, method, threads=5000).rejected == serial.rejected
    assert run_erp(replace(scenario, M=9), method, threads=5000).reps == 9
    assert run_erp(scenario, method, threads=2).rejected == serial.rejected
    assert _InlineExecutor.sizes == [3, 4, 2]


def test_run_erp_null_size_sane():
    scenario = ScenarioSpec("first_order_eg1", n=4_000, n1=100, M=200, seed=12).null()
    method = MethodConfig(kernel="kendall", mode="rit", xi_basis="controls")
    report = run_erp(scenario, method)
    assert 0.005 <= report.erp <= 0.12
    row = report.row()
    assert row["method"] == "kendall:rit:asymptotic"
    assert row["erp"] == report.erp


def test_run_erp_bit_requires_s():
    scenario = ScenarioSpec("first_order_eg1", n=1_000, n1=20, M=5, seed=13)
    with pytest.raises(ValidationError):
        run_erp(scenario, MethodConfig(kernel="kendall", mode="bit"))


def test_figure1_rows_shape_and_headline_behaviour():
    rows = figure1_phenomenon(
        fixed_grid=(300, 1200), decreasing_grid=(1200,), n1=60, M=60, seed=14
    )
    assert len(rows) == 6
    keys = {"scenario", "n", "n1", "statistic", "mean_stat", "mean_abs_stat", "power"}
    assert keys <= set(rows[0])
    fixed = {
        (r["n"], r["statistic"]): r for r in rows if r["scenario"] == "intro_fixed_p"
    }
    # balanced design gains power with n
    assert fixed[(1200, "pearson")]["power"] > fixed[(300, "pearson")]["power"]


def test_classical_pairwise_permutation_pvalue():
    from raresig import LabeledSample
    from raresig.simulate import classical_pvalue

    rng = np.random.default_rng(21)
    x = rng.standard_normal((60, 3))
    labels = np.r_[np.zeros(48, np.int64), np.ones(12, np.int64)]
    x[labels == 1] += 2.0  # strong separation
    sample = LabeledSample(x, labels)
    for kind in ("dcov", "ipcov"):
        p = classical_pvalue(sample, kind, B=39, seed=3)
        assert p == 1 / 40


def test_kernel_from_name_errors():
    with pytest.raises(ValidationError):
        kernel_from_name("mystery")
    assert kernel_from_name("imbalanced-kendall", m=3).params["m"] == 3


def test_benchmark_rows_and_slope():
    rows = benchmark_complexity("kendall", sizes=(4_000, 16_000), trials=3, seed=15)
    assert [r["x"] for r in rows] == [4_000, 16_000]
    assert all(r["cpu_seconds"] > 0 for r in rows)
    xs = [r["x"] for r in rows]
    ts = [r["cpu_seconds"] for r in rows]
    assert math.isfinite(loglog_slope(xs, ts))
    with pytest.raises(ValidationError):
        benchmark_complexity("kendall", sizes=(100,), mode="bit")


def test_complexity_grids_evaluate_the_closed_form_pairs(monkeypatch):
    # the clock-free side of the acceptance suite's runtime-scaling
    # criterion, on its own grids: every statistic evaluates each
    # within-class and cross pair once, O(p n^2) under rit and
    # O(p (s n1)^2) under bit, whose control count is the plan's kept count
    pairs = [0]
    blocks, pdist = _accel._distances, distance.pdist

    def counted_blocks(a, b, *args, **kw):
        pairs[0] += len(a) * len(b)
        return blocks(a, b, *args, **kw)

    def counted_pdist(a, *args, **kw):
        pairs[0] += len(a) * (len(a) - 1) // 2
        return pdist(a, *args, **kw)

    monkeypatch.setattr(_accel, "_distances", counted_blocks)
    monkeypatch.setattr(distance, "pdist", counted_pdist)
    calls = []

    def per_call(statistic, n0_of):
        def counted(g, kernel, *args):
            before = pairs[0]
            out = statistic(g, kernel, *args)
            calls.append((n0_of(g, *args), g.counts[1], pairs[0] - before))
            return out
        return counted

    monkeypatch.setattr(simulate, "compute_rit",
                        per_call(simulate.compute_rit, lambda g: g.counts[0]))
    monkeypatch.setattr(simulate, "compute_bit",
                        per_call(simulate.compute_bit, lambda g, plan: plan.realized_count))

    def grid(*args, **kw):
        calls.clear()
        benchmark_complexity(*args, trials=1, **kw)
        return list(calls)  # the warm-up call of each size, then the trial

    kendall = grid("kendall", sizes=(10_000, 40_000, 160_000), seed=111)
    assert [c[2] for c in kendall] == [0] * 6  # the sign statistic reads no pair
    rit = grid("dcov", sizes=(1_000, 2_000, 4_000), p=5, seed=112)
    assert [c[:2] for c in rit] == [(950, 50), (1_900, 100), (3_800, 200)] * 2
    bit = grid("dcov", sizes=(), mode="bit", n1=100, s_values=(5, 10, 20), p=5, seed=113)
    assert bit[:3] == bit[3:] and [c[1] for c in bit] == [100] * 6
    assert all(abs(n0 - s * 100) < 5 * math.sqrt(s * 100)
               for s, (n0, _, _) in zip((5, 10, 20), bit))
    for n0, n1, counted in rit + bit:
        assert counted == n0 * (n0 - 1) // 2 + n1 * n0 + n1 * (n1 - 1) // 2, (n0, n1)
