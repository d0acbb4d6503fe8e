import contextlib
import io
import itertools
import json
import math
import sys
import time
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from raresig import LabeledSample, ValidationError, group_by_label
from raresig import _accel, data, pipeline, subsample
from raresig.cli import main
from raresig.engine import compute_rit
from raresig.inference import condition_diagnostic, estimate_xi02
from raresig.kernels import dcov_kernel, kernel_from_name
from raresig.pipeline import MethodConfig, run_test
from raresig.rng import spawn_seed
from raresig.simulate import benchmark_complexity, evaluate_replication
from raresig.subsample import draw_subsample

SEED = 5
B = 19


def _sample(kind: str) -> LabeledSample:
    rng = np.random.default_rng({"scalar": 1, "three": 2, "vector": 3}[kind])
    if kind == "vector":
        n, n1 = 300, 25
        x = rng.standard_normal((n, 4))
        labels = np.r_[np.zeros(n - n1, np.int64), np.ones(n1, np.int64)]
        x[labels == 1, :2] += 0.8
    else:
        n = 400
        x = rng.standard_normal((n, 1))
        labels = np.zeros(n, np.int64)
        labels[:25] = 1
        if kind == "three":
            labels[25:45] = 2
        x[labels == 1] += 0.7
        x[labels == 2] -= 0.4
    return LabeledSample(x, labels)


def _kept(grouped, kernel, s):
    """The rows a subsampled test with ``SEED`` reads: the cases and the
    controls its plan keeps."""
    plan = draw_subsample(grouped, s, spawn_seed(SEED, 1), kernel.m0)
    return subsample._kept_sample(grouped, kernel, plan)


def _write(path, sample: LabeledSample) -> str:
    x = sample.features
    header = ",".join([f"x{j}" for j in range(x.shape[1])] + ["label"])
    np.savetxt(path, np.column_stack([x, sample.labels]), delimiter=",",
               fmt=["%.17g"] * x.shape[1] + ["%d"], header=header, comments="")
    return str(path)


def _cli(*argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(["test", *argv])
    return code, out.getvalue(), err.getvalue()


def _cli_json(*argv) -> dict:
    code, out, err = _cli(*argv)
    assert code == 0, err
    return json.loads(out)


FIRST_ORDER = ("pearson", "kendall", "imbalanced-kendall", "multi-kendall")
SECOND_ORDER = ("dcov", "ipcov")
CASES = [
    (kernel, mode, inference)
    for kernels, inferences in (
        (FIRST_ORDER, ("auto", "asymptotic", "permutation")),
        (SECOND_ORDER, ("auto", "permutation", "highdim")),
    )
    for kernel in kernels
    for mode in ("rit", "bit")
    for inference in inferences
]


@pytest.mark.parametrize("kernel,mode,inference", CASES)
def test_cli_and_harness_agree(kernel, mode, inference, tmp_path):
    kind = "vector" if kernel in SECOND_ORDER else (
        "three" if kernel == "multi-kendall" else "scalar")
    sample = _sample(kind)
    path = _write(tmp_path / "sample.csv", sample)
    s = 3 if mode == "bit" else None
    argv = ["--input", path, "--kernel", kernel, "--method", mode, "--inference",
            inference, "--B", str(B), "--seed", str(SEED), "--xi-basis", "controls"]
    if s:
        argv += ["--s", str(s)]
    cli_p = _cli_json(*argv)["p_value"]
    params = {"n_rare": 2} if kernel == "multi-kendall" else {}
    method = MethodConfig(kernel=kernel.replace("-", "_"), mode=mode, s=s,
                          inference=inference, B=B, xi_basis="controls",
                          kernel_params=params)
    assert evaluate_replication(sample, method, SEED) == cli_p
    assert 0 < cli_p <= 1


def test_multi_kendall_on_binary_data_is_the_kendall_test(tmp_path):
    # K = 1 rare class, and the sign against one control's "mean" (m = 1),
    # are the binary sign kernel itself
    path = _write(tmp_path / "binary.csv", _sample("scalar"))
    methods = (["--method", "rit"], ["--method", "bit", "--s", "3"])
    for inference, method, basis in itertools.product(
        ("asymptotic", "permutation"), methods, ("cases", "controls")
    ):
        argv = ["--input", path, "--inference", inference, "--B", str(B),
                "--seed", str(SEED), "--xi-basis", basis, *method]
        binary = _cli_json("--kernel", "kendall", *argv)
        binary.pop("wall_time_ms")
        for kernel in (["multi-kendall"], ["imbalanced-kendall", "--m", "1"]):
            same = _cli_json("--kernel", *kernel, *argv)
            same.pop("wall_time_ms")
            assert same == binary, kernel


def test_multi_kendall_inference_is_honoured(tmp_path):
    path = _write(tmp_path / "three.csv", _sample("three"))
    out = _cli_json("--input", path, "--kernel", "multi-kendall", "--inference",
                    "permutation", "--B", str(B), "--seed", str(SEED))
    assert out["method"] == "permutation"
    assert out["B"] == B
    assert round(out["p_value"] * (B + 1)) == pytest.approx(out["p_value"] * (B + 1))
    code, _, err = _cli("--input", path, "--kernel", "multi-kendall",
                        "--inference", "highdim")
    assert code == 2
    assert "highdim inference requires a second-order kernel" in err


def test_multiclass_bit_uses_the_sampling_ratio():
    sample = _sample("three")
    rit = MethodConfig(kernel="multi_kendall", kernel_params={"n_rare": 2})
    bit = replace(rit, mode="bit", s=3)
    p_bit = evaluate_replication(sample, bit, SEED)
    assert p_bit != evaluate_replication(sample, rit, SEED)


def test_multiclass_pvalue_stays_positive():
    # far-shifted rare classes push |z| past the double range of the normal tail
    rng = np.random.default_rng(7)
    x = rng.standard_normal(2_000)
    labels = np.zeros(2_000, np.int64)
    labels[:200], labels[200:400] = 1, 2
    x[labels > 0] += 6.0
    method = MethodConfig(kernel="multi_kendall", kernel_params={"n_rare": 2})
    p = evaluate_replication(LabeledSample(x, labels), method, SEED)
    assert 0 < p <= 1


def test_every_zeta_under_both_methods(monkeypatch):
    seen = []
    original = pipeline.estimate_zeta1k

    def spy(data, kernel, k, *args, **kwargs):
        seen.append(k)
        return original(data, kernel, k, *args, **kwargs)

    monkeypatch.setattr(pipeline, "estimate_zeta1k", spy)
    sample = _sample("three")
    run_test(sample, MethodConfig(kernel="multi_kendall"), SEED)
    assert seen == [0, 1, 2]
    seen.clear()
    run_test(sample, MethodConfig(kernel="multi_kendall", mode="bit", s=3), SEED)
    assert seen == [0, 1, 2]


def test_imbalanced_kendall_zetas_at_every_control_cost_one_sorted_draw():
    # the controls basis projects all 199,800 controls: against one sorted
    # array of `budget` draws (`budget` draws per point took ~22 s on a
    # 2-vCPU host)
    rng = np.random.default_rng(13)
    labels = np.zeros(200_000, np.int64)
    labels[:200] = 1
    sample = LabeledSample(rng.standard_normal((labels.size, 1)), labels)
    method = MethodConfig(kernel="imbalanced_kendall", kernel_params={"m": 2},
                          inference="asymptotic", xi_basis="controls")
    t0 = time.process_time()
    out = run_test(sample, method, SEED)
    assert time.process_time() - t0 < 1.0
    assert 0 < out.p_value <= 1 and len(out.metadata["zetas"]) == 2


def test_highdim_builds_the_pair_projection_once(monkeypatch):
    # the statistic, xi02 and the condition ratio share one pass over the
    # control pairs and one over the case-to-control pairs
    sample = _sample("vector")
    grouped = group_by_label(sample)
    within, cross = [], []
    within_sum, cross_rowsum = _accel.within_sum, _accel.cross_rowsum

    def counting_within(kernel, a):
        within.append(a)
        return within_sum(kernel, a)

    def counting_cross(kernel, a, b):
        cross.append(b)
        return cross_rowsum(kernel, a, b)

    monkeypatch.setattr(_accel, "within_sum", counting_within)
    monkeypatch.setattr(_accel, "cross_rowsum", counting_cross)
    for kind, s in itertools.product(SECOND_ORDER, (None, 3)):
        kernel = kernel_from_name(kind)
        data = grouped if s is None else _kept(grouped, kernel, s)
        within.clear()
        cross.clear()
        method = MethodConfig(kernel=kind, mode="bit" if s else "rit", s=s,
                              inference="highdim")
        out = run_test(sample, method, SEED)
        assert sum(np.array_equal(a, data.group(0)) for a in within) == 1
        assert len(within) == 2 and len(cross) == 1
        within.clear()
        cross.clear()
        xi02 = estimate_xi02(data, kernel)
        assert out.metadata["xi02"] == xi02
        assert within == [] and len(cross) == 1
        # Var(n1 T) = 2 xi02 (1 + 1/s)^2 under the H0 identities, the
        # full sample at s = n0/n1
        factor = (1 + 1 / (s or grouped.counts[0] / grouped.counts[1])) ** 2
        assert out.variance_estimate == pytest.approx(2 * xi02 * factor, rel=1e-14)
        ratio = condition_diagnostic(data, kernel)
        assert out.metadata["warnings"][-1] == (
            f"high-dimensional normality diagnostic ratio {ratio:.3g} "
            "(values near zero support the normal null)"
        )
    out = run_test(sample, MethodConfig(kernel="dcov", inference="highdim"), SEED)
    assert len(out.metadata["warnings"]) == 1


@pytest.mark.parametrize("kernel,params,inference", [
    ("pearson", {}, "asymptotic"),
    ("kendall", {}, "asymptotic"),
    ("imbalanced_kendall", {"m": 2}, "asymptotic"),
    ("multi_kendall", {}, "asymptotic"),
    ("dcov", {}, "highdim"),
    ("ipcov", {}, "highdim"),
])
@settings(max_examples=4, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), n1=st.sampled_from((20, 50)),
       s=st.sampled_from((2, 10)))
def test_rit_is_bit_when_every_control_is_kept(kernel, params, inference, seed, n1, s):
    # at n0 = s n1 the plan keeps every control, so the boosted test is
    # the full-sample one: same statistic, variance and p-value, bit for bit
    rng = np.random.default_rng(seed)
    counts = (s * n1, n1) + ((n1 + 7,) if kernel == "multi_kendall" else ())
    labels = np.concatenate([np.full(c, k, np.int64) for k, c in enumerate(counts)])
    p = 5 if inference == "highdim" else 1
    sample = LabeledSample(rng.standard_normal((labels.size, p)), labels)
    rit, bit = (run_test(sample, MethodConfig(kernel=kernel, mode=mode, s=ratio,
                                              inference=inference,
                                              kernel_params=params), seed)
                for mode, ratio in (("rit", None), ("bit", s)))
    assert bit.metadata["plan_attempts"] == 1
    assert (rit.statistic, rit.variance_estimate, rit.p_value) == (
        bit.statistic, bit.variance_estimate, bit.p_value)


@pytest.mark.parametrize("kernel,inference", [
    ("kendall", "asymptotic"), ("pearson", "asymptotic"),
    ("multi_kendall", "asymptotic"), ("dcov", "highdim"), ("ipcov", "highdim"),
])
@pytest.mark.parametrize("mode", ["rit", "bit"])
def test_asymptotic_outcomes_explain_their_pvalue(kernel, inference, mode):
    # the p-value is the normal one of the scaled statistic and the
    # variance the outcome reports; its agreement with scipy is
    # test_multiclass.py::test_normal_helpers_match_scipy
    sample = _sample({"multi_kendall": "three", "dcov": "vector",
                      "ipcov": "vector"}.get(kernel, "scalar"))
    method = MethodConfig(kernel=kernel, mode=mode, s=3 if mode == "bit" else None,
                          inference=inference)
    out = run_test(sample, method, SEED)
    assert out.method == f"asymptotic_{'first' if inference == 'asymptotic' else inference}"
    z = abs(out.scaled_statistic) / math.sqrt(out.variance_estimate)
    assert out.p_value == max(math.erfc(z / math.sqrt(2)), 5e-324)


def test_auto_fallback_applies_to_the_harness():
    x = np.r_[np.linspace(0, 1, 40), np.linspace(10, 11, 8)]
    labels = np.r_[np.zeros(40, np.int64), np.ones(8, np.int64)]
    sample = LabeledSample(x, labels)
    for kernel in ("kendall", "multi_kendall"):
        out = run_test(sample, MethodConfig(kernel=kernel, xi_basis="cases", B=99), 9)
        assert out.method == "permutation"
        assert out.p_value == 1 / 100
        assert any("fell back" in w for w in out.metadata["warnings"])


def _separated_rare_classes() -> LabeledSample:
    # classes 1 (5 rows) and 2 (60 rows) sit above every control, so every
    # rare zeta vanishes at the case points
    x = np.random.default_rng(8).standard_normal(365)
    labels = np.r_[np.zeros(300, np.int64), np.ones(5, np.int64), np.full(60, 2)]
    x[labels > 0] += 10.0
    return LabeledSample(x[:, None], labels)


def test_multiclass_zero_variance_is_a_degenerate_error(tmp_path):
    path = _write(tmp_path / "separated.csv", _separated_rare_classes())
    code, out, err = _cli(
        "--input", path, "--kernel", "multi-kendall", "--inference", "asymptotic"
    )
    assert code == 3 and out == ""
    assert "all first-order projection variances vanish" in err


def test_multiclass_zero_variance_auto_falls_back():
    # the zetas vanish at the separated case points, not at the controls
    method = MethodConfig(kernel="multi_kendall", xi_basis="cases", B=99)
    out = run_test(_separated_rare_classes(), method, SEED)
    assert out.method == "permutation"
    assert any("fell back" in w for w in out.metadata["warnings"])


def test_outcome_metadata_carries_the_run_context():
    method = MethodConfig(kernel="pearson", mode="bit", s=4)
    out = run_test(_sample("scalar"), method, SEED)
    meta = out.metadata
    assert (meta["n0"], meta["n1"], meta["s"], meta["B"]) == (375, 25, 4, None)
    assert meta["warnings"] == []


@pytest.mark.parametrize(
    "method,match",
    [
        (MethodConfig(mode="classical"), "unknown method"),
        (MethodConfig(mode="bit"), "requires the sampling ratio"),
        (MethodConfig(inference="bogus"), "unknown inference"),
        (MethodConfig(kernel="dcov", inference="asymptotic"), "first-order kernel"),
    ],
)
def test_run_test_rejects_invalid_configs(method, match):
    with pytest.raises(ValidationError, match=match):
        run_test(_sample("scalar"), method, SEED)


@pytest.mark.parametrize("mode", ["rit", "classical"])
def test_a_sampling_ratio_outside_bit_is_refused(mode):
    # the ratio is refused, not silently dropped from the test and kept
    # in the method's label
    with pytest.raises(ValidationError, match="method=bit only"):
        MethodConfig(mode=mode, s=5)


@pytest.mark.parametrize("kernel,other", [("dcov", "highdim"), ("kendall", "asymptotic")])
def test_bit_permutation_tests_the_statistic_of_the_other_nulls(kernel, other):
    # the permutation null conditions on the plan every null reports
    sample = _sample("vector" if kernel == "dcov" else "scalar")
    method = MethodConfig(kernel=kernel, mode="bit", s=3, inference="permutation", B=B)
    perm = run_test(sample, method, SEED)
    ref = run_test(sample, replace(method, inference=other), SEED)
    np.testing.assert_allclose(perm.statistic, ref.statistic, rtol=1e-12)


@pytest.mark.parametrize("kernel", ["dcov", "kendall"])
def test_bit_permutation_ignores_the_dropped_controls(kernel):
    sample = _sample("vector" if kernel == "dcov" else "scalar")
    method = MethodConfig(kernel=kernel, mode="bit", s=3, inference="permutation", B=B)
    grouped = group_by_label(sample)
    plan = draw_subsample(grouped, 3, spawn_seed(SEED, 1), 2 if kernel == "dcov" else 1)
    x = sample.features.copy()
    x[grouped.indices[0][~plan.inclusion]] += 100.0
    a = run_test(sample, method, SEED)
    b = run_test(LabeledSample(x, sample.labels), method, SEED)
    assert (a.statistic, a.p_value) == (b.statistic, b.p_value)


def test_plan_redraws_are_reported_once_under_every_null():
    # two cases at s = 2 keep ~4 of 400 controls; under seed 14 the first
    # draw keeps none and the plan needs a second.  The two cases tie, so
    # xi01 at the case points is zero and auto falls back to permutation
    x = np.random.default_rng(3).standard_normal(402)
    x[400:] = 0.5
    sample = LabeledSample(x, np.r_[np.zeros(400, np.int64), np.ones(2, np.int64)])
    method = MethodConfig(kernel="kendall", mode="bit", s=2, B=B)
    warning = "subsample plan needed 2 draws"
    for inference, basis in (("permutation", "controls"), ("asymptotic", "controls"),
                             ("auto", "cases")):
        out = run_test(sample, replace(method, inference=inference, xi_basis=basis), 14)
        assert out.metadata["warnings"].count(warning) == 1
        assert out.metadata["plan_attempts"] == 2
    assert out.method == "permutation"
    assert any("fell back" in w for w in out.metadata["warnings"])


def _spy_calls(monkeypatch, *functions) -> dict:
    """The calls of each function from here on, wherever a raresig module
    looks it up, by name."""
    calls = {f.__name__: 0 for f in functions}
    for original in functions:
        def counting(*args, name=original.__name__, original=original, **kwargs):
            calls[name] += 1
            return original(*args, **kwargs)

        for name, mod in list(sys.modules.items()):
            if name.startswith("raresig") and getattr(mod, original.__name__, None) is original:
                monkeypatch.setattr(mod, original.__name__, counting)
    return calls


@pytest.mark.parametrize("kernel,inference", [
    ("kendall", "asymptotic"), ("multi_kendall", "asymptotic"), ("dcov", "highdim"),
])
def test_bit_thins_the_controls_once(kernel, inference, monkeypatch):
    # the statistic and every variance estimate read one grouping and the
    # rows of one plan
    calls = _spy_calls(monkeypatch, data.group_by_label, subsample.draw_subsample)
    sample = _sample({"kendall": "scalar", "multi_kendall": "three"}.get(kernel, "vector"))
    method = MethodConfig(kernel=kernel, mode="bit", s=3, inference=inference)
    run_test(sample, method, SEED)
    assert calls == {"group_by_label": 1, "draw_subsample": 1}


@pytest.mark.parametrize("mode", ["rit", "bit"])
@pytest.mark.parametrize("kernel,inference", [
    ("kendall", "permutation"), ("imbalanced_kendall", "permutation"), ("kendall", "auto"),
], ids=["pooled", "regrouped", "fallback"])
def test_every_null_groups_once_and_draws_at_most_one_plan(kernel, inference, mode,
                                                           monkeypatch):
    # the permutation null, chosen or the auto fallback, reads the grouping
    # and the plan the other nulls read: one case among 300 controls has no
    # zeta_1, so auto falls back; the regrouping null builds each relabelled
    # sample from its positions
    if inference == "auto":
        rng = np.random.default_rng(9)
        sample = LabeledSample(rng.standard_normal(301), np.r_[np.zeros(300, np.int64), 1])
    else:
        sample = _sample("scalar")
    params = {"m": 2} if kernel == "imbalanced_kendall" else {}
    method = MethodConfig(kernel=kernel, mode=mode, s=10 if mode == "bit" else None,
                          inference=inference, B=B, kernel_params=params)
    calls = _spy_calls(monkeypatch, data.group_by_label, subsample.draw_subsample)
    out = run_test(sample, method, SEED)
    assert out.method == "permutation"
    assert any("fell back" in w for w in out.metadata["warnings"]) == (inference == "auto")
    assert calls == {"group_by_label": 1, "draw_subsample": int(mode == "bit")}


def _spy_gathers(monkeypatch) -> list:
    """The row positions of every class gather from here on."""
    rows = []
    gather = data._gather
    monkeypatch.setattr(data, "_gather", lambda src, idx: rows.append(idx) or gather(src, idx))
    return rows


@pytest.mark.parametrize("kernel,kind", [
    ("kendall", "scalar"), ("pearson", "scalar"), ("multi_kendall", "three"),
    ("dcov", "vector"), ("ipcov", "vector"),
])
def test_permutation_test_gathers_no_class(kernel, kind, monkeypatch):
    # the permutation null reads pooled summaries of the feature matrix
    rows = _spy_gathers(monkeypatch)
    run_test(_sample(kind), MethodConfig(kernel=kernel, inference="permutation", B=B), SEED)
    assert rows == []


@pytest.mark.parametrize("kernel,kind,inference", [
    ("kendall", "scalar", "asymptotic"), ("multi_kendall", "three", "asymptotic"),
    ("dcov", "vector", "highdim"), ("ipcov", "vector", "highdim"),
    ("dcov", "vector", "permutation"),
])
def test_bit_test_gathers_only_kept_rows(kernel, kind, inference, monkeypatch):
    # the statistic and every null read the cases and the kept controls,
    # each class gathered once (the permutation pool takes them by
    # position); the full control block never
    sample = _sample(kind)
    params = {"n_rare": 2} if kind == "three" else {}
    grouped = group_by_label(sample)
    kept = _kept(grouped, kernel_from_name(kernel, **params), 3)
    rows = _spy_gathers(monkeypatch)
    run_test(sample, MethodConfig(kernel=kernel, mode="bit", s=3, inference=inference), SEED)
    gathered = np.concatenate([np.zeros(0, np.int64), *rows])
    assert np.isin(gathered, np.concatenate(kept.indices)).all()
    assert gathered.size == (0 if inference == "permutation" else kept.n) < grouped.n


@pytest.mark.parametrize("inference", ["permutation", "highdim"])
def test_bit_test_peaks_below_its_input(inference):
    # at n = 20,000 and p = 50, an 8 MB input, a BIT test holds the cases
    # and the ~250 kept controls, not a copy of the input
    rng = np.random.default_rng(21)
    n, n1 = 20_000, 50
    labels = rng.permutation(np.r_[np.zeros(n - n1, np.int64), np.ones(n1, np.int64)])
    sample = LabeledSample(rng.standard_normal((n, 50)), labels)
    method = MethodConfig(kernel="dcov", mode="bit", s=5, inference=inference, B=19)
    tracemalloc.start()
    try:
        run_test(sample, method, SEED)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < sample.features.nbytes


def test_rit_permutation_peaks_within_its_blocks():
    # at n = 20,000 and p = 50, the pooled pass holds the mapped rows and
    # one block of about _accel._BLOCK_BYTES, not 512 rows against all n
    rng = np.random.default_rng(21)
    n, n1 = 20_000, 50
    labels = rng.permutation(np.r_[np.zeros(n - n1, np.int64), np.ones(n1, np.int64)])
    sample = LabeledSample(rng.standard_normal((n, 50)), labels)
    method = MethodConfig(kernel="dcov", mode="rit", inference="permutation", B=19)
    tracemalloc.start()
    try:
        run_test(sample, method, SEED)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 55e6


@pytest.mark.parametrize("kernel,mode,sorts", [
    ("kendall", "rit", 2), ("kendall", "bit", 2),
    ("multi_kendall", "rit", 3), ("multi_kendall", "bit", 3),
])
def test_sign_tests_sort_each_column_once(kernel, mode, sorts, monkeypatch):
    # the statistic and every zeta_k share one sorted copy per class,
    # the (kept) controls included
    sizes = []
    original = np.sort

    def counting(a, *args, **kwargs):
        sizes.append(np.size(a))
        return original(a, *args, **kwargs)

    monkeypatch.setattr(np, "sort", counting)
    sample = _sample("scalar" if kernel == "kendall" else "three")
    s = 3 if mode == "bit" else None
    for basis in ("cases", "controls"):
        sizes.clear()
        method = MethodConfig(kernel=kernel, mode=mode, s=s, inference="asymptotic",
                              xi_basis=basis)
        run_test(sample, method, SEED)
        assert len(sizes) == sorts


def test_statistic_sorts_on_every_call(monkeypatch):
    # a grouping keeps its sorted columns, so a second statistic on it
    # sorts nothing; each timed call of benchmark_complexity takes a fresh
    # grouping, so every trial pays for its own sort
    calls = []
    original = np.sort

    def counting(a, *args, **kwargs):
        calls.append(np.size(a))
        return original(a, *args, **kwargs)

    monkeypatch.setattr(np, "sort", counting)
    data = group_by_label(_sample("scalar"))
    kernel = kernel_from_name("kendall")
    first = compute_rit(data, kernel)
    assert compute_rit(data, kernel).value == first.value
    assert calls == [data.counts[0]]
    calls.clear()
    benchmark_complexity("kendall", sizes=(400,), trials=3)
    assert calls == [380] * 4  # the warm-up and three trials
