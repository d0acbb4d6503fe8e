import contextlib
import io
import json
from dataclasses import replace

import numpy as np
import pytest

from raresig import LabeledSample, ValidationError, group_by_label
from raresig import inference as inference_mod
from raresig import pipeline
from raresig.cli import main
from raresig.inference import condition_diagnostic, estimate_xi02
from raresig.kernels import dcov_kernel
from raresig.pipeline import MethodConfig, run_test
from raresig.rng import spawn_seed
from raresig.simulate import evaluate_replication
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
    path = _write(tmp_path / "binary.csv", _sample("scalar"))
    for inference in ("asymptotic", "permutation"):
        argv = ["--input", path, "--inference", inference, "--B", str(B),
                "--seed", str(SEED)]
        multi = _cli_json("--kernel", "multi-kendall", *argv)
        binary = _cli_json("--kernel", "kendall", *argv)
        multi.pop("wall_time_ms"), binary.pop("wall_time_ms")
        assert multi == binary


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
    # far-shifted rare classes push |z| past the double range of norm.sf
    rng = np.random.default_rng(7)
    x = rng.standard_normal(2_000)
    labels = np.zeros(2_000, np.int64)
    labels[:200], labels[200:400] = 1, 2
    x[labels > 0] += 6.0
    method = MethodConfig(kernel="multi_kendall", kernel_params={"n_rare": 2})
    p = evaluate_replication(LabeledSample(x, labels), method, SEED)
    assert 0 < p <= 1


def test_control_zeta_only_under_subsampling(monkeypatch):
    seen = []
    original = pipeline.estimate_zeta1k

    def spy(data, kernel, spec, k, *args):
        seen.append(k)
        return original(data, kernel, spec, k, *args)

    monkeypatch.setattr(pipeline, "estimate_zeta1k", spy)
    sample = _sample("three")
    run_test(sample, MethodConfig(kernel="multi_kendall"), SEED)
    assert seen == [1, 2]
    seen.clear()
    run_test(sample, MethodConfig(kernel="multi_kendall", mode="bit", s=3), SEED)
    assert seen == [0, 1, 2]


def test_highdim_builds_the_pair_projection_once(monkeypatch):
    sample = _sample("vector")
    calls = []
    original = inference_mod._pair_projection_matrix

    def counting(*args):
        calls.append(args)
        return original(*args)

    monkeypatch.setattr(inference_mod, "_pair_projection_matrix", counting)
    out = run_test(sample, MethodConfig(kernel="dcov", inference="highdim"), SEED)
    assert len(calls) == 1
    monkeypatch.undo()
    grouped = group_by_label(sample)
    assert out.variance_estimate == estimate_xi02(grouped, dcov_kernel())
    ratio = condition_diagnostic(grouped, dcov_kernel())
    assert out.metadata["warnings"] == [
        f"high-dimensional normality diagnostic ratio {ratio:.3g} "
        "(values near zero support the normal null)"
    ]


def test_auto_fallback_applies_to_the_harness():
    x = np.r_[np.linspace(0, 1, 40), np.linspace(10, 11, 8)]
    labels = np.r_[np.zeros(40, np.int64), np.ones(8, np.int64)]
    sample = LabeledSample(x, labels)
    for kernel in ("kendall", "multi_kendall"):
        out = run_test(sample, MethodConfig(kernel=kernel, xi_basis="cases", B=99), 9)
        assert out.method == "permutation"
        assert out.p_value == 1 / 100
        assert any("fell back" in w for w in out.metadata["warnings"])


def _separated_rarest_class() -> LabeledSample:
    # class 1 (5 rows) sits above every control and is far smaller than
    # class 2 (60 rows): the single_rarest regime with zeta_1 = 0
    x = np.random.default_rng(8).standard_normal(365)
    labels = np.r_[np.zeros(300, np.int64), np.ones(5, np.int64), np.full(60, 2)]
    x[labels == 1] += 10.0
    return LabeledSample(x[:, None], labels)


def test_multiclass_zero_variance_is_a_degenerate_error(tmp_path):
    path = _write(tmp_path / "separated.csv", _separated_rarest_class())
    code, out, err = _cli(
        "--input", path, "--kernel", "multi-kendall", "--inference", "asymptotic"
    )
    assert code == 3 and out == ""
    assert "variance vanishes in the single_rarest regime" in err


def test_multiclass_zero_variance_auto_falls_back():
    method = MethodConfig(kernel="multi_kendall", B=99)
    out = run_test(_separated_rarest_class(), method, SEED)
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
