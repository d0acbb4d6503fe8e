"""Null-calibration sweep: each (statistic, inference) pairing holds its
size on the matching no-dependence scenario.

The acceptance module already pins the difference/sign statistics with
asymptotic inference and the full-sample pairwise statistic with the
high-dimensional null, so this sweep covers the remaining pairings,
among them the boosted pairwise statistic with the high-dimensional
null, whose variance 2 xi02 (1 + 1/s)^2 carries the kept controls'
terms.  These are Monte Carlo checks; expect a couple of minutes.
"""

import numpy as np
import pytest

from raresig.data import LabeledSample
from raresig.pipeline import run_test
from raresig.rng import spawn_rng, spawn_seed
from raresig.simulate import MethodConfig, ScenarioSpec, generate, run_erp

pytestmark = pytest.mark.slow


def _size(scenario, method):
    report = run_erp(scenario.null(), method)
    return report.erp


def test_size_control_asymptotic_sign_statistic_logistic_design():
    # the label-adjustment design, n1 >= 100, tight first-order band
    scenario = ScenarioSpec("first_order_eg2", n=20_000, n1=200, M=1000, seed=21)
    size = _size(
        scenario, MethodConfig(kernel="kendall", mode="rit", xi_basis="controls")
    )
    assert 0.035 <= size <= 0.065


@pytest.mark.parametrize(
    "method",
    [
        MethodConfig(kernel="imbalanced_kendall", mode="rit", xi_basis="cases",
                     kernel_params={"m": 2}),
        MethodConfig(kernel="imbalanced_kendall", mode="bit", s=5, xi_basis="cases",
                     kernel_params={"m": 2}),
    ],
    ids=["rit", "bit"],
)
def test_size_control_imbalanced_kendall(method):
    scenario = ScenarioSpec("first_order_eg1", n=20_000, n1=200, M=1000, seed=22)
    size = _size(scenario, method)
    assert 0.03 <= size <= 0.07


@pytest.mark.parametrize("basis", ["cases", "controls"])
@pytest.mark.parametrize("mode, s", [("rit", None), ("bit", 5)], ids=["rit", "bit"])
def test_size_control_multiclass_unequal_rare_classes(mode, s, basis):
    # criterion 9's K = 2 null and band with class 2 five times class 1
    # (n1 = 0.2 n2): every rare class enters the variance at its ratio
    labels = np.concatenate([np.zeros(20_000, np.int64), np.ones(200, np.int64),
                             np.full(1_000, 2, np.int64)])
    method = MethodConfig(kernel="multi_kendall", mode=mode, s=s,
                          inference="asymptotic", xi_basis=basis)
    m = 1000
    rejected = 0
    for rep in range(m):
        x = spawn_rng(910, rep).standard_normal((labels.size, 1))
        rejected += run_test(LabeledSample(x, labels), method, rep).p_value <= 0.05
    assert 0.03 <= rejected / m <= 0.07


@pytest.mark.parametrize("basis", ["cases", "controls"])
def test_size_control_multiclass_full_sample_at_a_finite_ratio(basis):
    # criterion 9's K = 2 null and band at n0 = 5 n1, where the controls'
    # term m_0^2 zeta_0 n1 / n0 (zeta_0 = K^2 / 3) is a third of the variance
    labels = np.concatenate([np.zeros(1_000, np.int64), np.ones(200, np.int64),
                             np.full(200, 2, np.int64)])
    method = MethodConfig(kernel="multi_kendall", mode="rit", inference="asymptotic",
                          xi_basis=basis)
    m = 1000
    rejected = 0
    for rep in range(m):
        x = spawn_rng(12, rep).standard_normal((labels.size, 1))
        rejected += run_test(LabeledSample(x, labels), method, rep).p_value <= 0.05
    assert 0.03 <= rejected / m <= 0.07


def test_size_control_subsampled_pairwise_permutation():
    scenario = ScenarioSpec("second_order_eg1", n=1_050, n1=50, p=50, M=600, seed=23)
    method = MethodConfig(kernel="dcov", mode="bit", s=10,
                          inference="permutation", B=199)
    size = _size(scenario, method)
    assert 0.03 <= size <= 0.07


def test_size_control_angular_pairwise_permutation():
    scenario = ScenarioSpec("second_order_eg1", n=525, n1=25, p=50, M=600, seed=24)
    method = MethodConfig(kernel="ipcov", mode="rit", inference="permutation", B=199)
    size = _size(scenario, method)
    assert 0.03 <= size <= 0.07


@pytest.mark.parametrize("kernel", ["dcov", "ipcov"])
def test_size_control_subsampled_pairwise_highdim(kernel):
    # criterion 6(a)'s band and KS bound, under BIT at s = 2 and 5
    null = ScenarioSpec("second_order_eg1", n=2_050, n1=50, p=50, M=400, seed=909).null()
    pvals = {2: np.empty(null.M), 5: np.empty(null.M)}
    for rep in range(null.M):
        sample = generate(null, rep)
        for s, p in pvals.items():
            method = MethodConfig(kernel=kernel, mode="bit", s=s, inference="highdim")
            p[rep] = run_test(sample, method, spawn_seed(null.seed, rep, 9)).p_value
    grid = np.arange(1, null.M + 1) / null.M
    for s, p in pvals.items():
        sorted_p = np.sort(p)
        ks = max(float(np.abs(grid - sorted_p).max()),
                 float(np.abs(sorted_p - (grid - 1 / null.M)).max()))
        size = float((p <= 0.05).mean())
        assert 0.02 <= size <= 0.09, (s, size)
        assert ks < 0.08, (s, ks)


@pytest.mark.parametrize("kernel", ["dcov", "ipcov"])
def test_size_control_full_sample_pairwise_highdim(kernel):
    # criterion 6(a)'s band and KS bound under RIT at n0/n1 = 20, whose
    # variance 2 xi02 (1 + n1/n0)^2 keeps the controls' terms
    null = ScenarioSpec("second_order_eg1", n=1_050, n1=50, p=50, M=400, seed=31).null()
    method = MethodConfig(kernel=kernel, mode="rit", inference="highdim")
    p = np.array([run_test(generate(null, rep), method, rep).p_value
                  for rep in range(null.M)])
    grid = np.arange(1, null.M + 1) / null.M
    sorted_p = np.sort(p)
    ks = max(float(np.abs(grid - sorted_p).max()),
             float(np.abs(sorted_p - (grid - 1 / null.M)).max()))
    size = float((p <= 0.05).mean())
    assert 0.02 <= size <= 0.09, size
    assert ks < 0.08, ks
