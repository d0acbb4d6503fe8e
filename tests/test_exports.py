"""The public surface: every ``__all__`` entry is a real attribute,
names that were removed stay removed everywhere in the package, and
importing the package and its CLI loads no scipy module."""

import dataclasses
import importlib
import pkgutil
import subprocess
import sys
from pathlib import Path

import pytest

import raresig

MODULES = ["raresig"] + sorted(
    m.name for m in pkgutil.iter_modules(raresig.__path__, "raresig.")
)

# names earlier versions defined, now gone from every raresig module
REMOVED = (
    "MultiClassSpec",
    "compute_multi_rit",
    "compute_multi_rit_bruteforce",
    "full_statistic",
    "is_multiclass",
    "_check_binary",
    "FIRST_ORDER_KINDS",
    "compute_multi_bit",
    "cross_sum",
    "MAX_POOLED",
    "_pair_projection_matrix",
    "_checked_pair_projection",
    "_angles",
    "_classical_kendall",
    "_classical_pearson",
    "pair_rows",
    "estimate_xi01",
    "estimate_xi10",
    "_first_order_only",
    "SCENARIO_FAMILIES",
    "_gen_logistic_1d",
    "_gen_shift_1d",
    "kendall_cross_mean",
    "_imbalanced_kendall",
    "_imbalanced_kendall_projection",
    "IMBALANCED_EXACT_GUARD",
    "_thinned_pool",
    "_draw_test_plan",
    "thin_controls",
    "presort",
    "condition_diagnostic",
    "pair_matrix",
    "_pair_projection",
    "_xi02_from",
    "_condition_ratio_from",
    "_highdim_summary",
    "PAIR_PROJECTION_GUARD",
    "_check_pair_guard",
    "_PAIR_PROJECTION_SCALE",
    "kernel_pearson",
    "kernel_kendall",
    "kernel_imbalanced_kendall",
    "kernel_dcov",
    "kernel_ipcov",
    "_scalar",
)


@pytest.mark.parametrize("name", MODULES)
def test_all_names_exist(name):
    module = importlib.import_module(name)
    missing = [a for a in getattr(module, "__all__", ()) if not hasattr(module, a)]
    assert missing == []


@pytest.mark.parametrize("name", MODULES)
def test_removed_names_stay_removed(name):
    module = importlib.import_module(name)
    assert [a for a in REMOVED if hasattr(module, a)] == []


# scipy is imported on first use only, by the distance blocks below
# GEMM_MIN_P features; a p = 5 dcov statistic then runs them
_IMPORT_GUARD = """
import math, sys
sys.path.insert(0, sys.argv[1])
import numpy as np
import raresig, raresig.cli
loaded = [m for m in sys.modules if m == "scipy" or m.startswith("scipy.")]
assert loaded == [], loaded
rng = np.random.default_rng(11)
labels = np.r_[np.zeros(30, np.int64), np.ones(8, np.int64)]
g = raresig.group_by_label(raresig.LabeledSample(rng.standard_normal((38, 5)), labels))
fast = raresig.compute_rit(g, raresig.dcov_kernel()).value
brute = raresig.compute_rit_bruteforce(g, raresig.dcov_kernel()).value
assert math.isclose(fast, brute, rel_tol=1e-12, abs_tol=1e-12), (fast, brute)
assert "scipy.spatial.distance" in sys.modules
"""


def test_import_loads_no_scipy():
    src = str(Path(raresig.__file__).resolve().parents[1])
    out = subprocess.run([sys.executable, "-c", _IMPORT_GUARD, src],
                         capture_output=True, text=True, timeout=120)
    assert out.returncode == 0, out.stderr


def test_removed_members_stay_removed():
    # a sample's labels are fixed (a permutation builds GroupedSamples from
    # positions), and a grouping sorts its columns on first read
    assert not hasattr(raresig.LabeledSample, "with_labels")
    assert "sorted_first" not in {f.name for f in dataclasses.fields(raresig.GroupedSample)}
