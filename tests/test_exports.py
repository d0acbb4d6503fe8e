"""The public surface: every ``__all__`` entry is a real attribute, and
names that were removed stay removed everywhere in the package."""

import importlib
import pkgutil

import pytest

import raresig

MODULES = ["raresig"] + sorted(
    m.name for m in pkgutil.iter_modules(raresig.__path__, "raresig.")
)

# names earlier versions defined, now gone from every raresig module
REMOVED = (
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
