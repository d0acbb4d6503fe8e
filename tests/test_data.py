import warnings
from dataclasses import replace

import numpy as np
import pytest
from numpy.testing import assert_allclose, assert_array_equal

from raresig import (
    DegenerateDataError,
    GroupedSample,
    LabeledSample,
    ValidationError,
    group_by_label,
    standardize,
)
from raresig.data import presort
from raresig.subsample import draw_subsample, thin_controls


def test_group_by_label_partition():
    sample = LabeledSample(np.array([[5.0], [7.0], [9.0]]), np.array([0, 1, 0]))
    g = group_by_label(sample)
    assert_array_equal(g.group(0).ravel(), [5.0, 9.0])
    assert_array_equal(g.group(1).ravel(), [7.0])
    assert g.counts == (2, 1)


def test_group_by_label_all_controls_errors():
    sample = LabeledSample(np.zeros((3, 1)), np.array([0, 0, 0]))
    with pytest.raises(DegenerateDataError, match="degenerate partition"):
        group_by_label(sample)


def test_group_by_label_empty_intermediate_class_errors():
    sample = LabeledSample(np.zeros((4, 1)), np.array([0, 0, 2, 2]))
    with pytest.raises(DegenerateDataError, match="class 1"):
        group_by_label(sample)


def test_imbalance_ratio():
    sample = LabeledSample(np.zeros((6, 1)), np.array([1, 1, 0, 0, 0, 0]))
    assert group_by_label(sample).imbalance == 0.5


def test_reconcatenation_via_indices_roundtrips():
    rng = np.random.default_rng(0)
    x = rng.standard_normal((40, 3))
    labels = rng.integers(0, 3, size=40)
    labels[:3] = [0, 1, 2]  # every class populated
    sample = LabeledSample(x, labels)
    g = group_by_label(sample)
    rebuilt = np.empty_like(x)
    for k in range(g.n_classes):
        rebuilt[g.indices[k]] = g.group(k)
    assert_array_equal(rebuilt, sample.features)


def test_grouped_views_read_the_source_rows():
    # grouping keeps positions and gathers a class on its first read;
    # presort, replace and thinning read the same rows of the one source
    rng = np.random.default_rng(3)
    labels = np.r_[np.zeros(40, np.int64), np.ones(6, np.int64), np.full(5, 2)]
    sample = LabeledSample(rng.standard_normal((51, 3)), rng.permutation(labels))
    g = group_by_label(sample)
    plan = draw_subsample(g, 3, seed=4)
    for h in (g, presort(g), replace(g, sorted_first=None)):
        assert (h.n_classes, h.n, h.p, h.counts) == (3, 51, 3, g.counts)
        assert h.source is sample.features
        assert all(a is b for a, b in zip(h.groups, h.groups))  # kept
        for k in range(3):
            assert_array_equal(h.group(k), sample.features[g.indices[k]])
    thin = thin_controls(g, plan)
    assert thin.source is sample.features
    assert thin.counts == (plan.realized_count, 6, 5)
    assert_array_equal(thin.indices[0], g.indices[0][plan.inclusion])
    for k in range(3):
        assert_array_equal(thin.group(k), sample.features[thin.indices[k]])


def test_grouped_sample_keywords_name_the_source():
    # the first field is `source`, the one (n, p) feature matrix: per-class
    # matrices are refused there, and the old keyword `groups=` is refused
    # rather than read as something else
    sample = LabeledSample(np.arange(12.0).reshape(6, 2), np.array([0, 1, 0, 0, 1, 0]))
    g = group_by_label(sample)
    by_keyword = GroupedSample(source=sample.features, counts=g.counts, indices=g.indices)
    swapped = replace(g, source=sample.features + 1.0)
    for k in range(2):
        assert_array_equal(by_keyword.group(k), g.group(k))
        assert_array_equal(swapped.group(k), g.group(k) + 1.0)
    for bad in (g.groups, list(g.groups), sample.features[:, 0]):
        with pytest.raises(ValidationError, match="feature matrix"):
            GroupedSample(bad, g.counts, g.indices)
    with pytest.raises(ValidationError, match="feature matrix"):
        replace(g, source=g.groups)
    with pytest.raises(TypeError):
        GroupedSample(groups=g.groups, counts=g.counts, indices=g.indices)
    with pytest.raises(TypeError):
        replace(g, groups=g.groups)


def test_validation_rejects_bad_inputs():
    with pytest.raises(ValidationError):
        LabeledSample(np.array([[1.0], [np.inf]]), np.array([0, 1]))
    with pytest.raises(ValidationError):
        LabeledSample(np.zeros((2, 1)), np.array([0, -1]))
    with pytest.raises(ValidationError):
        LabeledSample(np.zeros((3, 1)), np.array([0, 1]))
    with pytest.raises(ValidationError):
        LabeledSample(np.zeros((2, 1)), np.array([0.5, 1.0]))


@pytest.mark.parametrize("bad", [np.nan, np.inf, 1e300, 10**300],
                         ids=["nan", "inf", "1e300", "int-1e300"])
def test_labels_outside_int64_are_validation_errors(bad):
    labels = np.array([0, 1, bad], dtype=object if isinstance(bad, int) else float)
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # no cast warning either
        with pytest.raises(ValidationError, match="integers"):
            LabeledSample(np.zeros((3, 1)), labels)


def test_standardize_three_point_column():
    sample = LabeledSample(np.array([[1.0], [2.0], [3.0]]), np.array([0, 1, 0]))
    out = standardize(sample)
    assert_allclose(out.features.ravel(), [-1.0, 0.0, 1.0], atol=1e-12)


def test_standardize_idempotent():
    rng = np.random.default_rng(1)
    sample = LabeledSample(rng.standard_normal((50, 4)) * 3 + 1, rng.integers(0, 2, 50))
    once = standardize(sample)
    twice = standardize(once)
    assert_allclose(twice.features, once.features, atol=1e-12)
    assert np.abs(once.features.mean(axis=0)).max() < 1e-12
    assert_allclose(once.features.std(axis=0, ddof=1), 1.0, atol=1e-12)


def test_standardize_constant_column_errors():
    sample = LabeledSample(np.array([[4.0], [4.0], [4.0]]), np.array([0, 1, 0]))
    with pytest.raises(DegenerateDataError, match="column 0"):
        standardize(sample)


def test_standardize_commutes_with_grouping():
    rng = np.random.default_rng(2)
    sample = LabeledSample(rng.standard_normal((30, 2)), rng.integers(0, 2, 30))
    a = group_by_label(standardize(sample))
    b_groups = group_by_label(sample)
    # standardizing is label-agnostic: apply the pooled transform per group
    mean = sample.features.mean(axis=0)
    sd = sample.features.std(axis=0, ddof=1)
    for k in range(2):
        assert_allclose(a.group(k), (b_groups.group(k) - mean) / sd, atol=1e-12)


def test_arrays_are_read_only():
    sample = LabeledSample(np.zeros((2, 1)), np.array([0, 1]))
    with pytest.raises(ValueError):
        sample.features[0, 0] = 1.0
