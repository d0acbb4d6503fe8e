"""Full-sample rescaled statistics and the classical pooled baselines.

``compute_rit`` evaluates the combinatorial average of a kernel over
all control/case index combinations through the cheapest exact route:
group means for the difference kernel (O(n)), order statistics for the
sign kernel (O(n log n)), enumeration or a documented budgeted
subsample for the m-control sign kernel, and pairwise distance/angle
sums for the second-order kernels (O(p n^2), streaming memory).
``compute_rit_bruteforce`` is the literal definition and serves as the
oracle in tests.  ``compute_classical`` produces the unrescaled pooled
statistics used as baselines; each has its own formula (the pairwise
ones read the same pair sums as the rescaled statistic), so the two can
be checked against each other.  ``_pair_sum_statistic`` evaluates
either pairwise formula under relabelings of one pooled sample, which
is what the permutation nulls iterate over.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from itertools import combinations

import numpy as np

from . import _accel
from .data import GroupedSample, LabeledSample, group_by_label
from .errors import DegenerateDataError, ValidationError
from .kernels import SECOND_ORDER_KINDS, KernelSpec, evaluate, kernel_from_name
from .rng import spawn_rng

__all__ = ["RitStatistic", "compute_rit", "compute_rit_bruteforce", "compute_classical"]

BRUTE_FORCE_GUARD = 10_000_000
IMBALANCED_EXACT_GUARD = 10_000_000
IMBALANCED_BUDGET = 100_000


@dataclass(frozen=True, eq=False)
class RitStatistic:
    """A computed rescaled statistic with its evaluation context."""

    value: float
    kernel: KernelSpec
    order: str
    n0: int
    n1: int
    algorithm: str
    meta: dict = field(default_factory=dict)

    def __post_init__(self) -> None:
        if not math.isfinite(self.value):
            raise ValidationError("statistic is not finite")


def _check_binary(data: GroupedSample) -> None:
    if data.n_classes != 2:
        raise ValidationError(
            "this engine handles one rare class; use the multiclass module"
        )


def _check_sizes(data: GroupedSample, spec: KernelSpec) -> None:
    if spec.n_blocks != data.n_classes:
        raise ValidationError(
            f"kernel declares {spec.n_blocks} blocks for {data.n_classes} classes"
        )
    for k, m in enumerate(spec.block_orders):
        if data.counts[k] < m:
            raise DegenerateDataError(
                f"class {k} has {data.counts[k]} rows, kernel needs {m}"
            )
    if spec.kind in ("rescaled_pearson", "rescaled_kendall", "imbalanced_kendall",
                     "multi_kendall") and data.p != 1:
        raise ValidationError(f"{spec.kind} requires scalar features (p=1)")


def kendall_cross_mean(cases: np.ndarray, controls: np.ndarray) -> float:
    """Mean of sgn(case - control) over all cross pairs (ties count 0)."""
    ctrl = np.sort(np.asarray(controls, dtype=np.float64).reshape(-1))
    cs = np.asarray(cases, dtype=np.float64).reshape(-1)
    less = np.searchsorted(ctrl, cs, side="left")
    greater = ctrl.size - np.searchsorted(ctrl, cs, side="right")
    return float((less - greater).sum(dtype=np.int64)) / (ctrl.size * cs.size)


def _distinct_tuples(rng, n: int, m: int, count: int) -> np.ndarray:
    """``count`` random m-subsets of range(n), distinct within each row."""
    out = rng.integers(0, n, size=(count, m))
    if m > 1:
        srt = np.sort(out, axis=1)
        bad = np.flatnonzero((np.diff(srt, axis=1) == 0).any(axis=1))
        while bad.size:
            out[bad] = rng.integers(0, n, size=(bad.size, m))
            srt = np.sort(out[bad], axis=1)
            still = (np.diff(srt, axis=1) == 0).any(axis=1)
            bad = bad[still]
    return out


def _imbalanced_kendall(data: GroupedSample, spec: KernelSpec, seed: int):
    m = spec.params["m"]
    x0 = data.group(0)[:, 0]
    x1 = data.group(1)[:, 0]
    n0, n1 = x0.size, x1.size
    exact = math.comb(n0, m) * n1 <= IMBALANCED_EXACT_GUARD
    if m == 1:
        means = x0.copy()
    elif exact and m == 2:
        iu = np.triu_indices(n0, k=1)
        means = (x0[iu[0]] + x0[iu[1]]) / 2.0
    elif exact:
        means = np.array([x0[list(c)].mean() for c in combinations(range(n0), m)])
    else:
        idx = _distinct_tuples(spawn_rng(seed), n0, m, IMBALANCED_BUDGET)
        means = x0[idx].mean(axis=1)
    means.sort()
    less = np.searchsorted(means, x1, side="left")
    greater = means.size - np.searchsorted(means, x1, side="right")
    value = float((less - greater).sum(dtype=np.int64)) / (means.size * n1)
    if exact:
        return value, "exact-enumeration", {}
    return value, "budgeted-subsample", {"budgeted": True, "budget": IMBALANCED_BUDGET}


def _rit_from_sums(n0: int, n1: int, s00: float, s01: float, s11: float) -> float:
    """Six-term second-order statistic from the pair sums over ordered
    within-control pairs (``s00``), case-control pairs (``s01``) and
    ordered within-case pairs (``s11``)."""
    return (
        4.0 * s01 / (n0 * n1)
        - 2.0 * s00 / (n0 * (n0 - 1))
        - 2.0 * s11 / (n1 * (n1 - 1))
    )


def _pair_sum_statistic(x: np.ndarray, kernel: KernelSpec, formula):
    """``labels -> formula(n0, n1, s00, s01, s11)`` over the rows ``x``
    for binary labels.

    The pooled row sums r_i = sum_{j != i} d(x_i, x_j) and their total T
    do not depend on the labels, so they are computed once (O(p n^2),
    O(chunk * n) memory).  Each call then sums d over the case pairs
    only: s11 is twice their within total, s01 = sum of r over the
    cases - s11 and s00 = T - s11 - 2 s01.
    """
    r = _accel.within_rowsum(kernel, x)
    total = math.fsum(r)

    def statistic(labels: np.ndarray) -> float:
        cases = labels == 1
        n1 = int(cases.sum())
        s11 = 2.0 * _accel.within_sum(kernel, x[cases])
        s01 = math.fsum(r[cases]) - s11
        return formula(x.shape[0] - n1, n1, total - s11 - 2.0 * s01, s01, s11)

    return statistic


def compute_rit(data: GroupedSample, kernel: KernelSpec, seed: int = 0) -> RitStatistic:
    """Exact rescaled statistic via the fastest path for the kernel.

    ``seed`` only matters for the budgeted path of ``imbalanced_kendall``
    (taken when exact enumeration would exceed the combination guard);
    that path is flagged in ``meta['budgeted']``.
    """
    _check_binary(data)
    _check_sizes(data, kernel)
    n0, n1 = data.counts[0], data.counts[1]
    meta: dict = {}
    if kernel.kind == "rescaled_pearson":
        value = float(data.group(1)[:, 0].mean() - data.group(0)[:, 0].mean())
        algorithm = "group-means"
    elif kernel.kind == "rescaled_kendall":
        value = kendall_cross_mean(data.group(1)[:, 0], data.group(0)[:, 0])
        algorithm = "sort-count"
    elif kernel.kind == "imbalanced_kendall":
        value, algorithm, meta = _imbalanced_kendall(data, kernel, seed)
    elif kernel.kind in SECOND_ORDER_KINDS:
        x0, x1 = data.group(0), data.group(1)
        value = _rit_from_sums(
            n0,
            n1,
            2.0 * _accel.within_sum(kernel, x0),
            _accel.cross_sum(kernel, x1, x0),
            2.0 * _accel.within_sum(kernel, x1),
        )
        algorithm = f"pairwise-sums[{_accel.active_backend()}]"
    elif kernel.kind == "custom":
        return compute_rit_bruteforce(data, kernel)
    else:
        raise ValidationError(f"unsupported kernel kind {kernel.kind!r}")
    return RitStatistic(value, kernel, kernel.order, n0, n1, algorithm, meta)


def compute_rit_bruteforce(data: GroupedSample, kernel: KernelSpec) -> RitStatistic:
    """Literal sum over all index combinations (test oracle).

    Refuses instances with more than ``BRUTE_FORCE_GUARD`` combinations.
    """
    _check_binary(data)
    _check_sizes(data, kernel)
    n0, n1 = data.counts
    m0, m1 = kernel.m0, kernel.m1
    count = math.comb(n0, m0) * math.comb(n1, m1)
    if count > BRUTE_FORCE_GUARD:
        raise ValidationError(
            f"{count} combinations exceed the brute-force guard {BRUTE_FORCE_GUARD}"
        )
    x0, x1 = data.group(0), data.group(1)
    vals = [
        evaluate(kernel, [x0[list(i0)], x1[list(i1)]])
        for i0 in combinations(range(n0), m0)
        for i1 in combinations(range(n1), m1)
    ]
    return RitStatistic(
        math.fsum(vals) / count, kernel, kernel.order, n0, n1, "bruteforce"
    )


# ---------------------------------------------------------------------------
# classical pooled statistics (Study-1 baselines)
# ---------------------------------------------------------------------------


def _classical_kendall(x: np.ndarray, labels: np.ndarray) -> float:
    """Pooled sign statistic 2/n^2 * sum over case/control pairs of
    sgn(x_case - x_ctrl), computed by a sorted sweep over tie groups."""
    n = x.size
    order = np.argsort(x, kind="mergesort")
    xs = x[order]
    ys = labels[order]
    new_group = np.r_[True, xs[1:] != xs[:-1]]
    gid = np.cumsum(new_group) - 1
    cases_g = np.bincount(gid, weights=ys).astype(np.int64)
    ctrls_g = np.bincount(gid, weights=1 - ys).astype(np.int64)
    cases_before = np.concatenate([[0], np.cumsum(cases_g)[:-1]])
    ctrls_before = np.concatenate([[0], np.cumsum(ctrls_g)[:-1]])
    s = int((cases_g * ctrls_before - ctrls_g * cases_before).sum())
    return 2.0 * s / (n * n)


def _classical_pearson(x: np.ndarray, labels: np.ndarray) -> float:
    """Pooled correlation of x against the binary label."""
    n = x.size
    n1 = int(labels.sum())
    p1 = n1 / n
    sd = x.std()  # population moments in the pooled form
    if sd <= 0:
        raise DegenerateDataError("zero-variance feature")
    return math.sqrt(p1) * (x[labels == 1].mean() - x.mean()) / (sd * math.sqrt(1 - p1))


def _classical_from_sums(
    n0: int, n1: int, s00: float, s01: float, s11: float
) -> float:
    """Squared pooled distance/angle covariance from the raw three-term
    moment decomposition with the binary label metric |y_i - y_j|, from
    the same pair sums as :func:`_rit_from_sums`."""
    n = n0 + n1
    total = s00 + 2.0 * s01 + s11  # sum of d over ordered pairs
    s1 = 2.0 * s01 / (n * n)
    s2 = (total / (n * n)) * (2.0 * n0 * n1 / (n * n))
    # each row's total times its label-metric row sum (n0 for a case,
    # n1 for a control)
    s3 = (n0 * (s01 + s11) + n1 * (s00 + s01)) / (n * n * n)
    return s1 + s2 - 2.0 * s3


def _classical_statistic(sample: LabeledSample, kind: str):
    """``labels -> classical statistic`` on the features of ``sample``
    (see :func:`compute_classical`)."""
    if sample.n_classes != 2:
        raise ValidationError("classical baselines require binary labels")
    group_by_label(sample)  # both classes must be populated
    if kind in ("pearson", "kendall"):
        if sample.p != 1:
            raise ValidationError(f"classical {kind} requires scalar features")
        x = sample.features[:, 0]
        f = _classical_pearson if kind == "pearson" else _classical_kendall
        return lambda labels: f(x, labels)
    if kind in ("dcov", "ipcov"):
        return _pair_sum_statistic(
            sample.features, kernel_from_name(kind), _classical_from_sums
        )
    raise ValidationError(f"unknown classical statistic {kind!r}")


def compute_classical(sample: LabeledSample, kind: str) -> float:
    """Classical pooled statistic (baseline): ``pearson`` correlation,
    ``kendall`` pooled sign statistic, or squared ``dcov``/``ipcov``.

    Labels must be binary.
    """
    return _classical_statistic(sample, kind)(sample.labels)
