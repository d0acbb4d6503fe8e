"""Full-sample rescaled statistics and the classical pooled baselines.

``compute_rit`` evaluates the combinatorial average of a kernel over
all per-class index combinations, for one control class and any number
K of rare classes (the binary test is K = 1), through the cheapest exact
route: group means for the difference kernel (O(n)), each rare point's
sign counts against one sorted reference for both sign kernels, and
pairwise distance/angle sums for the second-order kernels (O(p n^2),
streaming memory).  The reference (:func:`_sign_reference`) is the
sorted controls (O(n log n)), or for the sign against m >= 2 control
means, the sorted means of m-control tuples under one rule: every tuple
when they number at most a cap, else ``cap`` random ones (O(cap m)
memory, O((cap + n1) log cap) time).  The rare-block projection of
:func:`raresig.multiclass.block_projection` reads the same reference.
``compute_rit_bruteforce`` is the literal definition and serves as the
oracle in tests; a ``custom`` kernel always takes it.
``_pooled_statistic`` evaluates a kernel's statistic on a chunk of case
sets of one pooled sample from a summary computed once (sign counts, a
centred total, or the pairwise row sums of ``_pair_sum_statistic``),
which is what the permutation nulls iterate over.  ``compute_classical``
produces the unrescaled pooled statistics used as baselines from the
same summaries: the classical kendall and pearson values are the rescaled
ones times a factor that vanishes as n1 / n -> 0, and the classical
dcov/ipcov formula reads the same pair sums.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from itertools import combinations, product

import numpy as np

from . import _accel
from .data import GroupedSample, LabeledSample, group_by_label
from .errors import DegenerateDataError, ValidationError
from .kernels import (SCALAR_KINDS, SECOND_ORDER_KINDS, KernelSpec, evaluate,
                      kernel_from_name)
from .rng import spawn_rng

__all__ = ["RitStatistic", "compute_rit", "compute_rit_bruteforce", "compute_classical"]

BRUTE_FORCE_GUARD = 10_000_000
IMBALANCED_BUDGET = 100_000


@dataclass(frozen=True, eq=False)
class RitStatistic:
    """A computed rescaled statistic with its evaluation context.

    ``meta["s"]`` is the control ratio of the normal nulls: the sampling
    ratio of a subsampled statistic, else n0/n1, as the full sample
    keeps every control."""

    value: float
    kernel: KernelSpec
    n0: int
    n1: int
    algorithm: str
    meta: dict = field(default_factory=dict)

    def __post_init__(self) -> None:
        if not math.isfinite(self.value):
            raise ValidationError("statistic is not finite")
        object.__setattr__(self, "meta", {"s": self.n0 / self.n1, **self.meta})


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
    if spec.kind in SCALAR_KINDS and data.p != 1:
        raise ValidationError(f"{spec.kind} requires scalar features (p=1)")


def sign_counts(ref: np.ndarray, pts: np.ndarray) -> np.ndarray:
    """Per point of ``pts``, the integer sum of sgn(pt - r) over ``ref``
    (sorted ascending): the count of smaller minus the count of larger
    entries, ties counting 0."""
    less = np.searchsorted(ref, pts, side="left")
    greater = ref.size - np.searchsorted(ref, pts, side="right")
    return less - greater


def _distinct_tuples(rng, n: int, m: int, count: int) -> np.ndarray:
    """``count`` uniform m-subsets of range(n), one a row, by Floyd's
    algorithm over every row at once: for each top in n - m, ..., n - 1
    draw t in [0, top] and take top where the row holds t already.  It
    takes m rounds whatever m / n is; the order within a row is not
    uniform, which neither a tuple mean nor a kernel symmetric within a
    block reads."""
    out = np.empty((count, m), dtype=np.int64)
    for i, top in enumerate(range(n - m, n)):
        t = rng.integers(0, top + 1, size=count)
        out[:, i] = np.where((out[:, :i] == t[:, None]).any(axis=1), top, t)
    return out


def _sign_reference(data: GroupedSample, kernel: KernelSpec, cap: int, rng) -> np.ndarray:
    """The sorted array a rare point's sign counts are read against, for
    the statistic and the rare-block projection of both sign kernels:
    the controls for ``rescaled_kendall``; for ``imbalanced_kendall`` the
    means of every m-control tuple when they number at most ``cap``,
    else of ``cap`` random tuples drawn from ``rng``."""
    if kernel.kind == "rescaled_kendall":
        return data.sorted_column(0)
    m, x0 = kernel.params["m"], data.group(0)[:, 0]
    count = math.comb(x0.size, m)
    if count <= cap:
        # every m-subset, each prefix extended by every larger index that
        # leaves room for the rest: O(cap m) memory
        idx = np.arange(x0.size - m + 1)[:, None]
        for k in range(1, m):
            i, j = np.nonzero(idx[:, -1:] < np.arange(x0.size - m + k + 1))
            idx = np.column_stack([idx[i], j])
    else:
        idx = _distinct_tuples(rng, x0.size, m, cap)
    ref = x0[idx].mean(axis=1)
    ref.sort()
    return ref


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
    """``cases -> formula(n0, n1, s00, s01, s11)`` over the rows ``x``,
    for one rare class whose rows are ``cases``, a one-tuple of a (c, n1)
    array of sorted positions: c values.

    The pooled row sums r_i = sum_{j != i} d(x_i, x_j) and their total T
    do not depend on the labels, so they are computed once (O(p n^2),
    O(chunk * n) memory), from the rows the pair function reads (centred
    for dcov), mapped once (:func:`raresig._accel.pooled_pair_sums`).  A
    call then sums the n1 x n1 pair blocks of its c case sets, one stacked
    GEMM (O(c p n1^2)): s11 is a block's sum, s01 = sum of r over the
    cases - s11 and s00 = T - s11 - 2 s01.
    """
    r, within = _accel.pooled_pair_sums(kernel, x)
    total = math.fsum(r)

    def statistic(cases: tuple) -> np.ndarray:
        (idx,) = cases
        n1 = idx.shape[1]
        s11 = 2.0 * within(idx)
        s01 = np.array([math.fsum(v) for v in r[idx].tolist()]) - s11
        return formula(x.shape[0] - n1, n1, total - s11 - 2.0 * s01, s01, s11)

    return statistic


def _sign_statistic(x: np.ndarray):
    """``cases -> sign statistic`` of ``rescaled_kendall`` at any number
    of rare classes over the scalar rows ``x``, for rare classes whose
    rows are ``cases`` (one (c, n_k) array of positions per class): c
    values.

    The pooled sign counts c_i = #{x_j < x_i} - #{x_j > x_i} come from
    one sort.  Rare class k's sum of sgn against the controls is the sum
    of c over its rows minus their sign counts among all rare rows
    (O(n_r log n_r) a case set, one sort a chunk); with one rare class
    that term is 0, as the within-class pairs cancel.  The sums are
    integers, so each value is bitwise that of :func:`compute_rit`.
    """
    c = sign_counts(np.sort(x), x)

    def statistic(cases: tuple) -> np.ndarray:
        n_rare = sum(idx.shape[1] for idx in cases)
        if len(cases) > 1:
            # c is increasing in x, ties equal, in (-n, n): a key per row
            row = np.arange(len(cases[0]))[:, None]
            keys = np.sort(c[np.concatenate(cases, axis=1)] + 2 * x.size * row, axis=None)
        parts = []
        for idx in cases:
            cross = c[idx].sum(axis=1, dtype=np.int64)
            if len(cases) > 1:
                # each row's sign counts: left + right - (2 row + 1) n_rare
                q = c[idx] + 2 * x.size * row
                both = np.searchsorted(keys, q, "left") + np.searchsorted(keys, q, "right")
                cross -= (both - (2 * row + 1) * n_rare).sum(axis=1)
            parts.append(cross / ((x.size - n_rare) * idx.shape[1]))
        return np.array([math.fsum(v) for v in zip(*parts)])

    return statistic


def _mean_statistic(x: np.ndarray):
    """``cases -> case mean - control mean`` over the scalar rows ``x``
    for one rare class, c values for a (c, n1) array of positions: the
    rows are centred once, and each call sums a case set's centred rows
    with ``math.fsum`` and takes the controls' from the pooled total."""
    xc = x - x.mean()
    total = math.fsum(xc)

    def statistic(cases: tuple) -> np.ndarray:
        (idx,) = cases
        s1 = np.array([math.fsum(v) for v in xc[idx].tolist()])
        return s1 / idx.shape[1] - (total - s1) / (x.size - idx.shape[1])

    return statistic


def _pooled_statistic(x: np.ndarray, kernel: KernelSpec):
    """``cases -> statistics`` of ``kernel`` over the rows ``x``, a value
    per case set of the chunk ``cases``, from one pooled summary, or None
    for a kernel without one (``imbalanced_kendall``, ``custom``)."""
    if kernel.kind == "rescaled_kendall":
        return _sign_statistic(x[:, 0])
    if kernel.kind == "rescaled_pearson":
        return _mean_statistic(x[:, 0])
    if kernel.kind in SECOND_ORDER_KINDS:
        return _pair_sum_statistic(x, kernel, _rit_from_sums)
    return None


def compute_rit(data: GroupedSample, kernel: KernelSpec, seed: int = 0) -> RitStatistic:
    """Exact rescaled statistic of any kernel, at any number of rare
    classes, via the fastest path for the kernel.

    Both sign kernels count each rare point's signs against one sorted
    reference (:func:`_sign_reference`); ``imbalanced_kendall`` enumerates
    its m-control tuples when they number at most ``IMBALANCED_BUDGET``,
    else reads that many tuples drawn from ``spawn_rng(seed)``, a
    budgeted path flagged in ``meta['budgeted']``.  ``seed`` matters to
    no other path.  The pairwise path keeps
    ``meta['s00']`` and each case's sum to the controls,
    ``meta['case_rowsums']``, for the high-dimensional null.  A
    ``custom`` kernel is enumerated (:func:`compute_rit_bruteforce`).
    """
    _check_sizes(data, kernel)
    n0, n1 = data.counts[0], data.counts[1]
    meta: dict = {}
    if kernel.kind == "rescaled_pearson":
        # centred at the control mean, so a large common offset does not
        # swamp the difference in rounding
        x0, x1 = data.group(0)[:, 0], data.group(1)[:, 0]
        centre = x0.mean()
        value = float((x1 - centre).mean() - (x0 - centre).mean())
        algorithm = "group-means"
    elif kernel.kind in ("rescaled_kendall", "imbalanced_kendall"):
        ref = _sign_reference(data, kernel, IMBALANCED_BUDGET, spawn_rng(seed))
        value = math.fsum(
            float(sign_counts(ref, data.group(k)[:, 0]).sum(dtype=np.int64))
            / (ref.size * data.counts[k]) for k in range(1, data.n_classes)
        )
        if ref.size < math.comb(n0, kernel.m0):
            algorithm = "budgeted-subsample"
            meta = {"budgeted": True, "budget": IMBALANCED_BUDGET}
        else:
            algorithm = "sort-count" if kernel.m0 == 1 else "exact-enumeration"
    elif kernel.kind in SECOND_ORDER_KINDS:
        x0, x1 = data.group(0), data.group(1)
        s00 = 2.0 * _accel.within_sum(kernel, x0)
        r = _accel.cross_rowsum(kernel, x1, x0)
        value = _rit_from_sums(n0, n1, s00, math.fsum(r),
                               2.0 * _accel.within_sum(kernel, x1))
        algorithm = "pairwise-sums"
        meta = {"s00": s00, "case_rowsums": r}
    elif kernel.kind == "custom":
        return compute_rit_bruteforce(data, kernel)
    else:
        raise ValidationError(f"unsupported kernel kind {kernel.kind!r}")
    return RitStatistic(value, kernel, n0, n1, algorithm, meta)


def compute_rit_bruteforce(data: GroupedSample, kernel: KernelSpec) -> RitStatistic:
    """Literal sum over every per-class index combination (test oracle).

    Refuses instances with more than ``BRUTE_FORCE_GUARD`` combinations.
    """
    _check_sizes(data, kernel)
    blocks = list(zip(data.counts, kernel.block_orders))
    count = math.prod(math.comb(n, m) for n, m in blocks)
    if count > BRUTE_FORCE_GUARD:
        raise ValidationError(
            f"{count} combinations exceed the brute-force guard {BRUTE_FORCE_GUARD}"
        )
    total = math.fsum(
        evaluate(kernel, [data.group(k)[list(idx)] for k, idx in enumerate(combo)])
        for combo in product(*(combinations(range(n), m) for n, m in blocks))
    )
    return RitStatistic(total / count, kernel, *data.counts[:2], "bruteforce")


# ---------------------------------------------------------------------------
# classical pooled statistics (Study-1 baselines)
# ---------------------------------------------------------------------------


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
    """``cases -> classical statistics`` on the features of ``sample``
    (see :func:`compute_classical`), ``cases`` a one-tuple of a (c, n1)
    array of sorted case positions."""
    if sample.n_classes != 2:
        raise ValidationError("classical baselines require binary labels")
    group_by_label(sample)  # both classes must be populated
    if kind in ("pearson", "kendall"):
        if sample.p != 1:
            raise ValidationError(f"classical {kind} requires scalar features")
        x = sample.features[:, 0]
        n = x.size
        if kind == "kendall":
            # the pooled sign counts summed over the cases: the
            # case/control sign sum, the case/case pairs cancelling
            c = sign_counts(np.sort(x), x)
            return lambda cases: 2.0 * c[cases[0]].sum(axis=1, dtype=np.int64) / (n * n)
        sd = x.std()  # population moments in the pooled form
        if sd <= 0:
            raise DegenerateDataError("zero-variance feature")
        diff = _mean_statistic(x)
        # the correlation with the label is sqrt(n0 n1) / (n sd) times the
        # difference of the class means
        return lambda cases: (math.sqrt((n - cases[0].shape[1]) * cases[0].shape[1])
                              / (n * sd) * diff(cases))
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
    cases = np.flatnonzero(sample.labels)[None]
    return float(_classical_statistic(sample, kind)((cases,))[0])
