"""One independence test on a labeled sample: :func:`run_test`.

The function owns the procedure's decision tree.  The statistic is the
full-sample rescaled one (``rit``) or the boosted one on Bernoulli-thinned
controls (``bit``).  The null is the first-order normal null, the
high-dimensional normal null for n1 T, or label permutation; ``auto``
takes the first for first-order kernels and permutation otherwise, and
falls back to permutation when a first-order variance cannot be
estimated or vanishes.  Both normal nulls take the controls at ratio s
under ``bit`` and n0/n1 under ``rit`` (``bit`` keeping every control):
every first-order kernel takes sum_k m_k^2 zeta_k / r_k + m_0^2 zeta_0 / s
from the zeta_k of :func:`raresig.multiclass.estimate_zeta1k` (for a
binary kernel zeta_1 is xi01 and zeta_0 is xi10), and the
high-dimensional null 2 xi02 (1 + 1/s)^2.  A test groups the sample
once and, under ``bit``, draws one plan before it picks a null: the
statistic, every variance estimate and the permutation null, chosen or
the auto fallback, read that one grouping and the rows that one plan
keeps.  Both the command line and the Monte Carlo harness call it.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

from .data import LabeledSample, group_by_label
from .engine import compute_rit
from .errors import DegenerateDataError, ValidationError
from .inference import (
    TestOutcome,
    estimate_xi02,
    pvalue_asymptotic_first,
    pvalue_asymptotic_highdim,
    pvalue_permutation,
)
from .kernels import kernel_from_name
from .multiclass import estimate_zeta1k, multi_asymptotic_variance
from .rng import spawn_seed
from .subsample import _kept_sample, _kept_statistic, draw_subsample

__all__ = ["MethodConfig", "run_test"]


@dataclass(frozen=True)
class MethodConfig:
    """One (statistic, inference) combination.

    ``mode`` is ``rit`` or ``bit``; ``classical`` (the pooled baseline)
    is only meaningful to the Monte Carlo harness.  ``budget`` caps the
    Monte Carlo tuples per point and the control points of zeta_0;
    ``xi_basis`` picks the points every rare-class zeta_k is evaluated
    at (see :func:`raresig.multiclass.estimate_zeta1k`).
    """

    kernel: str = "kendall"
    mode: str = "rit"  # rit | bit | classical
    s: int | None = None
    inference: str = "auto"  # auto | asymptotic | permutation | highdim
    B: int = 199
    budget: int = 2000
    xi_basis: str = "controls"
    kernel_params: dict = field(default_factory=dict)

    def __post_init__(self) -> None:
        if self.B < 1:
            raise ValidationError("B must be at least 1")
        if self.s is not None and self.mode != "bit":
            raise ValidationError("the sampling ratio s applies to method=bit only")

    def label(self) -> str:
        bits = [self.kernel, self.mode]
        if self.s is not None:
            bits.append(f"s={self.s}")
        bits.append(self.resolved_inference())
        return ":".join(bits)

    def resolved_inference(self) -> str:
        if self.mode == "classical":
            return "classical"
        if self.inference != "auto":
            return self.inference
        spec = kernel_from_name(self.kernel, **self.kernel_params)
        return "asymptotic" if spec.order == "first" else "permutation"


def run_test(sample: LabeledSample, method: MethodConfig, seed: int) -> TestOutcome:
    """Run the configured test on ``sample``.

    ``metadata`` of the outcome carries ``n0``, ``n1``, ``s``, ``B``
    (permutation only, else None), ``plan_attempts`` (the draws the
    subsample plan needed; None under ``rit``) and ``warnings``: plan
    redraws (once, under every null), the auto fallback and a budgeted
    statistic.  The first-order null adds ``zetas``, one per class,
    control first.

    The sample is grouped once and, under ``bit``, one plan is drawn
    with at least m0 controls before the null is picked; every null, the
    auto fallback included, reads them.

    Random streams derived from ``seed``: ``(seed, 1)`` the subsample
    plan (under every null), ``(seed, 2, c)`` permutation chunk c, and
    for zeta_k ``(seed, 5)`` at k = 1, ``(seed, 6)`` at k = 0 and
    ``(seed, 7, k)`` at k >= 2.  A budgeted ``imbalanced-kendall``
    statistic draws its control tuples from the fixed ``spawn_rng(0)``,
    which does not follow ``seed``.

    The permutation null, chosen or the auto fallback, is
    :func:`raresig.inference.pvalue_permutation`: each chunk of 64
    permutations draws the rare rows' positions in one call and, for
    every kernel but ``imbalanced-kendall`` at m >= 2 and ``custom``,
    reads a pooled summary at O(n1) a permutation (n1 x n1 pair blocks,
    one stacked GEMM a chunk, for the pairwise kernels) instead of
    regrouping n rows.  It takes the grouping and the plan, as
    :func:`raresig.subsample.compute_bit` does.
    """
    params = dict(method.kernel_params)
    if method.kernel.replace("-", "_") == "multi_kendall":
        params.setdefault("n_rare", sample.n_classes - 1)
    kernel = kernel_from_name(method.kernel, **params)
    if method.mode not in ("rit", "bit"):
        raise ValidationError(f"unknown method {method.mode!r}")
    if method.mode == "bit" and method.s is None:
        raise ValidationError("method=bit requires the sampling ratio s")
    s = method.s if method.mode == "bit" else None
    inference = method.resolved_inference()
    if inference not in ("asymptotic", "highdim", "permutation"):
        raise ValidationError(f"unknown inference {inference!r}")
    if inference == "asymptotic" and kernel.order != "first":
        raise ValidationError(
            "asymptotic inference requires a first-order kernel; "
            "use permutation or highdim inference"
        )
    if inference == "highdim" and kernel.order != "second":
        raise ValidationError("highdim inference requires a second-order kernel")

    grouped = group_by_label(sample)
    plan = None if s is None else draw_subsample(grouped, s, spawn_seed(seed, 1), kernel.m0)
    warnings: list = []
    if inference == "permutation":
        out = pvalue_permutation(grouped, kernel, method.B, seed, plan)
        return _finish(out, s, method.B, warnings, plan)

    data = grouped if plan is None else _kept_sample(grouped, kernel, plan)
    stat = compute_rit(data, kernel) if plan is None else _kept_statistic(data, kernel, plan)

    if inference == "highdim":
        out = pvalue_asymptotic_highdim(
            stat, estimate_xi02(data, kernel, stat.meta["case_rowsums"]))
    else:
        # one zeta per class; the controls enter at ratio s, or n0/n1
        try:
            zetas = [estimate_zeta1k(data, kernel, k, method.budget,
                                     spawn_seed(seed, 7, k) if k > 1
                                     else spawn_seed(seed, 6 - k), basis=method.xi_basis)
                     for k in range(data.n_classes)]
            var = multi_asymptotic_variance(kernel.block_orders, data.counts[1:], zetas,
                                            s=stat.meta["s"])
        except DegenerateDataError as exc:
            if method.inference != "auto":
                raise
            # too few rows for a zeta, or fully separated data that zeroes
            # them; the permutation null still applies
            warnings.append(f"no projection-variance estimate ({exc}); fell back "
                            "to the permutation test")
            out = pvalue_permutation(grouped, kernel, method.B, seed, plan)
            return _finish(out, s, method.B, warnings, plan)
        out = pvalue_asymptotic_first(stat, var)
        out = replace(out, metadata={**out.metadata, "zetas": zetas})

    if stat.meta.get("budgeted"):
        warnings.append(
            "statistic used a budgeted subsample of control blocks "
            f"(budget {stat.meta['budget']})"
        )
    return _finish(out, s, None, warnings, plan)


def _finish(out: TestOutcome, s, B, warnings: list, plan) -> TestOutcome:
    """The outcome with the run context; a plan's redraws are reported
    here, once, whichever null ran."""
    attempts = plan and plan.attempts
    if (attempts or 1) > 1:
        warnings.insert(0, f"subsample plan needed {attempts} draws")
    meta = {**out.metadata, "s": s, "B": B, "plan_attempts": attempts,
            "warnings": warnings}
    return replace(out, metadata=meta)
