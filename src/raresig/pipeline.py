"""One independence test on a labeled sample: :func:`run_test`.

The function owns the procedure's decision tree.  The statistic is the
full-sample rescaled one (``rit``) or the boosted one on Bernoulli-thinned
controls (``bit``).  The null is the first-order normal null with xi01
(plus xi10/s under ``bit``), the high-dimensional normal null with xi02,
or label permutation; ``auto`` takes the first for first-order kernels
and permutation otherwise, and falls back to permutation when the
first-order variance estimate vanishes.  The multi-class kernel uses the
zeta_k variances.  Both the command line and the Monte Carlo harness
call it.

Random streams derived from ``seed``: ``(seed, 1)`` the subsample plan
(under every null), ``(seed, 5)`` xi01, ``(seed, 6)`` xi10, ``(seed, 7, k)``
zeta_k, ``(seed, 2, b)`` permutation b.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace

from .data import LabeledSample, group_by_label
from .engine import compute_rit
from .errors import DegenerateDataError, ValidationError
from .inference import (
    TestOutcome,
    _checked_pair_projection,
    _condition_ratio_from,
    _two_sided_p,
    _xi02_from,
    estimate_xi01,
    estimate_xi10,
    pvalue_asymptotic_first,
    pvalue_asymptotic_highdim,
    pvalue_permutation,
)
from .kernels import kernel_from_name
from .multiclass import (
    MultiClassSpec,
    compute_multi_bit,
    compute_multi_rit,
    estimate_zeta1k,
    multi_asymptotic_variance,
)
from .rng import spawn_seed
from .subsample import compute_bit, draw_subsample, thin_controls

__all__ = ["MethodConfig", "run_test"]


@dataclass(frozen=True)
class MethodConfig:
    """One (statistic, inference) combination.

    ``mode`` is ``rit`` or ``bit``; ``classical`` (the pooled baseline)
    is only meaningful to the Monte Carlo harness.  ``budget`` caps the
    Monte Carlo tuples per point in the projection-variance estimates;
    ``xi_basis`` picks the points xi01 is evaluated at (see
    :func:`raresig.inference.estimate_xi01`).
    """

    kernel: str = "kendall"
    mode: str = "rit"  # rit | bit | classical
    s: int | None = None
    inference: str = "auto"  # auto | asymptotic | permutation | highdim
    B: int = 199
    budget: int = 2000
    xi_basis: str = "controls"
    kernel_params: dict = field(default_factory=dict)

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
    (permutation only, else None) and ``warnings``: plan redraws, the
    auto fallback, the high-dimensional condition ratio, and a budgeted
    statistic.
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

    warnings: list = []
    if inference == "permutation":
        out = pvalue_permutation(sample, kernel, method.B, seed, s=s)
        return _finish(out, s, method.B, warnings)

    grouped = group_by_label(sample)
    plan = None
    if s is not None:
        plan = draw_subsample(grouped, s, spawn_seed(seed, 1), kernel.m0)
        if plan.attempts > 1:
            warnings.append(f"subsample plan needed {plan.attempts} draws")
    multiclass = kernel.kind == "multi_kendall"
    if plan is None:
        stat = (compute_multi_rit if multiclass else compute_rit)(grouped, kernel)
    else:
        stat = (compute_multi_bit if multiclass else compute_bit)(grouped, kernel, plan)
    # binary variance estimates see the kept controls only; the zeta_k
    # estimates use every row
    est_data = grouped if plan is None or multiclass else thin_controls(grouped, plan)

    if inference == "highdim":
        h = _checked_pair_projection(est_data, kernel, "controls")
        ratio = _condition_ratio_from(h)
        warnings.append(
            f"high-dimensional normality diagnostic ratio {ratio:.3g} "
            "(values near zero support the normal null)"
        )
        out = pvalue_asymptotic_highdim(stat, _xi02_from(h))
    else:
        if multiclass:
            # the control-class zeta only enters under subsampling
            zetas = [
                estimate_zeta1k(
                    grouped, kernel, None, k, method.budget, spawn_seed(seed, 7, k)
                )
                if k or plan is not None
                else None
                for k in range(grouped.n_classes)
            ]
            mspec = MultiClassSpec.from_grouped(grouped, kernel.block_orders)
            degenerate = False
            try:
                var = multi_asymptotic_variance(mspec, zetas, s=s)
            except DegenerateDataError:
                if method.inference != "auto":
                    raise
                degenerate = True
        else:
            xi01 = estimate_xi01(
                est_data, kernel, method.budget, spawn_seed(seed, 5),
                basis=method.xi_basis,
            )
            degenerate = xi01 <= 0
        if method.inference == "auto" and degenerate:
            # fully separated data degenerates the plug-in variance;
            # the permutation null still applies
            warnings.append(
                "projection-variance estimate is zero; fell back to the "
                "permutation test"
            )
            out = pvalue_permutation(sample, kernel, method.B, seed, s=s)
            return _finish(out, s, method.B, warnings)
        if multiclass:
            scaled = math.sqrt(stat.n1) * stat.value
            p = _two_sided_p(abs(scaled) / math.sqrt(var))
            meta = {"kernel": kernel.kind, "n0": stat.n0, "n1": stat.n1, "zetas": zetas}
            out = TestOutcome(stat.value, scaled, var, p, "asymptotic_first", meta)
        else:
            xi10 = None
            if plan is not None:
                xi10 = estimate_xi10(est_data, kernel, method.budget, spawn_seed(seed, 6))
            out = pvalue_asymptotic_first(stat, xi01, s=s, xi10=xi10)

    if stat.meta.get("budgeted"):
        warnings.append(
            "statistic used a budgeted subsample of control blocks "
            f"(budget {stat.meta['budget']})"
        )
    return _finish(out, s, None, warnings)


def _finish(out: TestOutcome, s, B, warnings: list) -> TestOutcome:
    meta = {**out.metadata, "s": s, "B": B, "warnings": warnings}
    return replace(out, metadata=meta)
