"""Monte Carlo harness: scenario generators, empirical rejection
probabilities, the imbalance phenomenon sweep, and runtime benchmarks.

``first_order_eg1``/``eg2`` are the designs ``second_order_eg1``/``eg2``
at p = 1, and only the ``second_order`` families take p > 1.

Replications are seeded individually (``spawn_rng(seed, rep, domain)``),
so an empirical rejection probability is a pure function of the
scenario and method configuration: the same numbers come out for any
worker count or execution order.
"""

from __future__ import annotations

import math
import os
import time
from dataclasses import dataclass, field, replace
from functools import lru_cache

import numpy as np

from ._accel import _block_rows
from .data import LabeledSample, group_by_label
from .engine import _classical_statistic, compute_classical, compute_rit
from .errors import ValidationError
from .inference import _permutation_stats
from .kernels import kernel_from_name
from .multiclass import _normal_sf
from .pipeline import MethodConfig, run_test
from .rng import spawn_rng, spawn_seed
from .subsample import compute_bit, draw_subsample

__all__ = [
    "ScenarioSpec",
    "MethodConfig",
    "ErpReport",
    "generate",
    "run_erp",
    "figure1_phenomenon",
    "benchmark_complexity",
    "loglog_slope",
    "classical_pvalue",
]

DEFAULT_EFFECTS = {
    "intro_fixed_p": 0.2,
    "intro_decreasing_p": 0.2,
    "first_order_eg1": 0.3,
    "first_order_eg2": 0.3,
    "second_order_eg1": 0.4,
    "second_order_eg2": 0.15,
    "mixture_local": 1.0,  # location of the contaminating component
}


@dataclass(frozen=True)
class ScenarioSpec:
    """Synthetic-data configuration for one Monte Carlo study."""

    family: str
    n: int
    n1: int
    p: int = 1
    effect: float | None = None
    params: dict = field(default_factory=dict)
    M: int = 1000
    alpha: float = 0.05
    seed: int = 0

    def __post_init__(self) -> None:
        if self.family not in DEFAULT_EFFECTS:
            raise ValidationError(f"unknown scenario family {self.family!r}")
        if not 1 <= self.n1 <= self.n or min(self.p, self.M) < 1:
            raise ValidationError("need 1 <= n1 <= n, p >= 1 and M >= 1")
        if self.p != 1 and not self.family.startswith("second_order"):
            raise ValidationError(f"{self.family} generates one feature: need p = 1")
        if not 0 < self.alpha < 1:
            raise ValidationError("alpha must lie in (0, 1)")
        p1, rho = self.params.get("p1", 10), self.params.get("rho", 0.5)
        if not (isinstance(p1, (int, np.integer)) and p1 >= 0 and -1 < rho < 1):
            raise ValidationError("need an integer p1 >= 0 and rho in (-1, 1)")

    @property
    def effect_size(self) -> float:
        return DEFAULT_EFFECTS[self.family] if self.effect is None else self.effect

    def null(self) -> "ScenarioSpec":
        """The matching no-dependence scenario (zero effect)."""
        return replace(self, effect=0.0)


@lru_cache(maxsize=8)
def _ar1_cholesky(p: int, rho: float = 0.5) -> np.ndarray:
    idx = np.arange(p)
    return np.linalg.cholesky(rho ** np.abs(idx[:, None] - idx[None, :]))


def _ar1_features(spec: ScenarioSpec, rng) -> np.ndarray:
    """n x p normals times the AR(1) factor, in place in blocks of about
    ``_accel._BLOCK_BYTES``, the last taking the remainder (a small product
    sums in another order): the whole product's bits, checked to p = 256."""
    x = rng.standard_normal((spec.n, spec.p))
    chol, step = _ar1_cholesky(spec.p, spec.params.get("rho", 0.5)), _block_rows(spec.p)
    los = range(0, max(spec.n - step, 0) + 1, step)
    for lo, hi in zip(los, [*los[1:], spec.n]):
        x[lo:hi] = x[lo:hi] @ chol.T
    return x


def _exact_count_labels(n: int, n1: int, rng) -> np.ndarray:
    labels = np.zeros(n, dtype=np.int64)
    labels[rng.choice(n, size=n1, replace=False)] = 1
    return labels


def _adjust_to_count(labels: np.ndarray, n1: int, rng) -> np.ndarray:
    """Flip uniformly chosen majority-side labels until exactly n1 cases
    remain; the flip set is a deterministic function of the stream."""
    labels = labels.copy()
    cases = int(labels.sum())
    if cases > n1:
        drop = rng.choice(np.flatnonzero(labels == 1), size=cases - n1, replace=False)
        labels[drop] = 0
    elif cases < n1:
        add = rng.choice(np.flatnonzero(labels == 0), size=n1 - cases, replace=False)
        labels[add] = 1
    return labels


def _gen_intro(spec: ScenarioSpec, rng) -> LabeledSample:
    # cases N(effect, 1), controls N(0, 1); balanced Bernoulli labels
    # under intro_fixed_p, exactly n1 cases under intro_decreasing_p
    n = spec.n
    if spec.family == "intro_fixed_p":
        labels = (rng.random(n) < 0.5).astype(np.int64)
        if labels.sum() == 0:  # vanishing probability, keep the sample valid
            labels[rng.integers(n)] = 1
        elif labels.sum() == n:
            labels[rng.integers(n)] = 0
    else:
        labels = _exact_count_labels(n, spec.n1, rng)
    x = rng.standard_normal(n) + spec.effect_size * (labels == 1)
    return LabeledSample(x[:, None], labels)


def _gen_highdim_shift(spec: ScenarioSpec, rng) -> LabeledSample:
    p1 = spec.params.get("p1", 10)
    labels = _exact_count_labels(spec.n, spec.n1, rng)
    x = _ar1_features(spec, rng)
    # the effect on the first p1 columns of the control rows
    np.add(x[:, :p1], spec.effect_size, out=x[:, :p1], where=(labels == 0)[:, None])
    return LabeledSample(x, labels)


def _gen_highdim_logistic(spec: ScenarioSpec, rng) -> LabeledSample:
    n, n1 = spec.n, spec.n1
    x = _ar1_features(spec, rng)
    beta = np.zeros(spec.p)
    beta[: spec.params.get("p1", 10)] = spec.effect_size
    beta0 = math.log(n1 / (n - n1))
    prob = 1.0 / (1.0 + np.exp(-(beta0 + x @ beta)))
    labels = (rng.random(n) < prob).astype(np.int64)
    labels = _adjust_to_count(labels, n1, rng)
    return LabeledSample(x, labels)


def _gen_mixture(spec: ScenarioSpec, rng) -> LabeledSample:
    n, n1 = spec.n, spec.n1
    delta = spec.params.get("delta")
    if delta is None:
        delta0 = spec.params.get("delta0", 0.0)
        delta = delta0 / math.sqrt(n1)
    if not 0.0 <= delta <= 1.0:
        raise ValidationError(f"mixture weight {delta} outside [0, 1]")
    labels = _exact_count_labels(n, n1, rng)
    x = rng.standard_normal(n)
    case_rows = np.flatnonzero(labels == 1)
    contaminated = case_rows[rng.random(n1) < delta]
    x[contaminated] += spec.effect_size
    return LabeledSample(x[:, None], labels)


def generate(spec: ScenarioSpec, rep: int) -> LabeledSample:
    """Replication ``rep`` of the scenario (deterministic in seed, rep)."""
    rng = spawn_rng(spec.seed, rep, 0)
    fam = spec.family
    if fam.startswith("intro"):
        return _gen_intro(spec, rng)
    if fam.endswith("eg1"):
        return _gen_highdim_shift(spec, rng)
    if fam.endswith("eg2"):
        return _gen_highdim_logistic(spec, rng)
    return _gen_mixture(spec, rng)


# ---------------------------------------------------------------------------
# single-replication evaluation
# ---------------------------------------------------------------------------


def classical_pvalue(
    sample: LabeledSample, kind: str, B: int = 199, seed: int = 0
) -> float:
    """P-value for the classical pooled statistic.

    Pearson and the pooled sign statistic use their normal nulls (the
    latter with plug-in class ratio); the pairwise statistics use label
    permutation.
    """
    n = sample.n
    if kind == "pearson":
        r = compute_classical(sample, "pearson")
        return 2 * _normal_sf(abs(r) * math.sqrt(n))
    if kind == "kendall":
        tau = compute_classical(sample, "kendall")
        p1 = float((sample.labels == 1).mean())
        sd = math.sqrt(4.0 * p1 * (1 - p1) / 3.0)
        return 2 * _normal_sf(abs(tau) * math.sqrt(n) / sd)
    if kind in ("dcov", "ipcov"):
        stats = np.abs(
            _permutation_stats(_classical_statistic(sample, kind), sample.labels, B, seed)
        )
        return (1 + int((stats[1:] >= stats[0]).sum())) / (B + 1)
    raise ValidationError(f"unknown classical statistic {kind!r}")


def evaluate_replication(
    sample: LabeledSample, method: MethodConfig, seed: int
) -> float:
    """P-value of the configured test on one generated sample."""
    if method.mode == "classical":
        return classical_pvalue(sample, method.kernel, method.B, seed)
    return run_test(sample, method, seed).p_value


# ---------------------------------------------------------------------------
# empirical rejection probability
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ErpReport:
    """Empirical rejection probability of one method on one scenario."""

    scenario: ScenarioSpec
    method: MethodConfig
    erp: float
    mc_se: float
    reps: int
    rejected: int
    seconds_total: float

    def row(self) -> dict:
        r = {
            "family": self.scenario.family,
            "n": self.scenario.n,
            "n1": self.scenario.n1,
            "p": self.scenario.p,
            "effect": self.scenario.effect_size,
            "M": self.reps,
            "alpha": self.scenario.alpha,
            "method": self.method.label(),
            "erp": self.erp,
            "mc_se": self.mc_se,
            "seconds_total": self.seconds_total,
        }
        return r


def _erp_chunk(args) -> int:
    scenario, method, lo, hi = args
    rejected = 0
    for rep in range(lo, hi):
        sample = generate(scenario, rep)
        p = evaluate_replication(sample, method, spawn_seed(scenario.seed, rep, 9))
        rejected += p <= scenario.alpha
    return rejected


def run_erp(
    scenario: ScenarioSpec, method: MethodConfig, threads: int = 1
) -> ErpReport:
    """Monte Carlo rejection rate at the scenario's level.

    Per-replication seeding makes the count independent of ``threads``.
    At most ``min(threads, M, os.cpu_count())`` worker processes run.
    """
    if threads < 1:
        raise ValidationError("threads must be at least 1")
    t0 = time.perf_counter()
    m = scenario.M
    workers = min(threads, m, os.cpu_count() or 1)
    if workers <= 1:
        rejected = _erp_chunk((scenario, method, 0, m))
    else:
        from concurrent.futures import ProcessPoolExecutor
        bounds = np.linspace(0, m, workers + 1).astype(int)
        chunks = [
            (scenario, method, int(lo), int(hi))
            for lo, hi in zip(bounds[:-1], bounds[1:])
        ]
        with ProcessPoolExecutor(max_workers=workers) as pool:
            rejected = sum(pool.map(_erp_chunk, chunks))
    erp = rejected / m
    return ErpReport(
        scenario,
        method,
        erp,
        math.sqrt(erp * (1 - erp) / m),
        m,
        rejected,
        time.perf_counter() - t0,
    )


# ---------------------------------------------------------------------------
# the imbalance phenomenon (classical tests across sample-size grids)
# ---------------------------------------------------------------------------


def figure1_phenomenon(
    fixed_grid=(200, 500, 1000, 2000),
    decreasing_grid=(200, 500, 1000, 2000, 5000, 10000, 20000),
    n1: int = 100,
    effect: float = 0.2,
    M: int = 500,
    alpha: float = 0.05,
    seed: int = 0,
) -> list:
    """Classical Pearson and sign-statistic behaviour on two designs:
    balanced labels at every n, versus a fixed case count n1 with n
    growing.  Returns tidy rows of mean statistic and power per grid
    point."""
    rows = []
    for family, grid in (
        ("intro_fixed_p", fixed_grid),
        ("intro_decreasing_p", decreasing_grid),
    ):
        for n in grid:
            spec = ScenarioSpec(
                family, n=n, n1=min(n1, n // 2) if family == "intro_decreasing_p" else n // 2,
                effect=effect, M=M, alpha=alpha, seed=spawn_seed(seed, n),
            )
            acc = {
                kind: {"stat": 0.0, "abs": 0.0, "rej": 0}
                for kind in ("pearson", "kendall")
            }
            for rep in range(M):
                sample = generate(spec, rep)
                for kind in ("pearson", "kendall"):
                    value = compute_classical(sample, kind)
                    p = classical_pvalue(sample, kind)
                    acc[kind]["stat"] += value
                    acc[kind]["abs"] += abs(value)
                    acc[kind]["rej"] += p <= alpha
            for kind in ("pearson", "kendall"):
                rows.append(
                    {
                        "scenario": family,
                        "n": n,
                        "n1": spec.n1,
                        "statistic": kind,
                        "mean_stat": acc[kind]["stat"] / M,
                        "mean_abs_stat": acc[kind]["abs"] / M,
                        "power": acc[kind]["rej"] / M,
                    }
                )
    return rows


# ---------------------------------------------------------------------------
# runtime benchmarks
# ---------------------------------------------------------------------------


def _cpu_times(calls, trials: int) -> list:
    """Least CPU time of each of ``calls`` over ``trials`` rounds that run
    every call once: other processes' time does not count, and a slow
    spell of the host slows one round of every size, which the minimum
    then skips, not every trial of one size."""
    for fn in calls:
        fn()  # warm-up (allocator, caches)
    best = [math.inf] * len(calls)
    for _ in range(trials):
        for k, fn in enumerate(calls):
            t0 = time.process_time()
            fn()
            best[k] = min(best[k], time.process_time() - t0)
    return best


def loglog_slope(xs, ts) -> float:
    return float(np.polyfit(np.log(np.asarray(xs, float)),
                            np.log(np.asarray(ts, float)), 1)[0])


def benchmark_complexity(
    kernel_name: str,
    sizes,
    mode: str = "rit",
    n1: int | None = None,
    s_values=None,
    trials: int = 5,
    p: int | None = None,
    seed: int = 0,
) -> list:
    """CPU times of the statistic across a size grid (the least of
    ``trials`` calls, see :func:`_cpu_times`).

    ``mode="rit"`` varies the total sample size; ``mode="bit"`` fixes
    ``n1`` and varies the sampling ratio ``s``.  Absolute times are
    machine-specific; use :func:`loglog_slope` on the returned rows.
    """
    if trials < 1:
        raise ValidationError("trials must be at least 1")
    kernel = kernel_from_name(kernel_name)
    if p is None:
        p = 1 if kernel.order == "first" else 5
    if p < 1 or (mode == "rit" and min(sizes, default=0) < kernel.m0 + kernel.m1):
        raise ValidationError(f"need p >= 1 and sizes >= {kernel.m0 + kernel.m1}")
    rng = spawn_rng(seed)
    calls = []
    if mode == "rit":
        xs = list(sizes)
        for n in sizes:
            n1_local = max(kernel.m1, n // 20)
            labels = np.r_[np.zeros(n - n1_local, np.int64), np.ones(n1_local, np.int64)]
            grouped = group_by_label(LabeledSample(rng.standard_normal((n, p)), labels))
            # a fresh grouping a call, so each gathers and sorts its own rows
            # as compute_bit's kept sample does
            calls.append(lambda g=grouped: compute_rit(replace(g), kernel))
    elif mode == "bit":
        if n1 is None or not s_values or n1 < kernel.m1 or min(s_values) < 2:
            raise ValidationError(f"bit benchmarks need n1 >= {kernel.m1} and s_values >= 2")
        n0 = 2 * max(s_values) * n1
        labels = np.r_[np.zeros(n0, np.int64), np.ones(n1, np.int64)]
        x = rng.standard_normal((n0 + n1, p))
        grouped = group_by_label(LabeledSample(x, labels))
        xs = list(s_values)
        for s in s_values:
            plan = draw_subsample(grouped, s, seed, kernel.m0)
            calls.append(lambda pl=plan: compute_bit(grouped, kernel, pl))
    else:
        raise ValidationError("mode must be 'rit' or 'bit'")
    return [{"kernel": kernel_name, "mode": mode, "x": x, "cpu_seconds": t}
            for x, t in zip(xs, _cpu_times(calls, trials))]
