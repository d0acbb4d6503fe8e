"""The three workloads: inputs made from the seed, the op mix, and the
output checks applied to every op.

An op is one call into raresig through a public entry point:
``raresig.cli.main`` (one ``raresig test`` run on a CSV) or
``raresig.simulate.run_erp`` (one Monte Carlo replication, threads=1).
``Op.call`` is the timed part; ``Op.check`` runs after the clock stops
and returns a list of problems (empty when the output is correct).

Reference statistics are computed here, independently of raresig, from
the arrays written to the CSV (written with 17 significant digits, so
the CLI parses back exactly the same numbers).
"""

from __future__ import annotations

import contextlib
import io
import json
import math
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

ALPHA = 0.05
# Deterministic statistics (sign counts, group means, pairwise sums) must
# match the reference to this relative tolerance.  The pairwise sums
# run over ~4e6 terms in another order and the statistic cancels three
# terms of ~10 down to ~0.1, which costs a few digits; 1e-9 leaves
# three orders of margin.
RTOL = 1e-9
# The budgeted imbalanced-Kendall statistic averages 100,000 random
# control pairs; the reference averages 200,000 others.  Their standard
# errors are ~0.002 each, so 0.02 is about seven standard errors.
BUDGETED_ATOL = 0.02
BUDGETED_REF_PAIRS = 200_000

# Sizes per scale.  "full" is the benchmark; "toy" is the smoke run used
# by the benchmark's own tests and by the warm-up before timing.
# Every op must reject, so the effects are above the family defaults
# (0.3 first order, 0.4 second order), where a test misses too often:
# dcov BIT with s=20, n1=50, p=50 rejected in 51 of 60 replications at
# 0.4 (B=19) and in 60 of 60 at 0.6.  Effects do not change op cost.
SCALES = {
    "full": {
        "fo_n": 200_000, "fo_n1": 200, "fo_multi": (200, 400), "fo_effect": 0.6,
        "so_n": 2_050, "so_n1": 50, "so_p": 50, "so_effect": 0.6, "so_B": 999,
        "so_s": 20,
        "mc_n": 10_000, "mc_n1": 50, "mc_p": 50, "mc_effect": 0.6, "mc_s": 20,
        "mc_B": 199,
    },
    "toy": {
        "fo_n": 5_000, "fo_n1": 50, "fo_multi": (50, 100), "fo_effect": 1.0,
        "so_n": 420, "so_n1": 20, "so_p": 10, "so_effect": 1.5, "so_B": 99,
        "so_s": 5,
        "mc_n": 600, "mc_n1": 20, "mc_p": 10, "mc_effect": 1.5, "mc_s": 5,
        "mc_B": 19,
    },
}


# ---------------------------------------------------------------------------
# independent references
# ---------------------------------------------------------------------------


def sign_mean(cases: np.ndarray, controls: np.ndarray) -> float:
    """Mean of sgn(case - control) over all pairs, by counting each case's
    position among the sorted controls."""
    ctrl = np.sort(controls)
    below = np.searchsorted(ctrl, cases, side="left").sum(dtype=np.int64)
    above = ctrl.size * cases.size - np.searchsorted(ctrl, cases, side="right").sum(
        dtype=np.int64
    )
    return (int(below) - int(above)) / (ctrl.size * cases.size)


def pair_mean_sign(cases: np.ndarray, controls: np.ndarray, rng) -> float:
    """Monte Carlo mean of sgn(case - mean of two distinct controls)."""
    n0 = controls.size
    i = rng.integers(0, n0, BUDGETED_REF_PAIRS)
    j = rng.integers(0, n0 - 1, BUDGETED_REF_PAIRS)
    j += j >= i
    return sign_mean(cases, (controls[i] + controls[j]) / 2.0)


def _block_rows(n: int, size: int = 256):
    for lo in range(0, n, size):
        yield lo, min(lo + size, n)


def pairwise_rit(x: np.ndarray, labels: np.ndarray, kind: str, c: float = 1.0) -> float:
    """Rescaled dcov/ipcov statistic from dense blocks of the pooled
    distance (or angle) matrix:
    4 S01/(n0 n1) - 2 S00/(n0 (n0-1)) - 2 S11/(n1 (n1-1)),
    with S00, S11 over ordered within-class pairs i != j."""
    sq = np.einsum("ij,ij->i", x, x)
    case = labels == 1
    w1 = case.astype(np.float64)
    w0 = 1.0 - w1
    parts = {"00": [], "01": [], "11": []}
    for lo, hi in _block_rows(x.shape[0]):
        gram = x[lo:hi] @ x.T
        if kind == "dcov":
            block = np.sqrt(np.maximum(sq[lo:hi, None] + sq[None, :] - 2.0 * gram, 0.0))
        else:
            cos = (c + gram) / np.sqrt((c + sq[lo:hi, None]) * (c + sq[None, :]))
            block = np.arccos(np.clip(cos, -1.0, 1.0))
        block[np.arange(hi - lo), np.arange(lo, hi)] = 0.0
        to_ctrl, to_case = block @ w0, block @ w1
        rows_case = case[lo:hi]
        parts["00"].append(float(to_ctrl[~rows_case].sum()))
        parts["01"].append(float(to_case[~rows_case].sum()))
        parts["11"].append(float(to_case[rows_case].sum()))
    s00, s01, s11 = (math.fsum(parts[k]) for k in ("00", "01", "11"))
    n1 = int(case.sum())
    n0 = labels.size - n1
    return 4.0 * s01 / (n0 * n1) - 2.0 * s00 / (n0 * (n0 - 1)) - 2.0 * s11 / (n1 * (n1 - 1))


# ---------------------------------------------------------------------------
# output checks
# ---------------------------------------------------------------------------


def _reject_constant(name: str):
    raise ValueError(f"non-finite JSON constant {name}")


def check_pvalue(p, B: int | None) -> list:
    """p must be a finite number in (0, 1], reject at ALPHA (every
    workload draws from an alternative), and, for a permutation test,
    lie on the (1 + k) / (B + 1) grid."""
    if not isinstance(p, (int, float)) or not math.isfinite(p) or not 0.0 < p <= 1.0:
        return [f"p-value {p!r} outside (0, 1]"]
    problems = []
    if B is not None:
        k1 = p * (B + 1)
        if abs(k1 - round(k1)) > 1e-6 or not 1 <= round(k1) <= B + 1:
            problems.append(f"permutation p-value {p!r} is off the (1+k)/({B}+1) grid")
    if p > ALPHA:
        problems.append(f"p-value {p:.4g} does not reject the alternative at {ALPHA}")
    return problems


@dataclass
class Expect:
    """What one CLI op must print."""

    method: str
    n0: int
    n1: int
    B: int | None = None
    ref: float | None = None  # reference statistic
    atol: float = 0.0  # absolute tolerance; RTOL applies when 0


def check_cli(rc, text: str, exp: Expect) -> list:
    if rc != 0:
        return [f"exit code {rc}"]
    try:
        out = json.loads(text, parse_constant=_reject_constant)
    except ValueError as exc:
        return [f"stdout is not strict JSON: {exc}"]
    problems = check_pvalue(out.get("p_value"), exp.B)
    if out.get("method") != exp.method:
        problems.append(f"method {out.get('method')!r}, expected {exp.method!r}")
    if (out.get("n0"), out.get("n1")) != (exp.n0, exp.n1):
        problems.append(f"class counts {out.get('n0')}/{out.get('n1')}, "
                        f"expected {exp.n0}/{exp.n1}")
    stat = out.get("statistic")
    if exp.ref is not None:
        tol = exp.atol or RTOL * abs(exp.ref)
        if not isinstance(stat, float) or not abs(stat - exp.ref) <= tol:
            problems.append(f"statistic {stat!r} differs from reference {exp.ref!r} "
                            f"by more than {tol:.3g}")
    return problems


# ---------------------------------------------------------------------------
# ops
# ---------------------------------------------------------------------------


@dataclass
class CliOp:
    """One ``raresig test`` invocation, run in-process."""

    label: str
    argv: list
    expect: Expect
    cli: object = field(repr=False)

    def call(self):
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            rc = self.cli.main(self.argv)
        return rc, out.getvalue(), err.getvalue()

    def check(self, raw) -> list:
        rc, text, err = raw
        problems = check_cli(rc, text, self.expect)
        if problems and err.strip():
            problems.append(f"stderr: {err.strip()[-300:]}")
        return problems


@dataclass
class ReplicationOp:
    """One Monte Carlo replication through ``run_erp`` (M=1, threads=1).

    Each call runs the next replication seed, so every op sees fresh
    data.  The p-value is read by a pass-through wrapper around
    ``simulate.evaluate_replication`` (see :func:`capture_pvalues`).
    """

    label: str
    simulate: object = field(repr=False)
    scenario_kw: dict
    method_kw: dict
    seed: int
    captured: list
    calls: int = 0

    def call(self):
        sim = self.simulate
        scenario = sim.ScenarioSpec(seed=self.seed * 100_003 + self.calls, **self.scenario_kw)
        self.calls += 1
        self.captured.clear()
        report = sim.run_erp(scenario, sim.MethodConfig(**self.method_kw), 1)
        return report, list(self.captured)

    def check(self, raw) -> list:
        report, pvalues = raw
        if len(pvalues) != 1:
            return [f"expected one replication p-value, saw {len(pvalues)}"]
        problems = check_pvalue(pvalues[0], self.method_kw["B"])
        if report.rejected != int(pvalues[0] <= ALPHA):
            problems.append(f"run_erp counted {report.rejected} rejections for "
                            f"p = {pvalues[0]!r}")
        return problems


def capture_pvalues(simulate) -> list:
    """Make ``simulate.evaluate_replication`` append each p-value it
    returns to the returned list (``run_erp`` looks it up there)."""
    if hasattr(simulate.evaluate_replication, "captured"):
        return simulate.evaluate_replication.captured
    captured: list = []
    original = simulate.evaluate_replication

    def evaluate_replication(*args, **kwargs):
        p = original(*args, **kwargs)
        captured.append(p)
        return p

    evaluate_replication.captured = captured
    simulate.evaluate_replication = evaluate_replication
    return captured


# ---------------------------------------------------------------------------
# inputs
# ---------------------------------------------------------------------------


def write_csv(path: Path, x: np.ndarray, labels: np.ndarray) -> None:
    header = ",".join([f"x{j}" for j in range(x.shape[1])] + ["label"])
    fmt = ["%.17g"] * x.shape[1] + ["%d"]
    np.savetxt(path, np.column_stack([x, labels]), delimiter=",", fmt=fmt,
               header=header, comments="")


def _cli_op(cli, label, path, args, expect):
    return CliOp(label, ["test", "--input", str(path), *args], expect, cli)


def csv_first_order(rs, workdir: Path, seed: int, scale: dict) -> list:
    """200k-row p=1 CSVs from first_order_eg1; four first-order tests."""
    sim = rs.simulate
    n, n1 = scale["fo_n"], scale["fo_n1"]
    sample = sim.generate(sim.ScenarioSpec("first_order_eg1", n=n, n1=n1,
                                           effect=scale["fo_effect"], seed=seed), 0)
    x, y = np.array(sample.features), np.array(sample.labels)
    binary = workdir / "first_order.csv"
    write_csv(binary, x, y)

    # 3-class file: the same family with n_a + n_b cases, n_b of them relabelled 2
    n_a, n_b = scale["fo_multi"]
    multi = sim.generate(sim.ScenarioSpec("first_order_eg1", n=n, n1=n_a + n_b,
                                          effect=scale["fo_effect"], seed=seed), 1)
    xm, ym = np.array(multi.features), np.array(multi.labels)
    rng = np.random.default_rng([seed, 3])
    ym[rng.choice(np.flatnonzero(ym == 1), size=n_b, replace=False)] = 2
    three = workdir / "first_order_3class.csv"
    write_csv(three, xm, ym)

    x0, x1 = x[y == 0, 0], x[y == 1, 0]
    s = 10
    multi_ref = sum(sign_mean(xm[ym == k, 0], xm[ym == 0, 0]) for k in (1, 2))
    seed_arg = ["--seed", str(seed)]
    cli = rs.cli
    return [
        _cli_op(cli, "kendall_rit_asymptotic", binary,
                ["--kernel", "kendall", "--inference", "asymptotic", *seed_arg],
                Expect("asymptotic_first", n - n1, n1, ref=sign_mean(x1, x0))),
        # BIT statistic = (mean of cases - mean of kept controls) * realized/(s n1):
        # both factors are within ~0.03 of the RIT value; the tolerance is ~8 sd.
        _cli_op(cli, "pearson_bit_s10", binary,
                ["--kernel", "pearson", "--method", "bit", "--s", str(s), *seed_arg],
                Expect("asymptotic_first", n - n1, n1, ref=float(x1.mean() - x0.mean()),
                       atol=0.2 * abs(float(x1.mean() - x0.mean())) + 8 / math.sqrt(s * n1))),
        _cli_op(cli, "imbalanced_kendall_m2", binary,
                ["--kernel", "imbalanced-kendall", "--m", "2", *seed_arg],
                Expect("asymptotic_first", n - n1, n1,
                       ref=pair_mean_sign(x1, x0, np.random.default_rng([seed, 2])),
                       atol=BUDGETED_ATOL)),
        _cli_op(cli, "multi_kendall_rit", three,
                ["--kernel", "multi-kendall", *seed_arg],
                Expect("asymptotic_first", n - n_a - n_b, n_a, ref=multi_ref)),
    ]


def csv_pairwise(rs, workdir: Path, seed: int, scale: dict) -> list:
    """2,050 x 50 CSV from second_order_eg1; permutation and highdim tests."""
    sim = rs.simulate
    n, n1, B, s = scale["so_n"], scale["so_n1"], scale["so_B"], scale["so_s"]
    sample = sim.generate(sim.ScenarioSpec("second_order_eg1", n=n, n1=n1, p=scale["so_p"],
                                           effect=scale["so_effect"], seed=seed), 0)
    x, y = np.array(sample.features), np.array(sample.labels)
    path = workdir / "pairwise.csv"
    write_csv(path, x, y)
    dcov, ipcov = pairwise_rit(x, y, "dcov"), pairwise_rit(x, y, "ipcov")
    n0 = n - n1
    perm = ["--inference", "permutation", "--B", str(B), "--seed", str(seed)]
    highdim = ["--inference", "highdim", "--seed", str(seed)]
    cli = rs.cli
    return [
        _cli_op(cli, "dcov_rit_perm", path, ["--kernel", "dcov", *perm],
                Expect("permutation", n0, n1, B=B, ref=dcov)),
        _cli_op(cli, "dcov_bit_perm", path,
                ["--kernel", "dcov", "--method", "bit", "--s", str(s), *perm],
                Expect("permutation", n0, n1, B=B)),
        _cli_op(cli, "ipcov_rit_perm", path, ["--kernel", "ipcov", *perm],
                Expect("permutation", n0, n1, B=B, ref=ipcov)),
        _cli_op(cli, "dcov_highdim", path, ["--kernel", "dcov", *highdim],
                Expect("asymptotic_highdim", n0, n1, ref=dcov)),
        _cli_op(cli, "ipcov_highdim", path, ["--kernel", "ipcov", *highdim],
                Expect("asymptotic_highdim", n0, n1, ref=ipcov)),
    ]


def mc_thinned_perm(rs, workdir: Path, seed: int, scale: dict) -> list:
    """Replications of second_order_eg1, dcov BIT permutation (no CSV)."""
    captured = capture_pvalues(rs.simulate)
    return [ReplicationOp(
        "dcov_bit_perm_replication",
        rs.simulate,
        {"family": "second_order_eg1", "n": scale["mc_n"], "n1": scale["mc_n1"],
         "p": scale["mc_p"], "effect": scale["mc_effect"], "M": 1, "alpha": ALPHA},
        {"kernel": "dcov", "mode": "bit", "s": scale["mc_s"], "inference": "permutation",
         "B": scale["mc_B"]},
        seed,
        captured,
    )]


WORKLOADS = {
    "csv_first_order": csv_first_order,
    "csv_pairwise": csv_pairwise,
    "mc_thinned_perm": mc_thinned_perm,
}
