"""CSV ingestion and the command-line front end.

Subcommands: ``test`` (one independence test on a CSV),
``subsample-plan``, ``select-s`` (three ratio-selection rules),
``power`` (first-order, high-dimensional, local threshold),
``simulate`` (scenario families and table presets), and ``bench``.

stdout carries data (JSON by default, CSV on request), stderr carries
diagnostics.  Exit codes: 0 success, 2 invalid configuration or
arguments, 3 structurally unusable data.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import math
import sys
import time

import numpy as np

from .data import LabeledSample, group_by_label, standardize
from .errors import DegenerateDataError, RaresigError, ValidationError
from .inference import local_power_threshold, power_first_order, power_highdim
from .pipeline import MethodConfig, run_test
from .simulate import (
    ScenarioSpec,
    benchmark_complexity,
    figure1_phenomenon,
    loglog_slope,
    run_erp,
)
from .subsample import (
    draw_subsample,
    select_s_power_floor,
    select_s_power_gap,
    select_s_variance,
)

__all__ = ["ingest_csv", "main"]


# ---------------------------------------------------------------------------
# ingestion
# ---------------------------------------------------------------------------


# labels are stored as int64; a label cell must stay below this
LABEL_LIMIT = 2.0**63


class Ingested(tuple):
    """``(sample, dropped)`` from :func:`ingest_csv`, unpacked as a pair;
    ``reader`` names the body parser that ran, ``"vectorised"`` or
    ``"row-loop"``."""

    def __new__(cls, sample: LabeledSample, dropped: int, reader: str):
        out = super().__new__(cls, (sample, dropped))
        out.reader = reader
        return out


def ingest_csv(path: str, label_col: str, feature_cols=None) -> Ingested:
    """Read a header-first CSV into a labeled sample.

    A row is dropped when it is blank or shorter than the header, or when
    a selected cell is empty, unparseable or (a feature) non-finite; the
    second return value counts them.  A label must parse to a finite
    integer in [0, 2**63), else :class:`ValidationError`; so is a file
    that is not UTF-8 text.

    A clean body (the rules drop no row and raise nothing) is parsed by
    one ``np.loadtxt`` call; any other body is reparsed row by row,
    which defines the rules.  Both give bitwise-equal arrays.
    """
    with open(path, "rb") as fh:
        raw = fh.read()
    lines = []  # the header's lines, read as text from the bytes
    text = io.TextIOWrapper(io.BytesIO(raw), encoding="utf-8", newline="")
    try:
        header = next(csv.reader(lines.append(v) or v for v in iter(text.readline, "")),
                      None)
        start = len("".join(lines).encode("utf-8"))
        records = _records(raw, start)
        body = str(memoryview(raw)[start:], "utf-8")  # decoded once
    except UnicodeDecodeError:
        raise ValidationError(f"{path}: not valid UTF-8 text") from None
    del raw, text
    if not header:
        raise ValidationError(f"{path}: missing header row")
    if label_col not in header:
        raise ValidationError(
            f"label column {label_col!r} not found; available: {', '.join(header)}"
        )
    label_idx = header.index(label_col)
    if feature_cols is None:
        feature_cols = [c for c in header if c != label_col]
    missing = [c for c in feature_cols if c not in header]
    if missing:
        raise ValidationError(f"feature columns not found: {', '.join(missing)}")
    if not feature_cols:
        raise ValidationError("no feature columns selected")
    feat_idx = [header.index(c) for c in feature_cols]

    parsed = _load_clean(path, len(lines), body, records, feat_idx, label_idx,
                         len(header))
    reader_name = "vectorised"
    if parsed is None:
        parsed, reader_name = _parse_blocks(body, feat_idx, label_idx, len(header))
    feats, labels, dropped = parsed
    if not len(labels):
        raise DegenerateDataError(f"{path}: zero usable rows")
    return Ingested(LabeledSample(feats, labels), dropped, reader_name)


def _records(raw: bytes, start: int) -> int:
    """Records in ``raw`` from byte ``start`` on: CR, LF and CRLF each end
    one, as in ``csv`` (no UTF-8 character holds either byte), and so does
    the end of an unterminated last one."""
    a = np.frombuffer(raw, np.uint8)[start:]
    count = int(np.count_nonzero(a == 10)) + int(a.size > 0 and a[-1] not in (10, 13))
    if raw.find(b"\r", start) >= 0:
        cr = a == 13
        count += int(np.count_nonzero(cr)) - int(np.count_nonzero(cr[:-1] & (a[1:] == 10)))
    return count


def _load_clean(source, header_lines: int, body: str, records: int, feat_idx: list,
                label_idx: int, width: int):
    """``(features, labels, 0)`` from one ``np.loadtxt`` pass over the
    ``body`` of ``records`` records that follows the first
    ``header_lines`` lines of ``source`` (a path, or the body's own
    lines), or None when :func:`_parse_rows` would drop a row or raise.

    ``loadtxt`` skips blank lines, so the parsed rows must number the
    body's records.  It rejects a row that lacks a used column, so the
    last header column is always used (and ignored) to catch short rows.
    Reading a path is faster than reading ``body``.
    """
    if body[:1] in "\r\n" and len(body) == body.count("\r") + body.count("\n"):
        return None  # no record, or blank ones only (counted, not copied)
    cols = feat_idx + [label_idx]
    converters = None
    if width - 1 not in cols:
        cols.append(width - 1)
        converters = {width - 1: lambda _: 0.0}
    try:
        table = np.loadtxt(
            source, delimiter=",", skiprows=header_lines, usecols=cols,
            comments=None, quotechar='"', converters=converters,
            dtype=np.float64, ndmin=2, encoding="utf-8",
        )
    except ValueError:
        return None
    p = len(feat_idx)
    feats, labels = table[:, :p], table[:, p]
    if (table.shape[0] != records or not np.isfinite(feats).all()
            or not ((labels >= 0) & (labels < LABEL_LIMIT)
                    & (labels == np.floor(labels))).all()):
        return None
    return feats, labels.astype(np.int64), 0


# lines per block of a body that the one-pass reader rejected
_BLOCK_LINES = 64


def _parse_blocks(body: str, feat_idx: list, label_idx: int, width: int):
    """``((features, labels, dropped), reader)`` for a body that one
    :func:`_load_clean` pass rejected.  Each block of ``_BLOCK_LINES``
    lines gets its own :func:`_load_clean` try, and only the blocks it
    rejects go through :func:`_parse_rows`; ``reader`` is ``"row-loop"``
    when any block did.  A quoted cell may span lines, so a body with a
    quote goes through the row loop whole.
    """
    if '"' in body or not body:
        return _parse_rows(body, feat_idx, label_idx, width), "row-loop"
    lines = io.StringIO(body, newline="").readlines()
    parts, reader = [], "vectorised"
    for i in range(0, len(lines), _BLOCK_LINES):
        block = lines[i:i + _BLOCK_LINES]
        text = "".join(block)
        part = _load_clean(block, 0, text, len(block), feat_idx, label_idx, width)
        if part is None:
            part, reader = _parse_rows(text, feat_idx, label_idx, width), "row-loop"
        parts.append(part)
    # the row loop's arrays are 1-d when it keeps no row
    kept = [part for part in parts if len(part[1])] or parts[:1]
    return (
        np.concatenate([f for f, _, _ in kept]),
        np.concatenate([y for _, y, _ in kept]),
        sum(d for _, _, d in parts),
    ), reader


def _parse_rows(body: str, feat_idx: list, label_idx: int, width: int):
    """``(features, labels, dropped)`` by the row rules of
    :func:`ingest_csv`, one ``csv`` record at a time."""
    feats = []
    labels = []
    dropped = 0
    for row in csv.reader(io.StringIO(body, newline="")):
        if len(row) < width:
            dropped += 1
            continue
        cells = [row[i].strip() for i in feat_idx]
        lab_cell = row[label_idx].strip()
        if not lab_cell or any(not c for c in cells):
            dropped += 1
            continue
        try:
            values = [float(c) for c in cells]
        except ValueError:
            dropped += 1
            continue
        if not all(math.isfinite(v) for v in values):
            dropped += 1
            continue
        try:
            lab = float(lab_cell)
        except ValueError:
            dropped += 1
            continue
        if not math.isfinite(lab):
            raise ValidationError(f"non-finite label {lab_cell!r}")
        if lab != int(lab):
            raise ValidationError(f"non-integer label {lab_cell!r}")
        if lab < 0:
            raise ValidationError(f"negative label {lab_cell!r}")
        if lab >= LABEL_LIMIT:
            raise ValidationError(f"label {lab_cell!r} exceeds 2**63 - 1")
        labels.append(int(lab))
        feats.append(values)
    return np.array(feats), np.array(labels), dropped


# ---------------------------------------------------------------------------
# the test command
# ---------------------------------------------------------------------------


def _run_test_command(args) -> dict:
    """Ingest, optionally standardize, run the pipeline; returns the
    result object serialized by the CLI (all fields JSON-ready)."""
    t0 = time.perf_counter()
    features = args.features.split(",") if args.features else None
    ingested = ingest_csv(args.input, args.label_col, features)
    sample, dropped = ingested
    if args.standardize:
        sample = standardize(sample)
    kernel_params = {}
    if args.kernel == "imbalanced-kendall":
        kernel_params["m"] = args.m
    if args.kernel == "ipcov":
        kernel_params["c_sigma2"] = args.c_sigma2
    method = MethodConfig(
        kernel=args.kernel,
        mode=args.method,
        s=args.s,
        inference=args.inference,
        B=args.B,
        budget=args.budget,
        xi_basis=args.xi_basis,
        kernel_params=kernel_params,
    )
    out = run_test(sample, method, args.seed)
    meta = out.metadata
    warnings = list(meta["warnings"])
    if dropped:
        warnings.insert(0, f"dropped {dropped} rows with missing or unparseable values")
    result = {
        "statistic": float(out.statistic),
        "scaled_statistic": float(out.scaled_statistic),
        "variance_estimate": float(out.variance_estimate),
        "p_value": float(out.p_value),
        "method": out.method,
        "n0": int(meta["n0"]),
        "n1": int(meta["n1"]),
        "seed": int(args.seed),
        "wall_time_ms": (time.perf_counter() - t0) * 1000.0,
        "warnings": warnings,
        "ingest": ingested.reader,
    }
    if meta["s"] is not None:
        result["s"] = int(meta["s"])
    if meta["B"] is not None:
        result["B"] = int(meta["B"])
    return result


# ---------------------------------------------------------------------------
# output helpers
# ---------------------------------------------------------------------------


def _emit(data, fmt: str, output: str | None) -> None:
    if fmt == "json":
        text = json.dumps(data, sort_keys=True, indent=2, allow_nan=False)
    elif fmt == "csv":
        rows = data if isinstance(data, list) else [data]
        buf = io.StringIO()
        fields = sorted({k for r in rows for k in r})
        writer = csv.DictWriter(buf, fieldnames=fields)
        writer.writeheader()
        for r in rows:
            writer.writerow({k: _fmt(v) for k, v in r.items()})
        text = buf.getvalue().rstrip("\n")
    else:
        raise ValidationError(f"unknown output format {fmt!r}")
    _write(text, output)


def _fmt(value):
    return f"{value:.12g}" if isinstance(value, float) else value


def _write(text: str, output: str | None) -> None:
    if output:
        with open(output, "w", encoding="utf-8") as fh:
            fh.write(text + "\n")
    else:
        print(text)


# ---------------------------------------------------------------------------
# simulate presets
# ---------------------------------------------------------------------------


def _given(value, default):
    """``default`` for a flag not given; a given 0 is left to be refused."""
    return default if value is None else value


def _preset_table3(kind: str, eg: int, args) -> list:
    family = "first_order_eg1" if eg == 1 else "first_order_eg2"
    n1 = _given(args.n1, 50)
    base = ScenarioSpec(family, n=_given(args.n, 100_000), n1=n1, M=_given(args.M, 1000),
                        alpha=args.alpha, seed=args.seed)
    rit = MethodConfig(kernel=kind, mode="rit", xi_basis="controls",
                       budget=args.budget)
    rows = []
    size_rep = run_erp(base.null(), rit, args.threads)
    rows.append({**size_rep.row(), "setting": "size"})
    power_rep = run_erp(base, rit, args.threads)
    rows.append({**power_rep.row(), "setting": "power"})
    for n1s in _given(args.n1s, [2000]):
        s_val = max(2, int(round(n1s / n1)))
        bit = MethodConfig(kernel=kind, mode="bit", s=s_val, xi_basis="controls",
                           budget=args.budget)
        rep = run_erp(base, bit, args.threads)
        rows.append({**rep.row(), "setting": "power", "n1s": s_val * n1})
    return rows


def _preset_table_d4(args) -> list:
    full = args.full
    n1 = _given(args.n1, 50)
    s_val = _given(args.s, max(2, int(round((args.n1s[0] if args.n1s else 1000) / n1))))
    base = ScenarioSpec(
        "second_order_eg1", n=_given(args.n, 10_000 if full else 2_050), n1=n1,
        p=_given(args.p, 50), M=_given(args.M, 1000 if full else 200), alpha=args.alpha,
        seed=args.seed,
    )
    bit_perm = MethodConfig(kernel="dcov", mode="bit", s=s_val,
                            inference="permutation", B=_given(args.B, 199))
    return [{**run_erp(base.null(), bit_perm, args.threads).row(), "setting": "size"},
            {**run_erp(base, bit_perm, args.threads).row(), "setting": "power"}]


def _run_simulate(args) -> None:
    fam = args.family.replace("-", "_")
    if fam == "figure1":
        rows = figure1_phenomenon(
            M=_given(args.M, 500), alpha=args.alpha, seed=args.seed,
            n1=_given(args.n1, 100), effect=_given(args.effect, 0.2),
        )
    elif fam.startswith("table3_"):
        _, kind, eg = fam.split("_")
        rows = _preset_table3(kind, int(eg[-1]), args)
    elif fam == "table_d4_dcov_eg1":
        rows = _preset_table_d4(args)
    else:
        scenario = ScenarioSpec(
            fam,
            n=_given(args.n, 10_000),
            n1=_given(args.n1, 50),
            p=_given(args.p, 1),
            effect=args.effect,
            M=_given(args.M, 1000 if args.full else 200),
            alpha=args.alpha,
            seed=args.seed,
            params={
                k: v
                for k, v in (("delta", args.delta), ("delta0", args.delta0))
                if v is not None
            },
        )
        method = MethodConfig(
            kernel=args.kernel.replace("-", "_"),
            mode=args.method,
            s=args.s,
            inference=args.inference,
            B=_given(args.B, 199),
            budget=args.budget,
            xi_basis="controls",
        )
        rows = [run_erp(scenario, method, args.threads).row()]
    _emit(rows, args.format, args.output)


def _run_bench(args) -> None:
    sizes = _given(args.sizes, [1000, 2000, 4000])
    grid = (args.s_grid or []) if args.mode == "bit" else sizes
    if len(set(grid)) < 2:
        flag = "--s-grid values" if args.mode == "bit" else "--sizes"
        raise ValidationError(f"a log-log slope needs at least two distinct {flag}")
    rows = benchmark_complexity(
        args.kernel.replace("-", "_"),
        sizes,
        mode=args.mode,
        n1=args.n1,
        s_values=args.s_grid,
        trials=args.trials,
        p=args.p,
        seed=args.seed,
    )
    xs = [r["x"] for r in rows]
    ts = [r["cpu_seconds"] for r in rows]
    out = {"rows": rows, "loglog_slope": loglog_slope(xs, ts)}
    if args.format == "csv":
        _emit(rows, "csv", args.output)
        print(f"loglog_slope,{out['loglog_slope']:.12g}", file=sys.stderr)
    else:
        _emit(out, "json", args.output)


# ---------------------------------------------------------------------------
# argument parsing
# ---------------------------------------------------------------------------


def _int_list(text: str):
    return [int(tok) for tok in text.split(",") if tok]


def _global_flags(parser, suppress: bool) -> None:
    d = argparse.SUPPRESS if suppress else None
    parser.add_argument("--seed", type=int, default=d if suppress else 0)
    parser.add_argument("--threads", type=int, default=d if suppress else 1)
    parser.add_argument("--output", default=d,
                        help="write results to this path (default stdout)")
    parser.add_argument("--format", choices=("json", "csv"),
                        default=d if suppress else "json")


def _build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="raresig",
        description="Independence tests for rare-event class labels.",
    )
    _global_flags(ap, suppress=False)
    # accept the global flags after the subcommand too
    common = argparse.ArgumentParser(add_help=False)
    _global_flags(common, suppress=True)
    sub = ap.add_subparsers(dest="command", required=True)

    t = sub.add_parser("test", help="run one independence test on a CSV file",
                       parents=[common])
    t.add_argument("--input", required=True)
    t.add_argument("--label-col", default="label")
    t.add_argument("--features", help="comma-separated feature columns (default: all others)")
    t.add_argument("--kernel", default="kendall",
                   choices=("pearson", "kendall", "imbalanced-kendall", "dcov",
                            "ipcov", "multi-kendall"))
    t.add_argument("--m", type=int, default=2, help="control block size (imbalanced-kendall)")
    t.add_argument("--c-sigma2", type=float, default=1.0)
    t.add_argument("--method", default="rit", choices=("rit", "bit"))
    t.add_argument("--s", type=int)
    t.add_argument("--inference", default="auto",
                   choices=("auto", "asymptotic", "permutation", "highdim"))
    t.add_argument("--B", type=int, default=999)
    t.add_argument("--standardize", action="store_true")
    t.add_argument("--budget", type=int, default=2000)
    t.add_argument(
        "--xi-basis", default="cases", choices=("cases", "controls"),
        help="points each rare-class projection variance (xi01, zeta_k) is "
             "evaluated at: 'cases' (default; estimates the case-side "
             "variance on any data) or 'controls' "
             "(far less noisy, but the same quantity only under the null; the "
             "simulate command and the library's MethodConfig default to it)",
    )

    sp = sub.add_parser("subsample-plan", help="draw a control-inclusion plan",
                        parents=[common])
    sp.add_argument("--n0", type=int, required=True)
    sp.add_argument("--n1", type=int, required=True)
    sp.add_argument("--s", type=int, required=True)
    sp.add_argument("--min-include", type=int, default=1)

    ss = sub.add_parser("select-s", help="choose the sampling ratio",
                        parents=[common])
    ss_sub = ss.add_subparsers(dest="rule", required=True)
    v = ss_sub.add_parser("variance")
    v.add_argument("--n1", type=int, required=True)
    v.add_argument("--epsilon", type=float, required=True)
    pf = ss_sub.add_parser("power-floor")
    pg = ss_sub.add_parser("power-gap")
    for q in (pf, pg):
        q.add_argument("--n1", type=int, required=True)
        q.add_argument("--m0", type=int, default=1)
        q.add_argument("--m1", type=int, default=1)
        q.add_argument("--xi01", type=float, required=True)
        q.add_argument("--xi10", type=float, required=True)
        q.add_argument("--mu0", type=float, required=True)
        q.add_argument("--alpha", type=float, default=0.05)
    pf.add_argument("--beta", type=float, required=True)
    pg.add_argument("--epsilon", type=float, required=True)

    pw = sub.add_parser("power", help="theoretical power calculators",
                        parents=[common])
    pw_sub = pw.add_subparsers(dest="calc", required=True)
    fo = pw_sub.add_parser("first-order")
    note = ("power of the full-sample high-dimensional test, whose n1 T is normal "
            "with the p-value's variance m1^2 (m1-1)^2 xi02 / 2 (2 xi02 for dcov/ipcov)")
    hd = pw_sub.add_parser("highdim", help=note, description=note)
    for q, m1 in ((fo, 1), (hd, 2)):
        q.add_argument("--mu0", type=float, required=True)
        q.add_argument("--n1", type=int, required=True)
        q.add_argument("--m1", type=int, default=m1)
        q.add_argument("--alpha", type=float, default=0.05)
    fo.add_argument("--m0", type=int, default=1)
    fo.add_argument("--xi01", type=float, required=True)
    fo.add_argument("--s", type=int)
    fo.add_argument("--xi10", type=float)
    hd.add_argument("--xi02", type=float, required=True)
    lt = pw_sub.add_parser("local-threshold")
    lt.add_argument("--beta", type=float, required=True)
    lt.add_argument("--alpha", type=float, default=0.05)
    lt.add_argument("--mu-g1", type=float, required=True)
    lt.add_argument("--xi", type=float, required=True)

    sim = sub.add_parser("simulate", help="Monte Carlo studies and table presets",
                         parents=[common])
    sim.add_argument("--family", required=True)
    sim.add_argument("--n", type=int)
    sim.add_argument("--n1", type=int)
    sim.add_argument("--p", type=int)
    sim.add_argument("--effect", type=float)
    sim.add_argument("--delta", type=float)
    sim.add_argument("--delta0", type=float)
    sim.add_argument("--M", type=int)
    sim.add_argument("--alpha", type=float, default=0.05)
    sim.add_argument("--kernel", default="kendall")
    sim.add_argument("--method", default="rit", choices=("rit", "bit", "classical"))
    sim.add_argument("--s", type=int)
    sim.add_argument("--n1s", type=_int_list, help="comma-separated s*n1 budgets")
    sim.add_argument("--inference", default="auto")
    sim.add_argument("--B", type=int)
    sim.add_argument("--budget", type=int, default=2000)
    sim.add_argument("--full", action="store_true",
                     help="run at full published scale instead of desk scale")

    be = sub.add_parser("bench", help="runtime scaling benchmarks",
                        parents=[common])
    be.add_argument("--kernel", default="dcov")
    be.add_argument("--sizes", type=_int_list)
    be.add_argument("--mode", default="rit", choices=("rit", "bit"))
    be.add_argument("--n1", type=int)
    be.add_argument("--s-grid", type=_int_list)
    be.add_argument("--trials", type=int, default=5)
    be.add_argument("--p", type=int)

    return ap


def _dispatch(args) -> None:
    if args.threads < 1:
        raise ValidationError("--threads must be at least 1")
    if args.command == "test":
        _emit(_run_test_command(args), args.format, args.output)
    elif args.command == "subsample-plan":
        if args.n0 < 0 or args.n1 < 0:
            raise ValidationError("--n0 and --n1 must be non-negative")
        x = np.zeros((args.n0 + args.n1, 1))
        labels = np.r_[np.zeros(args.n0, np.int64), np.ones(args.n1, np.int64)]
        grouped = group_by_label(LabeledSample(x, labels))
        plan = draw_subsample(grouped, args.s, args.seed, args.min_include)
        _emit(
            {
                "s": plan.s,
                "n0": args.n0,
                "n1": args.n1,
                "inclusion_probability": args.s * args.n1 / args.n0,
                "expected_count": args.s * args.n1,
                "realized_count": plan.realized_count,
                "attempts": plan.attempts,
                "seed": args.seed,
            },
            args.format,
            args.output,
        )
    elif args.command == "select-s":
        if args.rule == "variance":
            value = select_s_variance(args.n1, args.epsilon)
        elif args.rule == "power-floor":
            value = select_s_power_floor(args.n1, args.m0, args.m1, args.xi01,
                                         args.xi10, args.mu0, args.alpha, args.beta)
        else:
            value = select_s_power_gap(args.n1, args.m0, args.m1, args.xi01,
                                       args.xi10, args.mu0, args.alpha, args.epsilon)
        _write(str(_fmt(value)), args.output)
    elif args.command == "power":
        if args.calc == "first-order":
            value = power_first_order(args.mu0, args.n1, args.m0, args.m1,
                                      args.xi01, args.alpha, s=args.s, xi10=args.xi10)
        elif args.calc == "highdim":
            value = power_highdim(args.mu0, args.n1, args.m1, args.xi02, args.alpha)
        else:
            value = local_power_threshold(args.beta, args.alpha, args.mu_g1, args.xi)
        _write(str(_fmt(value)), args.output)
    elif args.command == "simulate":
        _run_simulate(args)
    elif args.command == "bench":
        _run_bench(args)
    else:  # pragma: no cover - argparse enforces the choices
        raise ValidationError(f"unknown command {args.command!r}")


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 2 if exc.code not in (0, None) else 0
    try:
        _dispatch(args)
    except DegenerateDataError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except (ValidationError, RaresigError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    return 0


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
