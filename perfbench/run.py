"""raresig benchmark: closed-loop workloads, end-to-end and per-layer metrics.

Run from the root of a checkout:

    python3 perfbench/run.py --workload csv_pairwise --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all            # every workload in turn

One process, one client, closed loop: each op starts when the previous
one has finished and been checked.  raresig is imported from the
checkout's ``src/`` only; without it the benchmark exits with code 2.

``--trace 0`` reports the end-to-end metrics (ops_per_s, op_p50_s,
setup_s, peak_rss_mb).  ``--trace 1`` first runs untraced whole cycles
for half the time, then the same number of cycles with span recording,
and reports the per-layer metrics (see spans.py) plus the tracing
overhead.  The last stdout line is one JSON object
``{"correct", "attempted", "failed", "metrics"}``; a readable report and
the machine facts go to stderr, and the full result (and, when traced,
the spans) to ``.perfbench_work/`` in the checkout.  The exit code is 1
when any op failed its output check.
"""

from __future__ import annotations

import argparse
import hashlib
import importlib.util
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

import numpy as np

import spans
import workloads

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORKDIR = ROOT / ".perfbench_work"
SETUP_REPEATS = 3

END_TO_END = {
    "ops_per_s": ("1/s", "higher"),
    "op_p50_s": ("s", "lower"),
    "setup_s": ("s", "lower"),
    "peak_rss_mb": ("MB", "lower"),
}


class SetupError(Exception):
    """The checkout cannot be benchmarked (e.g. no raresig sources)."""


def import_raresig():
    if not (SRC / "raresig" / "__init__.py").is_file():
        raise SetupError(f"no raresig sources under {SRC}")
    sys.path.insert(0, str(SRC))
    import raresig
    import raresig.cli
    import raresig.simulate

    if Path(raresig.__file__).resolve().parent != (SRC / "raresig").resolve():
        raise SetupError(f"raresig was imported from {raresig.__file__}, not {SRC}")
    return raresig


# ---------------------------------------------------------------------------
# machine facts
# ---------------------------------------------------------------------------


def _openblas_threads():
    """Thread count of the OpenBLAS loaded into this process, if any."""
    import ctypes

    try:
        with open("/proc/self/maps", encoding="utf-8") as fh:
            libs = {line.split()[-1] for line in fh if "openblas" in line.lower()}
    except OSError:
        return None
    for lib in sorted(libs):
        handle = ctypes.CDLL(lib)
        for sym in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                    "openblas_get_num_threads"):
            fn = getattr(handle, sym, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def _commit():
    if not (ROOT / ".git").exists():
        return None
    try:
        out = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                             capture_output=True, text=True, timeout=10, check=True)
    except (OSError, subprocess.SubprocessError):
        return None
    return out.stdout.strip()


def _src_digest() -> str:
    h = hashlib.sha256()
    for path in sorted((SRC / "raresig").rglob("*.py")):
        h.update(path.relative_to(SRC).as_posix().encode())
        h.update(path.read_bytes())
    return h.hexdigest()[:16]


def machine_facts(rs) -> dict:
    import scipy

    blas = np.__config__.CONFIG.get("Build Dependencies", {}).get("blas", {})
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": _openblas_threads(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "numba_importable": importlib.util.find_spec("numba") is not None,
        "raresig_backend": rs._accel.active_backend(),
        "git_commit": _commit(),
        "src_sha256": _src_digest(),
    }


# ---------------------------------------------------------------------------
# measurement
# ---------------------------------------------------------------------------


def measure_setup(repeats: int) -> list:
    """Wall times of fresh interpreters importing raresig.cli from src/."""
    code = ("import sys; sys.path.insert(0, sys.argv[1]); import raresig.cli as c; "
            "assert c.__file__.startswith(sys.argv[1])")
    times = []
    for _ in range(repeats):
        t0 = time.perf_counter()
        subprocess.run([sys.executable, "-c", code, str(SRC)], check=True,
                       cwd=ROOT, timeout=120)
        times.append(time.perf_counter() - t0)
    return times


def run_cycles(ops: list, seconds: float | None, cycles: int | None = None,
               tracer=None, first_id: int = 0) -> dict:
    """Closed loop over whole cycles of the op mix: until ``seconds`` have
    passed, or for exactly ``cycles`` cycles."""
    durations: dict = {op.label: [] for op in ops}
    failures = []
    done = 0
    t_start = time.perf_counter()
    while (done < cycles) if cycles is not None else (
            done == 0 or time.perf_counter() - t_start < seconds):
        for op in ops:
            op_id = first_id + sum(len(v) for v in durations.values())
            if tracer:
                tracer.begin_op(op_id, op.label)
            t0 = time.perf_counter()
            try:
                raw, error = op.call(), None
            except Exception:  # an op that raises is a failed op, the loop goes on
                raw, error = None, traceback.format_exc(limit=3)
            t1 = time.perf_counter()
            if tracer:
                tracer.end_op()
            durations[op.label].append(t1 - t0)
            problems = [error] if error else op.check(raw)
            if problems:
                failures.append({"op": op_id, "label": op.label, "problems": problems})
        done += 1
    times = [t for v in durations.values() for t in v]
    return {"cycles": done, "times": times, "busy_s": sum(times),
            "by_label": durations, "failures": failures}


def traced_cycles(ops: list, cycles: int, tracer, first_id: int) -> dict:
    tracer.install()
    try:
        return run_cycles(ops, None, cycles, tracer, first_id)
    finally:
        tracer.uninstall()


def summary(loop: dict) -> dict:
    return {
        label: {"ops": len(ts), "median_s": statistics.median(ts), "min_s": min(ts)}
        for label, ts in loop["by_label"].items()
    }


# ---------------------------------------------------------------------------
# one workload
# ---------------------------------------------------------------------------


def run_workload(args) -> int:
    try:
        rs = import_raresig()
    except (SetupError, ImportError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    scale = workloads.SCALES[args.scale]
    make = workloads.WORKLOADS[args.workload]
    WORKDIR.mkdir(exist_ok=True)
    facts = machine_facts(rs)

    setup_times = [] if args.trace else measure_setup(
        SETUP_REPEATS if args.scale == "full" else 1)

    # inputs and references first, then one untimed toy-size cycle so
    # first-call costs (page faults, BLAS threads) land outside the clock
    toy_dir = WORKDIR / "warmup"
    toy_dir.mkdir(exist_ok=True)
    warm = run_cycles(make(rs, toy_dir, args.seed, workloads.SCALES["toy"]), None, 1)
    ops = make(rs, WORKDIR, args.seed, scale)

    tracer = None
    if args.trace:
        plain = run_cycles(ops, args.seconds / 2)
        tracer = spans.Tracer()
        loop = traced_cycles(ops, plain["cycles"], tracer, len(plain["times"]))
        # tracemalloc slows Python allocation, so permutation memory is
        # measured in one more cycle whose spans are not timed
        alloc = spans.Tracer(measure_alloc=True)
        extra = traced_cycles(ops, 1, alloc, len(plain["times"]) + len(loop["times"]))
        overhead = loop["busy_s"] / plain["busy_s"] - 1.0
        values = spans.layer_metrics(tracer.spans, len(loop["times"]), overhead,
                                     alloc.spans)
        failures = plain["failures"] + loop["failures"] + extra["failures"]
        attempted = len(plain["times"]) + len(loop["times"]) + len(extra["times"])
    else:
        loop = run_cycles(ops, args.seconds)
        rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        values = {
            "ops_per_s": len(loop["times"]) / loop["busy_s"],
            "op_p50_s": statistics.median(loop["times"]),
            "setup_s": statistics.median(setup_times),
            "peak_rss_mb": rss_mb,
        }
        values = {k: (v, END_TO_END[k][0]) for k, v in values.items()}
        failures = loop["failures"]
        attempted = len(loop["times"])

    result = {
        "correct": not (failures or warm["failures"]),
        "attempted": attempted,
        "failed": len(failures),
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in values.items()},
    }
    detail = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "scale": args.scale, "facts": facts,
        "setup_times_s": setup_times, "cycles": loop["cycles"], "ops": summary(loop),
        "failed_ops_ratio": result["failed"] / attempted,
        "failures": warm["failures"] + failures,
        "result": result,
    }
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    (WORKDIR / f"{stem}.json").write_text(json.dumps(detail, indent=1))
    if tracer:
        (WORKDIR / f"{stem}-spans.json").write_text(json.dumps(tracer.dump()))

    report(detail)
    print(json.dumps(result))
    return 0 if result["correct"] else 1


def report(detail: dict) -> None:
    err = sys.stderr
    print(f"# {detail['workload']} seed={detail['seed']} trace={detail['trace']} "
          f"scale={detail['scale']}", file=err)
    for key, value in detail["facts"].items():
        print(f"#   {key}: {value}", file=err)
    for label, s in detail["ops"].items():
        print(f"#   op {label}: n={s['ops']} median={s['median_s']:.4f} s", file=err)
    for name, m in detail["result"]["metrics"].items():
        print(f"{name} {m['value']:.6g} {m['unit']}", file=err)
    print(f"failed_ops_ratio {detail['failed_ops_ratio']:.6g} "
          f"({detail['result']['failed']}/{detail['result']['attempted']})", file=err)
    for f in detail["failures"][:10]:
        print(f"FAILED op {f['op']} {f['label']}: {'; '.join(f['problems'])}", file=err)


def run_all(args) -> int:
    """Every workload in its own process (peak RSS is per process)."""
    worst = 0
    results = {}
    for name in workloads.WORKLOADS:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace), "--scale", args.scale]
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, timeout=900)
        worst = max(worst, proc.returncode)
        lines = proc.stdout.strip().splitlines()
        results[name] = json.loads(lines[-1]) if lines else None
    print(json.dumps(results))
    return worst


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=[*workloads.WORKLOADS, "all"])
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=30.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--scale", choices=tuple(workloads.SCALES), default="full",
                    help="'toy' shrinks every input (smoke runs)")
    args = ap.parse_args(argv)
    if args.seed < 0:
        ap.error("--seed must be >= 0")
    return run_all(args) if args.workload == "all" else run_workload(args)


if __name__ == "__main__":
    sys.exit(main())
