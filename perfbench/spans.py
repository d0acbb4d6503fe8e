"""Span recording around raresig's public functions, and the per-layer
metrics derived from the spans.

Each traced function is replaced, in every ``raresig`` module that holds a
reference to it, by a wrapper that records one span: name, start, end,
parent span and op id.  Replacing the name where the caller looks it up
matters because most modules import functions by name
(``from .engine import compute_rit``); patching only the home module
would miss those calls.  Spans stay in memory until the run ends.

A span's self time is its duration minus the durations of its direct
children.  Children run inside their parent and one after another (the
process is single-threaded), so that sum is the time they cover.
"""

from __future__ import annotations

import os
import sys
import time
import tracemalloc

# (home module under raresig, function) for every traced function.  The
# span name is "<module>.<function>", with "_accel" shortened to "accel"
# because metric names must start with a letter.
TRACED = [
    ("cli", "ingest_csv"),
    ("cli", "run_test"),
    ("data", "group_by_label"),
    ("engine", "compute_rit"),
    ("_accel", "within_dist_sum"),
    ("_accel", "cross_dist_sum"),
    ("_accel", "cross_dist_rowsum"),
    ("_accel", "within_angle_sum"),
    ("_accel", "cross_angle_sum"),
    ("_accel", "cross_angle_rowsum"),
    ("_accel", "dist_matrix"),
    ("_accel", "angle_matrix"),
    ("inference", "estimate_xi01"),
    ("inference", "estimate_xi10"),
    ("inference", "estimate_xi02"),
    ("inference", "condition_diagnostic"),
    ("inference", "pvalue_asymptotic_first"),
    ("inference", "pvalue_asymptotic_highdim"),
    ("inference", "pvalue_permutation"),
    ("subsample", "draw_subsample"),
    ("subsample", "thin_controls"),
    ("subsample", "compute_bit"),
    ("multiclass", "compute_multi_rit"),
    ("multiclass", "compute_multi_bit"),
    ("multiclass", "estimate_zeta1k"),
    ("simulate", "generate"),
    ("simulate", "evaluate_replication"),
    ("simulate", "run_erp"),
    ("rng", "spawn_rng"),
]

# compute_rit spans are named after RitStatistic.algorithm, e.g.
# "pairwise-sums[numpy]" -> "engine.compute_rit.pairwise_sums".
RIT_TAGS = ("sort_count", "group_means", "budgeted", "pairwise_sums")
_ALGORITHM_TAG = {"budgeted-subsample": "budgeted"}


def _rit_tag(algorithm: str) -> str:
    base = algorithm.split("[")[0].split("+")[0]
    return _ALGORITHM_TAG.get(base, base.replace("-", "_"))


def _pairs(args, kwargs, cross: bool):
    a = args[0]
    if cross:
        b = args[1] if len(args) > 1 else kwargs.get("b")
        nb = a.shape[0] if b is None else b.shape[0]
        return a.shape[0] * nb, a.shape[1]
    n = a.shape[0]
    return n * (n - 1) // 2, a.shape[1]


def _counts(span_name, args, kwargs, result) -> dict:
    """Work counts for one call, taken from its arguments and result."""
    if span_name == "cli.ingest_csv":
        return {"rows": result[0].n, "bytes": os.path.getsize(args[0])}
    if span_name == "data.group_by_label":
        return {"rows": args[0].n}
    if span_name.startswith("accel."):
        pairs, dim = _pairs(args, kwargs, cross="within" not in span_name)
        return {"pairs": pairs, "pair_dims": pairs * dim}
    if span_name == "inference.pvalue_permutation":
        perms = args[2] if len(args) > 2 else kwargs.get("B", 999)
        return {"perms": perms, "batched": int(bool(result.metadata.get("batched")))}
    if span_name == "subsample.draw_subsample":
        return {"attempts": result.attempts}
    if span_name == "subsample.thin_controls":
        return {"rows": result.counts[0]}
    return {}


class Tracer:
    """In-memory span recorder.

    A span is ``[name, start, end, parent, op_id, counts]``; ``parent``
    is the index of the enclosing span or -1.  Op spans are named
    ``op:<label>`` and are the roots.
    """

    def __init__(self, measure_alloc: bool = False):
        self.spans: list = []
        self._stack: list = []
        self._op_id = -1
        self._patched: list = []
        self.measure_alloc = measure_alloc

    # -- span bookkeeping ---------------------------------------------------

    def _open(self, name: str) -> int:
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, time.perf_counter(), 0.0, parent, self._op_id, {}])
        idx = len(self.spans) - 1
        self._stack.append(idx)
        return idx

    def _close(self, idx: int) -> None:
        self.spans[idx][2] = time.perf_counter()
        self._stack.pop()

    def begin_op(self, op_id: int, label: str) -> None:
        self._op_id = op_id
        self._op_span = self._open(f"op:{label}")

    def end_op(self) -> None:
        self._close(self._op_span)

    # -- wrapping -------------------------------------------------------------

    def _wrap(self, span_name: str, fn):
        tracer = self
        alloc = self.measure_alloc and span_name == "inference.pvalue_permutation"

        def traced(*args, **kwargs):
            idx = tracer._open(span_name)
            if alloc:
                tracemalloc.start()
            result = None
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                if alloc:
                    peak = tracemalloc.get_traced_memory()[1]
                    tracemalloc.stop()
                tracer._close(idx)
                span = tracer.spans[idx]
                if result is not None:
                    if span_name == "engine.compute_rit":
                        span[0] = f"engine.compute_rit.{_rit_tag(result.algorithm)}"
                    span[5] = _counts(span_name, args, kwargs, result)
                if alloc:
                    span[5]["peak_alloc"] = peak

        return traced

    def install(self) -> None:
        """Replace every reference to each traced function in the loaded
        raresig modules."""
        modules = [
            m for name, m in sys.modules.items()
            if m is not None and (name == "raresig" or name.startswith("raresig."))
        ]
        for home, fname in TRACED:
            # a function a later version removes is skipped; its metrics read 0
            original = getattr(sys.modules.get(f"raresig.{home}"), fname, None)
            if original is None:
                continue
            wrapper = self._wrap(f"{home.lstrip('_')}.{fname}", original)
            for mod in modules:
                for attr, value in list(vars(mod).items()):
                    if value is original:
                        setattr(mod, attr, wrapper)
                        self._patched.append((mod, attr, original))

    def uninstall(self) -> None:
        for mod, attr, original in reversed(self._patched):
            setattr(mod, attr, original)
        self._patched.clear()

    def dump(self) -> list:
        keys = ("name", "start", "end", "parent", "op", "counts")
        return [dict(zip(keys, s)) for s in self.spans]


# ---------------------------------------------------------------------------
# per-layer metrics
# ---------------------------------------------------------------------------

# quantity -> (unit, better, formula over the aggregate of one span name)
QUANTITIES = {
    "s": ("s/op", "lower", lambda a, ops: a["s"] / ops),
    "self_s": ("s/op", "lower", lambda a, ops: a["self_s"] / ops),
    "calls": ("calls/op", "lower", lambda a, ops: a["calls"] / ops),
    "rows": ("rows/op", "lower", lambda a, ops: a["rows"] / ops),
    "rows_per_s": ("rows/s", "higher", lambda a, ops: _ratio(a["rows"], a["s"])),
    "mb_per_s": ("MB/s", "higher", lambda a, ops: _ratio(a["bytes"] / 1e6, a["s"])),
    "pairs": ("pairs/op", "lower", lambda a, ops: a["pairs"] / ops),
    "ns_per_pair_dim": ("ns", "lower", lambda a, ops: _ratio(a["s"] * 1e9, a["pair_dims"])),
    "perms": ("perms/op", "lower", lambda a, ops: a["perms"] / ops),
    "ms_per_perm": ("ms", "lower", lambda a, ops: _ratio(a["s"] * 1e3, a["perms"])),
    "batched_calls": ("calls/op", "higher", lambda a, ops: a["batched"] / ops),
    "peak_alloc_mb": ("MB", "lower", lambda a, ops: a["peak_alloc"] / 1e6),
    "attempts_per_call": ("count", "lower", lambda a, ops: _ratio(a["attempts"], a["calls"])),
}

_ACCEL = ("within_dist_sum", "cross_dist_sum", "cross_dist_rowsum", "within_angle_sum",
          "cross_angle_sum", "cross_angle_rowsum", "dist_matrix", "angle_matrix")
_INFERENCE = ("estimate_xi01", "estimate_xi10", "estimate_xi02", "condition_diagnostic",
              "pvalue_asymptotic_first", "pvalue_asymptotic_highdim")

# (span name, quantities reported for it)
LAYER_METRICS = (
    [("cli.ingest_csv", ("s", "calls", "rows_per_s", "mb_per_s")),
     ("cli.run_test", ("self_s",)),
     ("data.group_by_label", ("s", "calls", "rows"))]
    + [(f"engine.compute_rit.{tag}", ("s", "calls")) for tag in RIT_TAGS]
    + [(f"accel.{f}", ("s", "calls", "pairs", "ns_per_pair_dim")) for f in _ACCEL]
    + [(f"inference.{f}", ("s",)) for f in _INFERENCE]
    + [("inference.pvalue_permutation",
        ("s", "calls", "perms", "ms_per_perm", "batched_calls", "peak_alloc_mb")),
       ("subsample.draw_subsample", ("s", "attempts_per_call")),
       ("subsample.thin_controls", ("s", "rows")),
       ("subsample.compute_bit", ("self_s",))]
    + [(f"multiclass.{f}", ("s",))
       for f in ("compute_multi_rit", "compute_multi_bit", "estimate_zeta1k")]
    + [(f"simulate.{f}", ("self_s",))
       for f in ("generate", "evaluate_replication", "run_erp")]
    + [("rng.spawn_rng", ("calls", "s"))]
)

TRACE_METRICS = {
    "trace.overhead_ratio": ("ratio", "lower"),
    "trace.uncovered_s": ("s/op", "lower"),
}


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def per_layer_spec() -> list:
    """[(metric name, unit, better)] for every per-layer metric."""
    out = [
        (f"{span}.{q}", QUANTITIES[q][0], QUANTITIES[q][1])
        for span, quantities in LAYER_METRICS
        for q in quantities
    ]
    out += [(name, unit, better) for name, (unit, better) in TRACE_METRICS.items()]
    return out


def _zero() -> dict:
    return {"calls": 0, "s": 0.0, "self_s": 0.0, "rows": 0, "bytes": 0, "pairs": 0,
            "pair_dims": 0, "perms": 0, "batched": 0, "peak_alloc": 0, "attempts": 0}


def _aggregate(spans: list) -> dict:
    child_time = [0.0] * len(spans)
    for name, start, end, parent, _op, _counts in spans:
        if parent >= 0:
            child_time[parent] += end - start
    agg: dict = {}
    for i, (name, start, end, _parent, _op, counts) in enumerate(spans):
        a = agg.setdefault(name, _zero())
        a["calls"] += 1
        a["s"] += end - start
        a["self_s"] += end - start - child_time[i]
        for key, value in counts.items():
            a[key] = max(a[key], value) if key == "peak_alloc" else a[key] + value
    return agg


def layer_metrics(spans: list, ops: int, overhead_ratio: float, alloc_spans: list) -> dict:
    """Every per-layer metric, per op of the traced run; the permutation
    peak allocation comes from ``alloc_spans``, recorded separately."""
    agg = _aggregate(spans)
    perm = "inference.pvalue_permutation"
    if perm in agg:
        agg[perm]["peak_alloc"] = _aggregate(alloc_spans).get(perm, _zero())["peak_alloc"]
    out = {}
    for span, quantities in LAYER_METRICS:
        a = agg.get(span, _zero())
        for q in quantities:
            unit, _better, formula = QUANTITIES[q]
            out[f"{span}.{q}"] = (formula(a, ops), unit)
    uncovered = sum(a["self_s"] for name, a in agg.items() if name.startswith("op:"))
    out["trace.overhead_ratio"] = (overhead_ratio, "ratio")
    out["trace.uncovered_s"] = (uncovered / ops, "s/op")
    return out
