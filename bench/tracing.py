"""Per-layer tracing of pcirc from outside the program.

The tracer wraps public functions at the module attribute through which
their callers reach them, and records one span per call: name, start, end,
parent span and operation id.  Spans stay in memory and are written out
when the run ends.  A layer's self time is its span time minus the time of
its child spans.

`reduction` imports `compare_counted` and `make_compact` by name, so those
two are wrapped on `pcirc.reduction` as well as on `pcirc.signed_binary`.
"""

from __future__ import annotations

import functools
import itertools
import time
from array import array
from collections import defaultdict

OP = "op"
SPAN_FIELDS = ("span", "parent", "op", "name", "start_ns", "end_ns")


def _count(stat, value_of):
    def count(tracer, pc, name, args, result):
        tracer.counts[f"{name}.{stat}"] += value_of(args, result)

    return count


def _reduce_count(tracer, pc, name, args, result):
    tracer.counts[f"{name}.in_vertices"] += args[0].n_vertices()
    if result is pc.circuit.IMPROPER:
        tracer.improper_ops.add(tracer.op_id)
    else:
        tracer.counts[f"{name}.out_vertices"] += result.n_vertices()


def _sign_count(tracer, pc, name, args, result):
    c = args[0]
    certified = c.certificate is not None and c.kind in (
        pc.circuit.CircuitKind.REDUCED, pc.circuit.CircuitKind.NORMAL)
    tracer.counts[f"{name}.certified"] += certified


_out_vertices = _count("out_vertices", lambda args, result: result.n_vertices())

# (module, attribute, layer name, counter); the layer name is the metric prefix
LAYERS = [
    ("cli", "main", "cli.main", None),
    ("termlang", "parse", "termlang.parse", _count("chars", lambda args, result: len(args[0]))),
    ("termlang", "realize", "termlang.realize", None),
    ("termlang", "eval_formula", "termlang.eval_formula", None),
    *[("arithmetic", f, f"arithmetic.{f}", _out_vertices)
      for f in ("add", "subtract", "multiply", "mul_pow2", "div_pow2_raw", "exp2")],
    ("reduction", "reduce", "reduction.reduce", _reduce_count),
    ("reduction", "normalize", "reduction.normalize", None),
    ("reduction", "sign", "reduction.sign", _sign_count),
    ("signed_binary", "compare_counted", "signed_binary.compare_counted",
     _count("iters", lambda args, result: result[1])),
    ("reduction", "compare_counted", "signed_binary.compare_counted",
     _count("iters", lambda args, result: result[1])),
    ("signed_binary", "make_compact", "signed_binary.make_compact", None),
    ("reduction", "make_compact", "signed_binary.make_compact", None),
    *[("circuit", f, f"circuit.{f}", None)
      for f in ("geometric_order", "standardize_inplace", "from_integer",
                "from_json_dict", "to_json_dict")],
    ("circuit", "reachable_from_marks", "circuit.reachable_from_marks",
     _count("visited", lambda args, result: len(result))),
]

# Every per-layer metric the traced run reports, with its unit.  Counts and
# times are means per operation.  reduce.improper_ratio is the share of
# operations in which some reduce returned IMPROPER (an early abort),
# sign.certified_ratio the share of sign calls that found a certificate, and
# the trace ratios are taken over wall time.
METRICS = {
    "cli.main.self_s": "s/op",
    **{f"termlang.parse.{s}": u for s, u in (("calls", "count/op"), ("self_s", "s/op"),
                                             ("chars", "count/op"))},
    **{f"termlang.{f}.{s}": u for f in ("realize", "eval_formula")
       for s, u in (("calls", "count/op"), ("self_s", "s/op"))},
    **{f"arithmetic.{f}.{s}": u
       for f in ("add", "subtract", "multiply", "mul_pow2", "div_pow2_raw", "exp2")
       for s, u in (("calls", "count/op"), ("self_s", "s/op"), ("out_vertices", "count/op"))},
    **{f"reduction.reduce.{s}": u for s, u in (
        ("calls", "count/op"), ("self_s", "s/op"), ("in_vertices", "count/op"),
        ("out_vertices", "count/op"), ("improper_ratio", "ratio"))},
    **{f"reduction.{s}": "count/op" for s in ("ops", "doublings", "separations")},
    **{f"reduction.normalize.{s}": u for s, u in (("calls", "count/op"), ("self_s", "s/op"))},
    **{f"reduction.sign.{s}": u for s, u in (
        ("calls", "count/op"), ("self_s", "s/op"), ("certified_ratio", "ratio"))},
    **{f"signed_binary.compare_counted.{s}": u for s, u in (
        ("calls", "count/op"), ("iters", "count/op"), ("self_s", "s/op"))},
    **{f"signed_binary.make_compact.{s}": u for s, u in (("calls", "count/op"), ("self_s", "s/op"))},
    **{f"circuit.reachable_from_marks.{s}": u for s, u in (
        ("calls", "count/op"), ("self_s", "s/op"), ("visited", "count/op"))},
    "circuit.geometric_order.self_s": "s/op",
    "circuit.standardize_inplace.self_s": "s/op",
    "circuit.from_integer.calls": "count/op",
    "circuit.from_integer.self_s": "s/op",
    "circuit.from_json_dict.self_s": "s/op",
    "circuit.to_json_dict.self_s": "s/op",
    "trace.overhead_ratio": "ratio",
    "trace.uncovered_ratio": "ratio",
}


class Tracer:
    """Span recorder for one process; install() on an imported package."""

    def __init__(self):
        # one column per span field, appended when a span ends; names are
        # indices into self.names
        self.columns = tuple(array("q") for _ in SPAN_FIELDS)
        self.names = [OP]
        self.counts = defaultdict(int)
        self.improper_ops = set()
        self.op_id = -1
        self._stack = [-1]
        self._ids = itertools.count()
        self._undo = []

    def install(self, pc):
        for module, attr, name, count in LAYERS:
            mod = getattr(pc, module)
            call = self._reduce_call(pc) if name == "reduction.reduce" else None
            orig = getattr(mod, attr)
            setattr(mod, attr, self._wrap(pc, orig, name, count, call))
            self._undo.append((mod, attr, orig))

    def uninstall(self):
        while self._undo:
            mod, attr, orig = self._undo.pop()
            setattr(mod, attr, orig)

    def _wrap(self, pc, orig, name, count, call):
        stack, ids = self._stack, self._ids
        s_col, p_col, o_col, n_col, t0_col, t1_col = self.columns
        if name not in self.names:
            self.names.append(name)
        nid = self.names.index(name)
        clock = time.perf_counter_ns

        @functools.wraps(orig)
        def wrapper(*args, **kwargs):
            sid = next(ids)
            parent = stack[-1]
            stack.append(sid)
            t0 = clock()
            try:
                result = orig(*args, **kwargs) if call is None else call(orig, *args, **kwargs)
            finally:
                t1 = clock()
                stack.pop()
                s_col.append(sid)
                p_col.append(parent)
                o_col.append(self.op_id)
                n_col.append(nid)
                t0_col.append(t0)
                t1_col.append(t1)
            if count is not None:
                count(self, pc, name, args, result)
            return result

        return wrapper

    def _reduce_call(self, pc):
        """Call reduce with a ReduceStats of the tracer's own, then hand the
        counts on to a caller that passed its own."""
        counts = self.counts

        def call(orig, c, stats=None):
            mine = pc.reduction.ReduceStats()
            result = orig(c, mine)
            for field in ("ops", "doublings", "separations"):
                n = getattr(mine, field)
                counts[f"reduction.{field}"] += n
                if stats is not None:
                    setattr(stats, field, getattr(stats, field) + n)
            return result

        return call

    def run_op(self, call):
        """Run one operation under a root span of its own."""
        self.op_id += 1
        sid = next(self._ids)
        self._stack.append(sid)
        t0 = time.perf_counter_ns()
        try:
            return call()
        finally:
            t1 = time.perf_counter_ns()
            self._stack.pop()
            for col, value in zip(self.columns, (sid, -1, self.op_id, 0, t0, t1)):
                col.append(value)

    def summary(self, untraced_ns: int, traced_ns: int):
        """(metrics, shares): every metric of METRICS, and each layer's self
        time as a share of the traced operations' time."""
        ops = max(self.op_id + 1, 1)
        stats = defaultdict(float, self.counts)
        child_ns = {}
        calls = [0] * len(self.names)
        self_ns = [0] * len(self.names)
        op_ns = 0
        for sid, parent, _, nid, t0, t1 in zip(*self.columns):  # children end first
            dur = t1 - t0
            calls[nid] += 1
            self_ns[nid] += dur - child_ns.pop(sid, 0)
            if parent >= 0:
                child_ns[parent] = child_ns.get(parent, 0) + dur
            else:
                op_ns += dur
        for name, n, ns in zip(self.names, calls, self_ns):
            stats[f"{name}.calls"] += n
            stats[f"{name}.self_s"] += ns / 1e9
        op_s = op_ns / 1e9
        metrics = {m: stats[m] / ops for m in METRICS}
        signs = stats["reduction.sign.calls"]
        metrics["reduction.reduce.improper_ratio"] = len(self.improper_ops) / ops
        metrics["reduction.sign.certified_ratio"] = (
            stats["reduction.sign.certified"] / signs if signs else 0.0)
        metrics["trace.overhead_ratio"] = traced_ns / untraced_ns
        metrics["trace.uncovered_ratio"] = stats[f"{OP}.self_s"] / op_s
        shares = {m[: -len(".self_s")]: stats[m] / op_s
                  for m in sorted(stats) if m.endswith(".self_s") and stats[m]}
        return metrics, shares

    def write(self, path):
        """Write every span as one CSV line."""
        with open(path, "w") as f:
            f.write(",".join(SPAN_FIELDS) + "\n")
            for sid, parent, op, nid, t0, t1 in zip(*self.columns):
                f.write(f"{sid},{parent},{op},{self.names[nid]},{t0},{t1}\n")
