"""Workloads of the pcirc benchmark: inputs built from a seed, plus the
reference every answer is checked against.

A workload is a fixed pool of cases.  The sizes of the pool come from a
fixed grid (so every seed asks for the same amount of work), and the seed
picks the content: the small offsets, the random graphs, the random
integers.  Every reference is independent of the reduction engine: Python
integer arithmetic, signs known by construction, the 2^(n-3) mark count the
paper proves for the blow-up family, and the CLI's documented verdict text
and exit codes.
"""

from __future__ import annotations

import contextlib
import io
import json
import random
import sys
from dataclasses import dataclass
from typing import Callable

WORKLOADS = ("deep-sign", "term-eval", "json-normalize")


@dataclass
class Case:
    """One operation of a workload.

    `call` is the timed operation; `check(output, expected)` decides, after
    the clock has stopped, whether its output is right.
    """

    kind: str
    call: Callable[[], object]
    expected: object
    check: Callable[[object, object], bool]


def _equal(output, expected) -> bool:
    return output == expected


# Size grids.  "full" is what the benchmark measures; "tiny" keeps the smoke
# test fast while still running every kind of case.  The full grids are
# dense so that the median latency moves smoothly, not from case to case.
# Random integers make the cost of a case depend on the seed, so those
# cases come in CONTENTS draws per size, which averages that out.
CONTENTS = 2
SIZES = {
    "deep-sign": {
        "full": {"heights": tuple(range(200, 601, 50)), "twins": tuple(range(100, 401, 50))},
        "tiny": {"heights": (12, 20), "twins": (10, 20)},
    },
    "term-eval": {
        "full": {"cmp": tuple(range(20, 61, 5)), "huge_bits": (64, 96, 128, 192, 256),
                 "literal_bits": (128, 256, 384, 512)},
        "tiny": {"cmp": (3, 5), "huge_bits": (8,), "literal_bits": (16,)},
    },
    "json-normalize": {
        "full": {"summands": tuple(range(4, 17)), "bits": 256, "blowup": (10, 11, 12)},
        "tiny": {"summands": (2, 3), "bits": 32, "blowup": (5, 6)},
    },
}


def build(workload: str, pc, seed: int, scale: str = "full") -> list:
    """The case pool of a workload, built on the imported package `pc`."""
    rng = random.Random(f"{workload}/{seed}")
    sizes = SIZES[workload][scale]
    if workload == "deep-sign":
        return _deep_sign(pc, rng, **sizes)
    if workload == "term-eval":
        return _term_eval(pc, rng, **sizes)
    if workload == "json-normalize":
        return _json_normalize(pc, rng, **sizes)
    raise ValueError(f"unknown workload {workload!r}")


# -- deep-sign ----------------------------------------------------------------


def _towers(pc, heights) -> dict:
    """tower(n) for every n in heights, from one chain of exp2 steps."""
    out = {}
    t = pc.circuit.one_circuit()
    for n in range(1, max(heights) + 1):
        t = pc.arithmetic.exp2(t)
        if n in heights:
            out[n] = t
    return out


def _positive_dag(pc, rng, n: int, window: int = 8):
    """All-positive random DAG on n vertices with every source marked.

    Each vertex points at one to three of the `window` vertices made just
    before it, which keeps the DAG deep and its values mostly distinct, and
    marking the sources keeps every vertex reachable.  Every edge and mark
    is +1, so the circuit is proper by construction.
    """
    c = pc.circuit.PowerCircuit()
    vs = [c.add_vertex()]
    for _ in range(1, n):
        v = c.add_vertex()
        recent = vs[-window:]
        for t in rng.sample(recent, min(len(recent), rng.choice((1, 2, 2, 3)))):
            c.add_edge(v, t, 1)
        vs.append(v)
    for v in vs:
        if not c.in_vertices(v):
            c.set_mark(v, 1)
    return c.freeze()


def _relabel(pc, rng, c):
    """The same DAG with its vertex ids renumbered by a random permutation."""
    old = sorted(c.vertices())
    w = pc.circuit.PowerCircuit()
    new = {v: w.add_vertex() for v in rng.sample(old, len(old))}
    for v in old:
        for t, s in c.out_edges(v).items():
            w.add_edge(new[v], new[t], s)
    for v, s in c.marks.items():
        w.set_mark(new[v], s)
    return w.freeze()


def _sign_case(pc, kind, circuit, expected) -> Case:
    return Case(kind, lambda: pc.reduction.sign(circuit), expected, _equal)


def _deep_sign(pc, rng, heights, twins) -> list:
    ar = pc.arithmetic
    num = pc.circuit.from_integer
    towers = _towers(pc, {h + d for h in heights for d in range(-7, 8)})
    cases = []
    for n in heights:
        a, b = rng.sample(range(1, 64), 2)
        d = ar.subtract(ar.add(towers[n], num(a)), ar.add(towers[n], num(b)))
        cases.append(_sign_case(pc, "tower+a-tower-b", d, (a > b) - (a < b)))
    for n in heights:
        m = n + rng.choice((-1, 1)) * rng.randrange(1, 8)
        d = ar.subtract(towers[n], towers[m])
        cases.append(_sign_case(pc, "tower-n-tower-m", d, (n > m) - (n < m)))
    for n in twins:
        c = _positive_dag(pc, rng, n)
        cases.append(_sign_case(pc, "twin", ar.subtract(c, _relabel(pc, rng, c)), 0))
        c = _positive_dag(pc, rng, n)
        plus = ar.subtract(ar.add(c, num(1)), _relabel(pc, rng, c))
        cases.append(_sign_case(pc, "twin+1", plus, 1))
    return cases


# -- the CLI, in process --------------------------------------------------------


def _cli_call(pc, argv: list, stdin_text: str | None = None) -> Callable:
    """One in-process `pcirc` command; returns (exit code, stdout text)."""

    def call():
        out = io.StringIO()
        saved_stdin = sys.stdin
        if stdin_text is not None:
            sys.stdin = io.StringIO(stdin_text)
        try:
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
                code = pc.cli.main(argv)
        finally:
            sys.stdin = saved_stdin
        return code, out.getvalue()

    return call


# -- term-eval -------------------------------------------------------------------


def _term_eval(pc, rng, cmp, huge_bits, literal_bits) -> list:
    cases = []

    def add(kind, argv, stdout, code):
        cases.append(Case(kind, _cli_call(pc, argv), (code, stdout), _equal))

    for k in cmp:
        a, b = rng.randrange(1, 16), rng.randrange(1, 16)
        add("cmp-tower", ["cmp", f"tower(x)+{a}", f"tower(x)+{b}", "--let", f"x={k}"],
            "<=>"[(a > b) - (a < b) + 1] + "\n", 0)
    for bits in huge_bits:
        # both orders of one pair: `<` is `<=` and not `=`, and a False `<=`
        # skips the `=`, so the answer changes the work
        x = rng.getrandbits(bits) | 1 << (bits - 1)
        y = x + rng.randrange(1, 1 << 16)
        for lo, hi in ((x, y), (y, x)):
            add("huge-exp-less", ["eval", "2^(2^(x)) < 2^(2^(y))", "--let", f"x={lo}",
                                  "--let", f"y={hi}"], f"{lo < hi}\n", 0)
    for bits in huge_bits:
        x, y = rng.getrandbits(32) | 1, rng.getrandbits(bits) | 1 << (bits - 1)
        add("shift-roundtrip", ["eval", "(x <<^ y) >>^ y = x", "--let", f"x={x}", "--let", f"y={y}"],
            "True\n", 0)
        # x is odd, so x * 2^y / 2^(y+1) leaves the integers
        add("shift-undefined", ["eval", "(x <<^ y) >>^ (y + 1)", "--let", f"x={x}", "--let", f"y={y}"],
            "Undefined\n", 1)
    for bits in literal_bits:
        for _ in range(CONTENTS):
            a, b, c = (rng.getrandbits(bits) | 1 << (bits - 1) for _ in range(3))
            d = a + b - c
            for rhs in (d, d + (1 << rng.randrange(bits))):
                add("literal-sum", ["eval", f"{a} + {b} - {c} = {rhs}"], f"{rhs == d}\n", 0)
    return cases


# -- json-normalize -----------------------------------------------------------------


def _json_value(doc: dict, max_exponent: int = 1 << 16) -> int:
    """Value of a circuit JSON document, evaluated here with Python ints.

    Raises ValueError on a vertex whose value is not a natural number or on
    an exponent beyond max_exponent.
    """
    succ = {v["id"]: [] for v in doc["vertices"]}
    for e in doc["edges"]:
        succ[e["from"]].append((e["to"], e["sign"]))
    value = {}
    for root in succ:
        stack = [root]
        while stack:
            v = stack[-1]
            if v in value:
                stack.pop()
                continue
            todo = [t for t, _ in succ[v] if t not in value]
            if todo:
                stack.extend(todo)
                continue
            stack.pop()
            if not succ[v]:
                value[v] = 0
                continue
            p = sum(s * value[t] for t, s in succ[v])
            if p < 0 or p > max_exponent:
                raise ValueError(f"vertex {v} has exponent {p}")
            value[v] = 1 << p
    return sum(m["sign"] * value[m["vertex"]] for m in doc["marks"])


def _check_sum(output, expected) -> bool:
    code, text = output
    if code != 0:
        return False
    doc = json.loads(text)
    return doc["kind"] == "normal" and _json_value(doc) == expected


def _check_marks(output, expected) -> bool:
    code, text = output
    if code != 0:
        return False
    doc = json.loads(text)
    return doc["kind"] == "normal" and len(doc["marks"]) == expected


def _dump(pc, c) -> str:
    return json.dumps(pc.circuit.to_json_dict(c))


def _json_normalize(pc, rng, summands, bits, blowup) -> list:
    ar = pc.arithmetic
    num = pc.circuit.from_integer
    cases = []
    for k in [k for k in summands for _ in range(CONTENTS)]:
        total = rng.getrandbits(bits) | 1 << (bits - 1)
        c = num(total)
        for i in range(k - 1):
            v = rng.getrandbits(bits) | 1 << (bits - 1)
            if i % 2:
                c, total = ar.add(c, num(v)), total + v
            else:
                c, total = ar.subtract(c, num(v)), total - v
        call = _cli_call(pc, ["normalize", "-"], _dump(pc, c))
        cases.append(Case("sum", call, total, _check_sum))
    for n in blowup:
        call = _cli_call(pc, ["normalize", "-"], _dump(pc, pc.generators.blowup_product(n)))
        cases.append(Case("blowup", call, 1 << (n - 3), _check_marks))
    return cases
