"""Command line front end.

Exit codes: 0 for a defined result, 1 when the result is Undefined (or an
input circuit is improper), 2 for parse errors, 3 when a vertex budget is
exceeded or the input nests too deeply to process.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import random
import sys
import time

from . import generators, reduction, termlang
from . import circuit as circ
from . import terms as tm
from .circuit import BUDGET_EXCEEDED, IMPROPER, VariableCircuitError
from .signed_binary import compact_of_integer
from .termlang import CircuitBudgetError, ParseError


def _parse_let(pairs):
    env = {}
    for item in pairs or []:
        name, sep, value = item.partition("=")
        if not sep or not name.isidentifier():
            raise ParseError(f"--let wants NAME=INT, got {item!r}", 0)
        try:
            env[name] = int(value, 0)
        except ValueError:
            raise ParseError(f"--let {name}: {value!r} is not an integer", 0) from None
    return env


def _load_circuit(path: str) -> circ.PowerCircuit:
    data = sys.stdin.read() if path == "-" else open(path).read()
    return circ.from_json_dict(json.loads(data))


def _dump_circuit(c: circ.PowerCircuit) -> str:
    return json.dumps(circ.to_json_dict(c), sort_keys=True, separators=(",", ":"))


def _realize_arg(expr: str, args):
    env = _parse_let(args.let)
    t = termlang.parse(expr, macro_env=env)
    if not isinstance(t, tm.Term):
        raise ParseError("expected a term, found a relation", 0)
    return termlang.realize(t, env=env, max_vertices=args.max_vertices)


def _print_stats(c: circ.PowerCircuit, oracle_bits: int):
    n = circ.eval_bignum(c, bit_budget=oracle_bits)
    if n is not BUDGET_EXCEEDED and n is not IMPROPER:
        print(n)
        return
    digest = hashlib.sha256(circ.canonical_bytes(c)).hexdigest()
    print(f"|V|={c.n_vertices()} |E|={c.n_edges()} |M|={len(c.marks)} sha256={digest}")


def cmd_eval(args) -> int:
    env = _parse_let(args.let)
    node = termlang.parse(args.expr, macro_env=env)
    if isinstance(node, tm.Formula):
        r = termlang.eval_formula(node, env, max_vertices=args.max_vertices)
        if isinstance(r, termlang.Undefined):
            print("Undefined")
            return 1
        print(r)
        return 0
    r = termlang.realize(node, env, max_vertices=args.max_vertices)
    if isinstance(r, termlang.Undefined):
        print("Undefined")
        return 1
    _print_stats(r, args.oracle_bits)
    return 0


def cmd_cmp(args) -> int:
    env = _parse_let(args.let)
    node = termlang.parse(f"({args.left}) - ({args.right})", macro_env=env)
    if not isinstance(node, tm.Term):
        raise ParseError("cmp wants two terms", 0)
    r = termlang.realize(node, env, max_vertices=args.max_vertices)
    if isinstance(r, termlang.Undefined):
        print("Undefined")
        return 1
    print({-1: "<", 0: "=", 1: ">"}[reduction.sign(r)])
    return 0


def cmd_normalize(args) -> int:
    c = _load_circuit(args.input)
    r = reduction.normalize(c)
    if r is IMPROPER:
        print("Improper", file=sys.stderr)
        return 1
    print(_dump_circuit(r))
    return 0


def _input_circuit(args):
    """Inline expression, or a JSON file when the input names one."""
    if args.input == "-" or os.path.exists(args.input):
        return _load_circuit(args.input)
    r = _realize_arg(args.input, args)
    if isinstance(r, termlang.Undefined):
        return None
    return r


def cmd_stats(args) -> int:
    c = _input_circuit(args)
    if c is None:
        print("Undefined")
        return 1
    cert = "none" if c.certificate is None else f"{len(c.certificate.order)} vertices"
    print(f"kind={c.kind.value} |V|={c.n_vertices()} |E|={c.n_edges()} "
          f"|M|={len(c.marks)} size={c.size()} certificate={cert}")
    _print_stats(c, args.oracle_bits)
    return 0


def cmd_export(args) -> int:
    c = _input_circuit(args)
    if c is None:
        print("Undefined")
        return 1
    out = circ.to_dot(c) if args.format == "dot" else _dump_circuit(c) + "\n"
    sys.stdout.write(out)
    return 0


def cmd_bench(args) -> int:
    print("n,vertices,ops,seconds")
    if args.family == "tower":
        for n in range(1, args.n_max + 1):
            stats = reduction.ReduceStats()
            t0 = time.perf_counter()
            r = reduction.reduce(generators.tower_circuit(n), stats)
            dt = time.perf_counter() - t0
            print(f"{n},{r.n_vertices()},{stats.ops},{dt:.6f}")
        return 0
    rng = random.Random(args.seed)
    n = 10
    while n <= args.n_max:
        stats = reduction.ReduceStats()
        t0 = time.perf_counter()
        for _ in range(args.trials):
            reduction.reduce(generators.random_circuit(rng, n), stats)
        dt = time.perf_counter() - t0
        print(f"{n},{n},{stats.ops // args.trials},{dt:.6f}")
        n *= 2
    return 0


def cmd_demo(args) -> int:
    if args.name == "blowup":
        return _demo_blowup(args.n)
    return _demo_div3(args.j)


def _demo_blowup(n: int) -> int:
    """Product of path circuits whose normal form needs 2^(n-3) marks."""
    if n < 4:
        print("the product family starts at n = 4", file=sys.stderr)
        return 2
    if n > 14:
        print("n > 14 exceeds the demo budget", file=sys.stderr)
        return 3
    print("n,raw_vertices,raw_marks,normal_vertices,normal_marks,lower_bound")
    for i in range(4, n + 1):
        p = generators.blowup_product(i)
        nf = reduction.normalize(p)
        print(f"{i},{p.n_vertices()},{len(p.marks)},{nf.n_vertices()},"
              f"{len(nf.marks)},{1 << (i - 3)}")
    return 0


def _demo_div3(j: int) -> int:
    """Dividing 4^(i+1)-1 by 3 at tower heights i needs huge circuits.

    With i = t(j) where t(0) = 2 and t(j) = 2^t(j-1): the circuit for
    4^(i+1)-1 stays O(j) vertices, but the quotient (4^(i+1)-1)/3 is the
    compact sum 4^i + ... + 4 + 1 of i+1 terms, and no circuit below that
    size denotes it.
    """
    if j < 0:
        print("j must be nonnegative", file=sys.stderr)
        return 2
    if j > 3:
        print("j > 3 exceeds the demo budget (i is a tower)", file=sys.stderr)
        return 3
    print("j,i,compact_terms,min_circuit_vertices")
    i = 2
    for step in range(0, j + 1):
        n = (4 ** (i + 1) - 1) // 3
        terms = len(compact_of_integer(n).digits)
        assert terms == i + 1
        print(f"{step},{i},{terms},{terms}")
        if step < j:
            i = 2 ** i
    return 0


def _add_common(p):
    p.add_argument("--let", action="append", metavar="NAME=INT",
                   help="bind a variable (repeatable); also usable as tower() height")
    p.add_argument("--max-vertices", type=int, default=10**6,
                   help="abort when an intermediate circuit outgrows this")
    p.add_argument("--oracle-bits", type=int, default=1 << 20,
                   help="print integers only up to this many bits")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="pcirc",
        description="compressed integer arithmetic on power circuits")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("eval", help="evaluate a term or formula")
    p.add_argument("expr")
    _add_common(p)
    p.set_defaults(fn=cmd_eval)

    p = sub.add_parser("cmp", help="compare two terms; prints <, = or >")
    p.add_argument("left")
    p.add_argument("right")
    _add_common(p)
    p.set_defaults(fn=cmd_cmp)

    p = sub.add_parser("normalize", help="normal form of a circuit JSON file")
    p.add_argument("input", help="path to circuit JSON, or - for stdin")
    _add_common(p)
    p.set_defaults(fn=cmd_normalize)

    p = sub.add_parser("stats", help="sizes and kind of a circuit or expression")
    p.add_argument("input", help="circuit JSON path, - for stdin, or an expression")
    _add_common(p)
    p.set_defaults(fn=cmd_stats)

    p = sub.add_parser("export", help="write a circuit as DOT or JSON")
    p.add_argument("input", help="circuit JSON path, - for stdin, or an expression")
    p.add_argument("--format", choices=["dot", "json"], default="dot")
    _add_common(p)
    p.set_defaults(fn=cmd_export)

    p = sub.add_parser("bench", help="CSV timings over generated families")
    p.add_argument("--family", choices=["tower", "reduce"], default="reduce")
    p.add_argument("--n-max", type=int, default=80)
    p.add_argument("--trials", type=int, default=20)
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(fn=cmd_bench)

    p = sub.add_parser("demo", help="blowup and division-by-3 walkthroughs")
    p.add_argument("name", choices=["blowup", "div3"])
    p.add_argument("--n", type=int, default=9, help="blowup: largest factor index")
    p.add_argument("--j", type=int, default=2, help="div3: tower height of i")
    p.set_defaults(fn=cmd_demo)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.fn(args)
    except ParseError as e:
        print(f"parse error: {e}", file=sys.stderr)
        return 2
    except CircuitBudgetError as e:
        print(f"budget exceeded: {e}", file=sys.stderr)
        return 3
    except RecursionError:
        print("budget exceeded: nesting too deep", file=sys.stderr)
        return 3
    except VariableCircuitError as e:
        print(f"error: {e}", file=sys.stderr)
        return 2
    except (json.JSONDecodeError, circ.CircuitError, OSError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
