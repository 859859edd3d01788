"""Command line front end.

Exit codes: 0 for a defined result, 1 when the result is Undefined (or an
input circuit is improper), 2 for parse and input errors, 3 when an
intermediate circuit outgrows the vertex ceiling (the blow-up demo has its
own, n = 14).  Nesting depth has no limit of its own: parsing and
evaluation use explicit stacks.  An expression that starts with "-" goes
after "--", or argparse reads it as an option.
"""

from __future__ import annotations

import argparse
import functools
import hashlib
import json
import os
import sys

from . import generators, reduction, termlang
from . import circuit as circ
from . import terms as tm
from .circuit import BUDGET_EXCEEDED, IMPROPER, VariableCircuitError
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
    try:
        if path == "-":
            text = sys.stdin.read()
        else:
            with open(path, encoding="utf-8") as f:
                text = f.read()
    except UnicodeDecodeError as exc:
        raise circ.CircuitInvariantError(f"input is not UTF-8 text: {exc}") from exc
    return circ.from_json(text)


def _dump_circuit(c: circ.PowerCircuit) -> str:
    return json.dumps(circ.to_json_dict(c), sort_keys=True, separators=(",", ":"))


def _print_stats(c: circ.PowerCircuit, oracle_bits: int) -> int:
    """Print the integer, or the sizes and sha256 of the normal form when
    it is too wide; exit code 1 for an improper circuit."""
    n = circ.eval_bignum(c, bit_budget=oracle_bits)
    if n is not BUDGET_EXCEEDED and n is not IMPROPER:
        print(n)
        return 0
    if c.kind is not circ.CircuitKind.NORMAL:
        c = reduction.normalize(c)
        if c is IMPROPER:
            print("Improper", file=sys.stderr)
            return 1
    digest = hashlib.sha256(circ.canonical_bytes(c)).hexdigest()
    print(f"|V|={c.n_vertices()} |E|={c.n_edges()} |M|={len(c.marks)} sha256={digest}")
    return 0


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
    return _print_stats(r, args.oracle_bits)


def _term_arg(name: str, src: str, env: dict) -> tm.Term:
    """The term one argument spells, parsed on its own; a parse error names
    the argument and a column inside it."""
    try:
        t = termlang.parse(src, macro_env=env)
    except ParseError as e:
        raise ParseError(f"{name} argument: {e.message}", e.position) from None
    if not isinstance(t, tm.Term):
        raise ParseError(f"{name} argument: expected a term, found a relation", 0)
    return t


def cmd_cmp(args) -> int:
    env = _parse_let(args.let)
    node = tm.Sub(_term_arg("left", args.left, env), _term_arg("right", args.right, env))
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


def _realize_arg(expr: str, args):
    env = _parse_let(args.let)
    t = _term_arg("input", expr, env)
    return termlang.realize(t, env=env, max_vertices=args.max_vertices)


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
    return _print_stats(c, args.oracle_bits)


def cmd_export(args) -> int:
    c = _input_circuit(args)
    if c is None:
        print("Undefined")
        return 1
    out = circ.to_dot(c) if args.format == "dot" else _dump_circuit(c) + "\n"
    sys.stdout.write(out)
    return 0


def cmd_demo(args) -> int:
    """Product of path circuits whose normal form needs 2^(n-3) marks."""
    n = args.n
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


def _add_common(p):
    p.add_argument("--let", action="append", metavar="NAME=INT",
                   help="bind a variable (repeatable); also usable as tower() height")
    p.add_argument("--max-vertices", type=int, default=10**6,
                   help="abort when an intermediate circuit outgrows this")
    p.add_argument("--oracle-bits", type=int, default=1 << 20,
                   help="print integers only up to this many bits")


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The argument parser, built once per process: parse_args leaves it
    as it was, and building it takes over ten times as long as a parse."""
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

    p = sub.add_parser("demo", help="the multiplication blow-up walkthrough")
    p.add_argument("name", choices=["blowup"])
    p.add_argument("--n", type=int, default=9, help="largest factor index")
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
    except VariableCircuitError as e:
        print(f"error: {e}", file=sys.stderr)
        return 2
    except (circ.CircuitError, OSError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
