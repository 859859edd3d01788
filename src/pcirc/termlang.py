"""The exponential term language: parsing, circuit embedding, evaluation.

Terms are built from integers, variables, +, -, *, and the shifts
`x <<^ y` (x times 2^y) and `x >>^ y` (x times 2^(-y)); `2^(e)` abbreviates
`1 <<^ (e)`.  Formulas combine `<=`, `=` and `<` atoms with `|`, `&`, `!`.
One grammar parses both, by precedence climbing over a table of binding
powers; an operator whose operand has the wrong kind is a syntax error at
that position, so "1 + (x = y)" fails the way it should.

Evaluation never touches big integers.  A term or formula is first
hash-consed by `terms.dag`, the one traversal of the term structure, into
a DAG of its distinct subterms and subformulas, so a subterm that occurs
twice, like tower(x) in tower(x)+1 - tower(x) or in two atoms of one
formula, is evaluated once; its value is held only until its last parent
has taken it.  One post-order walk then maps the DAG bottom-up into one
certified circuit, a `reduction.Pool`, that only grows until it passes the
vertex ceiling: every term's value is a compact marking of its vertices.
A sum or difference merges two markings and carries, a shift adds each
summand's exponent to the shift's and looks the new vertex up or places it
with one binary search, and an atom is the sign of the leading digit of
its difference, so no operand is ever copied or swept again.  Products
and quotients are built as circuits from the pool's subgraphs, reduced,
which decides whether a quotient is defined, and taken back into the
pool, which makes them compact.  The pool hands the result out already
normal, so nothing here calls `normalize`.  A connective decided by its
first operand never evaluates its second, which is why this walk is its
own and not a `terms.fold`.  The structural embedding `tau` is a fold.
The parser and the walks keep explicit stacks, so nesting depth costs time
and memory but no interpreter recursion.  Division making a value leave
the integers yields Undefined carrying the path to the offending subterm,
and a vertex-count ceiling on each value's part of the pool and on each
product's and quotient's circuits turns runaway growth into
CircuitBudgetError instead of an out-of-memory kill.
"""

from __future__ import annotations

import re
from dataclasses import dataclass

from . import arithmetic
from . import circuit as circ
from . import reduction
from .circuit import IMPROPER, PowerCircuit, VariableCircuitError
from .terms import (
    Add,
    And,
    Atom,
    Const,
    DivPow2,
    Formula,
    Mul,
    MulPow2,
    Not,
    Or,
    Sub,
    Term,
    Var,
    dag,
    fold,
)


class ParseError(ValueError):
    """Syntax error with a zero-based source position."""

    def __init__(self, message: str, position: int):
        super().__init__(f"{message} (column {position})")
        self.message = message
        self.position = position


class CircuitBudgetError(RuntimeError):
    """An intermediate circuit outgrew the vertex ceiling."""


@dataclass(frozen=True)
class Undefined:
    """A quotient left the integers; witness is the subterm path (0/1 child
    steps from the root) of the operation that failed."""

    witness: tuple = ()


# -- tokenizer ---------------------------------------------------------------

_TOKEN_RE = re.compile(
    r"\s*(?:(?P<num>0[bB][01]+|[0-9]+)"
    r"|(?P<name>[A-Za-z_][A-Za-z0-9_]*)"
    r"|(?P<op><<\^|>>\^|<=|>=|[<>=+\-*()|&!^]))"
)


def _tokenize(src: str):
    tokens = []
    pos = 0
    while pos < len(src):
        m = _TOKEN_RE.match(src, pos)
        if m is None:
            stripped = src[pos:].lstrip()
            if not stripped:
                break
            at = len(src) - len(stripped)
            raise ParseError(f"unexpected character {stripped[0]!r}", at)
        if m.group("num") is not None:
            text = m.group("num")
            value = int(text, 2 if text[:2].lower() == "0b" else 10)
            tokens.append(("num", value, m.start("num")))
        elif m.group("name") is not None:
            tokens.append(("name", m.group("name"), m.start("name")))
        else:
            tokens.append(("op", m.group("op"), m.start("op")))
        pos = m.end()
    tokens.append(("end", None, len(src)))
    return tokens


# binding powers, loosest first; ! and the unary minus are the prefix
# operators, and no binary one shares their powers; the shifts associate to
# the right and the relations not at all
_NOT, _REL, _SHIFT, _NEG = 3, 4, 7, 8
_BINDING = {"|": 1, "&": 2, **dict.fromkeys(("<=", ">=", "<", ">", "="), _REL),
            "+": 5, "-": 5, "*": 6, "<<^": _SHIFT, ">>^": _SHIFT}
_BUILD = {"|": Or, "&": And, "+": Add, "-": Sub, "*": Mul, "<<^": MulPow2, ">>^": DivPow2}


def _of_kind(node, pos, kind):
    """node, if it is of the kind its operator needs; else a ParseError at pos."""
    if not isinstance(node, kind):
        raise ParseError("expected a term, found a relation" if kind is Term
                         else "expected a relation, found a term", pos)
    return node


class _Parser:
    """Precedence climbing over one token list, with explicit stacks.

    Applying an operator checks its operands' kinds instead of
    backtracking.  ops holds the pending operators as (binding power,
    symbol, position); the brackets "(" and "2^(" and the bottom of the
    stack have binding power 0.  vals holds each finished operand with the
    position a kind error about it names: its first token, or the operator
    of a relation or connective.
    """

    def __init__(self, tokens, macro_env):
        self.tokens = tokens
        self.i = 0
        self.macro_env = macro_env
        self.ops = [(0, None, 0)]
        self.vals = []

    def next(self):
        t = self.tokens[self.i]
        self.i += 1
        return t

    def at_op(self, op) -> bool:
        kind, value, _ = self.tokens[self.i]
        return kind == "op" and value == op

    def expect_op(self, op):
        kind, value, pos = self.next()
        if kind != "op" or value != op:
            raise ParseError(f"expected {op!r}", pos)

    def apply_top(self):
        """Replace the top operator and its operands by one node."""
        bp, op, pos = self.ops.pop()
        rhs = _of_kind(*self.vals.pop(), Formula if bp < _REL else Term)
        if bp in (_NOT, _NEG):
            node = Not(rhs) if op == "!" else Sub(Const(0), rhs)
        else:
            lhs = self.vals.pop()[0]
            if op in (">", ">="):
                lhs, rhs, op = rhs, lhs, op.replace(">", "<")
            node = Atom(lhs, op, rhs) if bp == _REL else _BUILD[op](lhs, rhs)
        self.vals.append((node, pos))

    def parse(self):
        ops, vals = self.ops, self.vals
        while True:
            kind, value, pos = self.next()  # an operand starts here
            if kind == "op" and value in ("-", "!", "("):
                # ! negates relations, so no term operator may be waiting
                if value == "!" and (ops[-1][0] >= _REL or ops[-1][1] == "2^("):
                    raise ParseError("expected a term", pos)
                ops.append(({"-": _NEG, "!": _NOT, "(": 0}[value], value, pos))
                continue
            if kind == "num" and self.at_op("^"):
                if value != 2:
                    raise ParseError("only base 2 exponentials exist here", pos)
                self.next()
                self.expect_op("(")
                ops.append((0, "2^(", pos))
                continue
            if kind == "num":
                vals.append((Const(value), pos))
            elif kind == "name":
                vals.append((self.tower() if value == "tower" else Var(value), pos))
            else:
                raise ParseError("expected a term", pos)
            while True:  # after an operand: apply what binds tighter than the next token
                kind, value, pos = self.next()
                bp = _BINDING.get(value, 0)  # no name or number spells an operator
                while ops[-1][0] > bp or 0 < ops[-1][0] == bp != _SHIFT:
                    top = ops[-1][0]
                    self.apply_top()
                    if top == bp == _REL:
                        raise ParseError("chained comparisons are not supported", pos)
                # inside 2^( ) only a sum may stand
                if bp > _REL or bp and ops[-1][1] != "2^(":
                    node, npos = vals[-1]
                    _of_kind(node, npos, Formula if bp < _REL else Term)
                    ops.append((bp, value, pos if bp <= _REL else npos))
                    break
                # the token closes the innermost bracket, or ends the input
                _, bracket, bpos = ops.pop()
                if bracket is None:
                    if kind != "end":
                        raise ParseError("trailing input", pos)
                    return vals[0][0]
                node, npos = vals.pop()
                if bracket == "2^(":
                    node = MulPow2(Const(1), _of_kind(node, npos, Term))
                if value != ")":
                    raise ParseError("expected ')'", pos)
                vals.append((node, bpos))

    def tower(self) -> Term:
        """tower(k): the k-fold iterated power 2^2^...^2, with tower(0) = 1.

        The height must resolve to a nonnegative integer at parse time,
        either a literal or a bound name.
        """
        self.expect_op("(")
        kind, value, apos = self.next()
        if kind == "num":
            height = value
        elif kind == "name" and value in self.macro_env:
            height = self.macro_env[value]
        else:
            raise ParseError("tower needs a literal or bound integer height", apos)
        if not isinstance(height, int) or height < 0:
            raise ParseError("tower height must be a nonnegative integer", apos)
        self.expect_op(")")
        t: Term = Const(1)
        for _ in range(height):
            t = MulPow2(Const(1), t)
        return t


def parse(src: str, macro_env: dict | None = None):
    """Term or Formula for a source string.

    macro_env supplies integer bindings usable as tower() heights.
    """
    return _Parser(_tokenize(src), macro_env or {}).parse()


# -- operations --------------------------------------------------------------

# names, not functions: looked up on the module at call time, so a wrapper
# installed on `arithmetic` sees every call
_OPERATION = {
    Add: "add",
    Sub: "subtract",
    Mul: "multiply",
    MulPow2: "mul_pow2",
    DivPow2: "div_pow2_raw",
}


def _apply(t, a: PowerCircuit, b: PowerCircuit) -> PowerCircuit:
    """The arithmetic operation of binary node t on operand circuits a, b."""
    return getattr(arithmetic, _OPERATION[type(t)])(a, b)


# -- structural embedding ----------------------------------------------------


def tau(t: Term) -> PowerCircuit:
    """Circuit with the term's value, built structurally and never reduced.

    Size is linear in the term over constants 0 and 1 and variables:
    at most 2|t| + 2 vertices and |t| + 1 marks, marks always sources.
    Quotients embed as raw negative-exponent wirings, so the result can be
    improper; properness is the evaluator's problem, not the embedding's.
    A subterm that occurs twice is embedded once and appended twice.
    """
    return fold(t, _embed_leaf, _apply, Term)


def _embed_leaf(u) -> PowerCircuit:
    if isinstance(u, Const):
        return circ.from_integer(u.value) if u.value else circ.zero_circuit()
    return circ.var_circuit(u.name)


# -- evaluation --------------------------------------------------------------


def _decides(u, v) -> bool:
    """Whether the value v of one operand decides node u on its own: False
    decides an And, True an Or, and Undefined any other node."""
    if isinstance(u, And):
        return v is False
    if isinstance(u, Or):
        return v is True
    return isinstance(v, Undefined)


def _negate(m: tuple) -> tuple:
    return tuple((v, -s) for v, s in m)


def _check_size(n: int, max_vertices: int):
    if n > max_vertices:
        raise CircuitBudgetError(f"{n} vertices exceed the ceiling")


def _value(u, args: list, env: dict, pool: reduction.Pool, max_vertices: int):
    """The value of node u from its operands' values, finished left to
    right until one decided it: a compact marking in pool for a term, a
    bool for a formula, or Undefined.  An Undefined names its witness path
    from u, so the witness of a shared subterm is right wherever it occurs."""
    if isinstance(u, Const):
        return pool.integer(u.value)
    if isinstance(u, Var):
        try:
            r = env[u.name]
        except KeyError:
            raise VariableCircuitError(f"no binding for variable {u.name!r}") from None
        if not isinstance(r, PowerCircuit):
            return pool.integer(r)
        r = pool.take(r)
        return Undefined() if r is IMPROPER else r
    if isinstance(u, (And, Or)) and _decides(u, args[-1]):
        return args[-1]
    for j, a in enumerate(args):
        if isinstance(a, Undefined):
            return Undefined((j,) + a.witness)
    if isinstance(u, Not):
        return not args[0]
    if isinstance(u, (And, Or)):
        return args[-1]
    a, b = args
    if isinstance(u, Add):
        return pool.add(a, b)
    if isinstance(u, Sub):
        return pool.add(a, _negate(b))
    if isinstance(u, Atom):
        d = pool.add(a, _negate(b))
        s = d[0][1] if d else 0
        return {"<=": s <= 0, "=": s == 0, "<": s < 0}[u.rel]
    if isinstance(u, MulPow2):
        r = pool.shift(a, b)
        return Undefined() if r is None else r
    # a product, and the quotient whose definedness reduce decides, are
    # built as circuits, reduced and taken back into the pool
    raw = _apply(u, pool.circuit(a), pool.circuit(b))
    _check_size(raw.n_vertices(), max_vertices)
    r = reduction.reduce(raw)
    if r is IMPROPER:
        return Undefined()
    _check_size(r.n_vertices(), max_vertices)
    return pool.take(r)


def _evaluate(root, kind, env: dict, pool: reduction.Pool, max_vertices: int):
    """A marking in pool for a term, a bool for a formula, or Undefined.

    One post-order walk over `terms.dag`, with an explicit stack.
    Each distinct node is evaluated once, however often it occurs: a value
    with more than one parent waits in the memo until its last parent has
    taken it, and one with a single parent is dropped once that parent is
    done.  Operands are finished left to right and a node stops at the
    first one that decides it, so an atom a connective skips is never
    realized.  Once the pool outgrows the vertex ceiling, every operation
    drops the vertices that no held value reaches and checks the ceiling
    against the part of the pool its own value reaches, so the ceiling
    bounds each result, as it bounds each product's circuits, and not all
    that was built; a constant or a binding is not checked on its own.
    """
    nodes, parents = dag(root, kind)
    memo = {}  # id -> [value, parents still to take it]
    done = []  # values of finished operands whose node is not finished
    stack = [(len(nodes) - 1, 0)]  # (id, operands finished)
    while stack:
        i, k = stack.pop()
        hit = memo.get(i)
        if hit is not None:
            hit[1] -= 1
            if not hit[1]:
                del memo[i]
            done.append(hit[0])
            continue
        u, kids = nodes[i]
        if k < len(kids) and not (k and _decides(u, done[-1])):
            stack += [(i, k + 1), (kids[k], 0)]
            continue
        v = _value(u, done[len(done) - k:], env, pool, max_vertices)
        del done[len(done) - k:]
        if len(pool.succ) > max_vertices and kids and isinstance(v, tuple):
            _check_size(len(pool.reach([v])), max_vertices)
            pool.keep([w for w in done + [m[0] for m in memo.values()] + [v]
                       if isinstance(w, tuple)])
        if parents[i] > 1:
            memo[i] = [v, parents[i] - 1]
        done.append(v)
    return done[0]


def realize(t: Term, env: dict | None = None, max_vertices: int = 10**6):
    """Normal-form circuit for the term under an assignment, or Undefined.

    Bindings may be integers or circuits; a circuit binding is taken into
    the pool as it is, so an improper one is Undefined at the variable.
    The term is evaluated inside one certified circuit, its pool: every
    subterm's value is a compact marking there, so a sum merges two
    markings and carries, a shift adds one vertex per summand, and each new
    value is placed with one binary search.  Products and quotients are
    reduced as circuits and taken back into the pool; that reduction
    decides quotient definedness.  The result is the subgraph of the pool
    that the term's marking reaches, which is already the normal form, with
    the pool's vertex ids.  Each distinct subterm is evaluated once,
    however often it occurs.  The vertex ceiling caps each value's part of
    the pool and each product's and quotient's raw and reduced circuits.
    """
    pool = reduction.Pool()
    r = _evaluate(t, Term, env or {}, pool, max_vertices)
    return r if isinstance(r, Undefined) else pool.circuit(r)


def eval_formula(f: Formula, env: dict | None = None, max_vertices: int = 10**6):
    """True, False, or Undefined under strict three-valued semantics.

    An atom with an Undefined side is Undefined; "and"/"or" are decided by
    a dominating defined operand (False and anything is False, True or
    anything is True); "not" preserves Undefined.  All atoms share one
    pool, so each distinct subterm is evaluated once across them, and an
    atom is the sign of the leading digit of its difference's marking.
    """
    return _evaluate(f, Formula, env or {}, reduction.Pool(), max_vertices)
