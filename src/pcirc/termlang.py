"""The exponential term language: parsing, circuit embedding, evaluation.

Terms are built from integers, variables, +, -, *, and the shifts
`x <<^ y` (x times 2^y) and `x >>^ y` (x times 2^(-y)); `2^(e)` abbreviates
`1 <<^ (e)`.  Formulas combine `<=`, `=` and `<` atoms with `|`, `&`, `!`.
One grammar parses both; an operator whose operand has the wrong kind is a
syntax error at that position, so "1 + (x = y)" fails the way it should.

Evaluation never touches big integers: realize() maps a term bottom-up to
power circuits, reducing after every operation, so definedness of each
quotient is decided structurally; a formula atom is the sign of the
difference circuit.  Each reduction starts from the certificate of the
larger reduced operand and sweeps only the rest.  realize() first
hash-conses the term into a DAG of distinct subterms, so a subterm that
occurs twice, like tower(x) in tower(x)+1 - tower(x), is realized once; its
circuit is held only until its last parent has taken it.  Division making a
value leave the integers yields Undefined carrying the path to the
offending subterm, and a vertex-count ceiling turns runaway products into
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
)


class ParseError(ValueError):
    """Syntax error with a zero-based source position."""

    def __init__(self, message: str, position: int):
        super().__init__(f"{message} (column {position})")
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


class _Parser:
    """Recursive descent over one token list.

    Every rule returns a Term or a Formula; combining rules check operand
    kinds instead of backtracking.
    """

    def __init__(self, tokens, macro_env):
        self.tokens = tokens
        self.i = 0
        self.macro_env = macro_env

    def peek(self):
        return self.tokens[self.i]

    def next(self):
        t = self.tokens[self.i]
        self.i += 1
        return t

    def at_op(self, *ops) -> bool:
        kind, value, _ = self.peek()
        return kind == "op" and value in ops

    def expect_op(self, op):
        kind, value, pos = self.next()
        if kind != "op" or value != op:
            raise ParseError(f"expected {op!r}", pos)

    def term_operand(self, node, pos) -> Term:
        if not isinstance(node, Term):
            raise ParseError("expected a term, found a relation", pos)
        return node

    def formula_operand(self, node, pos) -> Formula:
        if not isinstance(node, Formula):
            raise ParseError("expected a relation, found a term", pos)
        return node

    # precedence low to high

    def parse_or(self):
        node, pos = self.parse_and()
        while self.at_op("|"):
            _, _, oppos = self.next()
            lhs = self.formula_operand(node, pos)
            rhs, rpos = self.parse_and()
            node = Or(lhs, self.formula_operand(rhs, rpos))
            pos = oppos
        return node, pos

    def parse_and(self):
        node, pos = self.parse_not()
        while self.at_op("&"):
            _, _, oppos = self.next()
            lhs = self.formula_operand(node, pos)
            rhs, rpos = self.parse_not()
            node = And(lhs, self.formula_operand(rhs, rpos))
            pos = oppos
        return node, pos

    def parse_not(self):
        if self.at_op("!"):
            _, _, pos = self.next()
            sub, spos = self.parse_not()
            return Not(self.formula_operand(sub, spos)), pos
        return self.parse_comparison()

    def parse_comparison(self):
        node, pos = self.parse_sum()
        if not self.at_op("<=", ">=", "<", ">", "="):
            return node, pos
        _, op, oppos = self.next()
        lhs = self.term_operand(node, pos)
        rhs, rpos = self.parse_sum()
        rhs = self.term_operand(rhs, rpos)
        if self.at_op("<=", ">=", "<", ">", "="):
            raise ParseError("chained comparisons are not supported", self.peek()[2])
        if op in (">", ">="):
            lhs, rhs = rhs, lhs
            op = "<" if op == ">" else "<="
        return Atom(lhs, op, rhs), oppos

    def parse_sum(self):
        node, pos = self.parse_product()
        while self.at_op("+", "-"):
            _, op, _ = self.next()
            lhs = self.term_operand(node, pos)
            rhs, rpos = self.parse_product()
            rhs = self.term_operand(rhs, rpos)
            node = Add(lhs, rhs) if op == "+" else Sub(lhs, rhs)
        return node, pos

    def parse_product(self):
        node, pos = self.parse_shift()
        while self.at_op("*"):
            self.next()
            lhs = self.term_operand(node, pos)
            rhs, rpos = self.parse_shift()
            node = Mul(lhs, self.term_operand(rhs, rpos))
        return node, pos

    def parse_shift(self):
        node, pos = self.parse_unary()
        if self.at_op("<<^", ">>^"):
            _, op, _ = self.next()
            lhs = self.term_operand(node, pos)
            rhs, rpos = self.parse_shift()  # right associative
            rhs = self.term_operand(rhs, rpos)
            node = MulPow2(lhs, rhs) if op == "<<^" else DivPow2(lhs, rhs)
        return node, pos

    def parse_unary(self):
        if self.at_op("-"):
            _, _, pos = self.next()
            sub, spos = self.parse_unary()
            return Sub(Const(0), self.term_operand(sub, spos)), pos
        return self.parse_primary()

    def parse_primary(self):
        kind, value, pos = self.next()
        if kind == "num":
            if self.at_op("^"):
                if value != 2:
                    raise ParseError("only base 2 exponentials exist here", pos)
                self.next()
                self.expect_op("(")
                exp, epos = self.parse_sum()
                exp = self.term_operand(exp, epos)
                self.expect_op(")")
                return MulPow2(Const(1), exp), pos
            return Const(value), pos
        if kind == "name":
            if value == "tower":
                return self.parse_tower(pos), pos
            return Var(value), pos
        if kind == "op" and value == "(":
            node, _ = self.parse_or()
            self.expect_op(")")
            return node, pos
        raise ParseError("expected a term", pos)

    def parse_tower(self, pos) -> Term:
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

    def parse_all(self):
        node, _ = self.parse_or()
        kind, _, pos = self.peek()
        if kind != "end":
            raise ParseError("trailing input", pos)
        return node


def parse(src: str, macro_env: dict | None = None):
    """Term or Formula for a source string.

    macro_env supplies integer bindings usable as tower() heights.
    """
    return _Parser(_tokenize(src), macro_env or {}).parse_all()


# -- structural embedding ----------------------------------------------------


def tau(t: Term) -> PowerCircuit:
    """Circuit with the term's value, built structurally and never reduced.

    Size is linear in the term over constants 0 and 1 and variables:
    at most 2|t| + 2 vertices and |t| + 1 marks, marks always sources.
    Quotients embed as raw negative-exponent wirings, so the result can be
    improper; properness is the evaluator's problem, not the embedding's.
    """
    if isinstance(t, Const):
        if t.value == 0:
            return circ.zero_circuit()
        return circ.from_integer(t.value)
    if isinstance(t, Var):
        return circ.var_circuit(t.name)
    return _apply(t, tau(t.lhs), tau(t.rhs))


# names, not functions: looked up on the module at call time, so a wrapper
# installed on `arithmetic` sees every call
_OPERATION = {
    Add: "add",
    Sub: "subtract",
    Mul: "multiply",
    MulPow2: "mul_pow2",
    DivPow2: "div_pow2_raw",
}


def _apply(t: Term, a: PowerCircuit, b: PowerCircuit) -> PowerCircuit:
    """The arithmetic operation of binary node t on operand circuits a, b."""
    name = _OPERATION.get(type(t))
    if name is None:
        raise TypeError(f"not a term: {t!r}")
    return getattr(arithmetic, name)(a, b)


# -- evaluation --------------------------------------------------------------


class _Undef(Exception):
    def __init__(self, path: tuple):
        self.path = path


def _hash_cons(t: Term):
    """The term as a DAG of its distinct subterms, without recursion.

    Returns (nodes, parents): nodes[i] is (term, lhs id, rhs id), with None
    ids for leaves, listed children first and the root last; parents[i]
    counts the references to id i from other nodes, so a subterm used twice
    by one node counts twice.
    """
    ids = {}  # structural key -> id
    of = {}  # id() of a term object -> its id; t keeps every object alive
    nodes = []
    parents = []
    stack = [(t, False)]
    while stack:
        u, expanded = stack.pop()
        if id(u) in of:
            continue
        if isinstance(u, (Const, Var)):
            key = (type(u), u.value if isinstance(u, Const) else u.name)
            lhs = rhs = None
        elif type(u) not in _OPERATION:
            raise TypeError(f"not a term: {u!r}")
        elif not expanded:
            stack += [(u, True), (u.rhs, False), (u.lhs, False)]
            continue
        else:
            lhs, rhs = of[id(u.lhs)], of[id(u.rhs)]
            key = (type(u), lhs, rhs)
        i = ids.get(key)
        if i is None:
            i = ids[key] = len(nodes)
            nodes.append((u, lhs, rhs))
            parents.append(0)
            if lhs is not None:
                parents[lhs] += 1
                parents[rhs] += 1
        of[id(u)] = i
    return nodes, parents


class _Realizer:
    """Realizes the subterms of one hash-consed term, each distinct one once.

    A realized subterm with more than one DAG parent waits in the memo
    until its last parent has taken it; one with a single parent is never
    kept, so a tower's inner levels are not held in memory.  Subterms are
    still realized first occurrence first, left to right, so an Undefined
    names the same path as a tree walk would; it aborts the realize, so it
    is never memoized.
    """

    def __init__(self, t: Term, env: dict, max_vertices: int):
        self.nodes, self.parents = _hash_cons(t)
        self.env = env
        self.max_vertices = max_vertices
        self.memo = {}  # id -> [circuit, parents still to take it]

    def realize(self, i: int, path: tuple) -> PowerCircuit:
        hit = self.memo.get(i)
        if hit is not None:
            hit[1] -= 1
            if not hit[1]:
                del self.memo[i]
            return hit[0]
        t, lhs, rhs = self.nodes[i]
        if isinstance(t, Const):
            r = circ.from_integer(t.value)
        elif isinstance(t, Var):
            try:
                r = self.env[t.name]
            except KeyError:
                raise VariableCircuitError(f"no binding for variable {t.name!r}") from None
            if not isinstance(r, PowerCircuit):
                r = circ.from_integer(r)
        else:
            a = self.realize(lhs, path + (0,))
            b = self.realize(rhs, path + (1,))
            raw = _apply(t, a, b)
            if raw.n_vertices() > self.max_vertices:
                raise CircuitBudgetError(f"{raw.n_vertices()} vertices exceed the ceiling")
            r = reduction.reduce(raw)
            if r is IMPROPER:
                raise _Undef(path)
            if r.n_vertices() > self.max_vertices:
                raise CircuitBudgetError(f"{r.n_vertices()} vertices exceed the ceiling")
        if self.parents[i] > 1:
            self.memo[i] = [r, self.parents[i] - 1]
        return r


def realize(t: Term, env: dict | None = None, max_vertices: int = 10**6):
    """Normal-form circuit for the term under an assignment, or Undefined.

    Bindings may be integers or circuits.  Every operation is reduced as
    soon as it is built, which is what decides quotient definedness and
    keeps sizes polynomial for product-free terms.  Each distinct subterm
    is realized once, however often it occurs.
    """
    realizer = _Realizer(t, env or {}, max_vertices)
    try:
        r = realizer.realize(len(realizer.nodes) - 1, ())
    except _Undef as u:
        return Undefined(u.path)
    return reduction.normalize(r)


def eval_formula(f: Formula, env: dict | None = None, max_vertices: int = 10**6):
    """True, False, or Undefined under strict three-valued semantics.

    An atom with an Undefined side is Undefined; "and"/"or" are decided by
    a dominating defined operand (False and anything is False, True or
    anything is True); "not" preserves Undefined.
    """
    return _eval_formula_rec(f, env or {}, max_vertices, ())


def _eval_formula_rec(f: Formula, env: dict, max_vertices: int, path: tuple):
    if isinstance(f, Atom):
        r = realize(Sub(f.lhs, f.rhs), env, max_vertices)
        if isinstance(r, Undefined):
            return Undefined(path + r.witness)
        s = reduction.sign(r)
        if f.rel == "<=":
            return s <= 0
        if f.rel == "=":
            return s == 0
        if f.rel == "<":
            return s < 0
        raise ValueError(f"unknown relation {f.rel!r}")
    if isinstance(f, And):
        a = _eval_formula_rec(f.lhs, env, max_vertices, path + (0,))
        if a is False:
            return False
        b = _eval_formula_rec(f.rhs, env, max_vertices, path + (1,))
        if b is False:
            return False
        if isinstance(a, Undefined):
            return a
        return b
    if isinstance(f, Or):
        a = _eval_formula_rec(f.lhs, env, max_vertices, path + (0,))
        if a is True:
            return True
        b = _eval_formula_rec(f.rhs, env, max_vertices, path + (1,))
        if b is True:
            return True
        if isinstance(a, Undefined):
            return a
        return b
    if isinstance(f, Not):
        r = _eval_formula_rec(f.sub, env, max_vertices, path + (0,))
        if isinstance(r, Undefined):
            return r
        return not r
    raise TypeError(f"not a formula: {f!r}")
