"""Term and formula syntax over +, -, *, x*2^y, x*2^(-y) and comparisons.

Terms denote integers (partially: x*2^(-y) is undefined when the quotient
leaves the integers).  Formulas are quantifier-free combinations of atoms
t1 <= t2, t1 = t2 and t1 < t2; the parser turns >= and > around.
"""

from __future__ import annotations

from dataclasses import dataclass


class Term:
    __slots__ = ()


@dataclass(frozen=True)
class Const(Term):
    value: int


@dataclass(frozen=True)
class Var(Term):
    name: str


@dataclass(frozen=True)
class Add(Term):
    lhs: Term
    rhs: Term


@dataclass(frozen=True)
class Sub(Term):
    lhs: Term
    rhs: Term


@dataclass(frozen=True)
class Mul(Term):
    lhs: Term
    rhs: Term


@dataclass(frozen=True)
class MulPow2(Term):
    """lhs * 2^rhs"""

    lhs: Term
    rhs: Term


@dataclass(frozen=True)
class DivPow2(Term):
    """lhs * 2^(-rhs)"""

    lhs: Term
    rhs: Term


def _fold(root, leaf, combine):
    """Bottom-up value of a term or formula, with an explicit stack instead
    of one interpreter frame per level: leaf(t) for a node without
    operands (a constant, a variable or an atom), combine(t, *operand
    values) for the others."""
    out = []
    stack = [(root, False)]
    while stack:
        t, expanded = stack.pop()
        kids = _operands(t)
        if not kids:
            out.append(leaf(t))
        elif not expanded:
            stack.append((t, True))
            stack += [(k, False) for k in reversed(kids)]
        else:
            args = out[len(out) - len(kids):]
            del out[len(out) - len(kids):]
            out.append(combine(t, *args))
    return out[0]


def _operands(t) -> tuple:
    if isinstance(t, (Const, Var, Atom)):
        return ()
    if isinstance(t, Not):
        return (t.sub,)
    return (t.lhs, t.rhs)


def term_size(t: Term) -> int:
    """Number of operations; constants and variables count zero."""
    return _fold(t, lambda u: 0, lambda u, a, b: 1 + a + b)


def _union(u, *parts) -> frozenset:
    return frozenset().union(*parts)


def term_vars(t: Term) -> frozenset:
    return _fold(t, lambda u: frozenset((u.name,)) if isinstance(u, Var) else frozenset(), _union)


def count_var(t: Term, name: str) -> int:
    """Occurrences of one variable."""
    return _fold(t, lambda u: int(isinstance(u, Var) and u.name == name), lambda u, a, b: a + b)


def count_const(t: Term, value: int) -> int:
    """Occurrences of one constant symbol."""
    return _fold(t, lambda u: int(isinstance(u, Const) and u.value == value),
                 lambda u, a, b: a + b)


_PREC = {Add: 1, Sub: 1, Mul: 2, MulPow2: 3, DivPow2: 3}
_OPSYM = {Add: "+", Sub: "-", Mul: "*", MulPow2: "<<^", DivPow2: ">>^"}


def pretty(t: Term) -> str:
    return _fold(t, _pretty_leaf, _pretty_node)[0]


# pretty's fold yields (text, precedence); a parent parenthesizes an operand
# whose precedence is below the context its side imposes, and a precedence
# of None never needs parentheses
def _pretty_leaf(t: Term):
    if isinstance(t, Const):
        return (str(t.value) if t.value >= 0 else f"({t.value})"), None
    return t.name, None


def _pretty_node(t: Term, lhs, rhs):
    if isinstance(t, MulPow2) and t.lhs == Const(1):
        return f"2^({rhs[0]})", None
    prec = _PREC[type(t)]
    ctx_l, ctx_r = (prec + 1, prec) if prec == 3 else (prec, prec + 1)  # shifts: right associative
    return f"{_wrap(lhs, ctx_l)} {_OPSYM[type(t)]} {_wrap(rhs, ctx_r)}", prec


def _wrap(text_prec, ctx: int) -> str:
    text, prec = text_prec
    return f"({text})" if prec is not None and prec < ctx else text


class Formula:
    __slots__ = ()


@dataclass(frozen=True)
class Atom(Formula):
    """lhs rel rhs with rel one of '<=' '=' '<'."""

    lhs: Term
    rel: str
    rhs: Term


@dataclass(frozen=True)
class And(Formula):
    lhs: Formula
    rhs: Formula


@dataclass(frozen=True)
class Or(Formula):
    lhs: Formula
    rhs: Formula


@dataclass(frozen=True)
class Not(Formula):
    sub: Formula


def formula_vars(f: Formula) -> frozenset:
    return _fold(f, lambda a: term_vars(a.lhs) | term_vars(a.rhs), _union)


def pretty_formula(f: Formula) -> str:
    return _fold(f, lambda a: f"{pretty(a.lhs)} {a.rel} {pretty(a.rhs)}", _pretty_connective)


def _pretty_connective(f: Formula, *parts) -> str:
    if isinstance(f, Not):
        return f"!({parts[0]})"
    sym = "&" if isinstance(f, And) else "|"
    return f"({parts[0]}) {sym} ({parts[1]})"
