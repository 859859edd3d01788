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


def term_size(t: Term) -> int:
    """Number of operations; constants and variables count zero."""
    if isinstance(t, (Const, Var)):
        return 0
    return 1 + term_size(t.lhs) + term_size(t.rhs)


def term_vars(t: Term) -> frozenset:
    if isinstance(t, Const):
        return frozenset()
    if isinstance(t, Var):
        return frozenset((t.name,))
    return term_vars(t.lhs) | term_vars(t.rhs)


def count_var(t: Term, name: str) -> int:
    """Occurrences of one variable."""
    if isinstance(t, Var):
        return 1 if t.name == name else 0
    if isinstance(t, Const):
        return 0
    return count_var(t.lhs, name) + count_var(t.rhs, name)


def count_const(t: Term, value: int) -> int:
    """Occurrences of one constant symbol."""
    if isinstance(t, Const):
        return 1 if t.value == value else 0
    if isinstance(t, Var):
        return 0
    return count_const(t.lhs, value) + count_const(t.rhs, value)


_PREC = {Add: 1, Sub: 1, Mul: 2, MulPow2: 3, DivPow2: 3}
_OPSYM = {Add: "+", Sub: "-", Mul: "*", MulPow2: "<<^", DivPow2: ">>^"}


def pretty(t: Term) -> str:
    return _pretty(t, 0)


def _pretty(t: Term, ctx: int) -> str:
    if isinstance(t, Const):
        return str(t.value) if t.value >= 0 else f"({t.value})"
    if isinstance(t, Var):
        return t.name
    if isinstance(t, MulPow2) and t.lhs == Const(1):
        return f"2^({_pretty(t.rhs, 0)})"
    prec = _PREC[type(t)]
    if prec == 3:  # right associative
        s = f"{_pretty(t.lhs, prec + 1)} {_OPSYM[type(t)]} {_pretty(t.rhs, prec)}"
    else:
        s = f"{_pretty(t.lhs, prec)} {_OPSYM[type(t)]} {_pretty(t.rhs, prec + 1)}"
    return f"({s})" if prec < ctx else s


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
    if isinstance(f, Atom):
        return term_vars(f.lhs) | term_vars(f.rhs)
    if isinstance(f, Not):
        return formula_vars(f.sub)
    return formula_vars(f.lhs) | formula_vars(f.rhs)


def pretty_formula(f: Formula) -> str:
    if isinstance(f, Atom):
        return f"{pretty(f.lhs)} {f.rel} {pretty(f.rhs)}"
    if isinstance(f, Not):
        return f"!({pretty_formula(f.sub)})"
    sym = "&" if isinstance(f, And) else "|"
    return f"({pretty_formula(f.lhs)}) {sym} ({pretty_formula(f.rhs)})"
