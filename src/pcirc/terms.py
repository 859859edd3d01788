"""Term and formula syntax over +, -, *, x*2^y, x*2^(-y) and comparisons.

Terms denote integers (partially: x*2^(-y) is undefined when the quotient
leaves the integers).  Formulas are quantifier-free combinations of atoms
t1 <= t2, t1 = t2 and t1 < t2; the parser turns >= and > around.

`dag` is the one traversal of that structure: it hash-conses a term or
formula into its distinct subterms and subformulas with an explicit stack.
`fold` values a DAG bottom-up, and the helpers here, the structural
embedding `termlang.tau` and the nodes' own equality, hash and repr are
folds or reads of it, so no nesting depth needs an interpreter frame per
level.
"""

from __future__ import annotations

from dataclasses import dataclass, fields


class _Node:
    """Terms and formulas compare, hash and print by structure, through one
    walk of their DAG instead of one interpreter frame per level."""

    __slots__ = ()

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self is other or _key(self) == _key(other)

    def __hash__(self):
        return hash(_key(self))

    def __repr__(self):
        return fold(self, _repr, _repr)


class Term(_Node):
    __slots__ = ()


@dataclass(frozen=True, eq=False, repr=False)
class Const(Term):
    value: int


@dataclass(frozen=True, eq=False, repr=False)
class Var(Term):
    name: str


@dataclass(frozen=True, eq=False, repr=False)
class Add(Term):
    lhs: Term
    rhs: Term


@dataclass(frozen=True, eq=False, repr=False)
class Sub(Term):
    lhs: Term
    rhs: Term


@dataclass(frozen=True, eq=False, repr=False)
class Mul(Term):
    lhs: Term
    rhs: Term


@dataclass(frozen=True, eq=False, repr=False)
class MulPow2(Term):
    """lhs * 2^rhs"""

    lhs: Term
    rhs: Term


@dataclass(frozen=True, eq=False, repr=False)
class DivPow2(Term):
    """lhs * 2^(-rhs)"""

    lhs: Term
    rhs: Term


class Formula(_Node):
    __slots__ = ()


@dataclass(frozen=True, eq=False, repr=False)
class Atom(Formula):
    """lhs rel rhs with rel one of '<=' '=' '<'."""

    lhs: Term
    rel: str
    rhs: Term


@dataclass(frozen=True, eq=False, repr=False)
class And(Formula):
    lhs: Formula
    rhs: Formula


@dataclass(frozen=True, eq=False, repr=False)
class Or(Formula):
    lhs: Formula
    rhs: Formula


@dataclass(frozen=True, eq=False, repr=False)
class Not(Formula):
    sub: Formula


# -- the one traversal ---------------------------------------------------------


def _operands(u) -> tuple:
    """The operands of a node, left to right, each with the kind it must have."""
    if isinstance(u, (Const, Var)):
        return ()
    if isinstance(u, Not):
        return ((u.sub, Formula),)
    if isinstance(u, (And, Or)):
        return ((u.lhs, Formula), (u.rhs, Formula))
    if isinstance(u, (Term, Atom)):
        return ((u.lhs, Term), (u.rhs, Term))
    raise TypeError(f"not a term or formula: {u!r}")


def _node_key(u, kids: tuple) -> tuple:
    """What identifies node u among nodes whose operands have the given ids:
    its own fields, never the hash of its operand objects."""
    if isinstance(u, Const):
        return Const, u.value
    if isinstance(u, Var):
        return Var, u.name
    return type(u), u.rel if isinstance(u, Atom) else None, kids


def dag(root, kind=None):
    """root, a term or formula, as a DAG of its distinct subterms and
    subformulas, built without recursion.

    Returns (nodes, parents): nodes[i] is (node, operand ids), listed
    operands first, left to right, and the root last; parents[i] counts
    the references to id i from other nodes, so an operand used twice by
    one node counts twice.  With a kind (Term or Formula), the root must
    be of it and every operand of the kind its node needs, or TypeError.
    """
    ids = {}  # _node_key -> id
    of = {}  # id() of a node object -> its id; root keeps every object alive
    nodes = []
    parents = []
    stack = [(root, kind, False)]
    while stack:
        u, want, expanded = stack.pop()
        if want is not None and not isinstance(u, want):
            raise TypeError(f"not a {want.__name__.lower()}: {u!r}")
        if id(u) in of:
            continue
        operands = _operands(u)
        if operands and not expanded:
            stack.append((u, want, True))
            # an unchecked root leaves its operands unchecked too
            stack += [(c, k if want else None, False) for c, k in reversed(operands)]
            continue
        kids = tuple(of[id(c)] for c, _ in operands)
        key = _node_key(u, kids)
        i = ids.get(key)
        if i is None:
            i = ids[key] = len(nodes)
            nodes.append((u, kids))
            parents.append(0)
            for k in kids:
                parents[k] += 1
        of[id(u)] = i
    return nodes, parents


def fold(root, leaf, combine, kind=None):
    """Bottom-up value of a term or formula over its DAG: leaf(u) for a
    constant or variable, combine(u, *operand values) for any other node.
    Each distinct subterm is valued once, and its value is dropped once its
    last parent has taken it."""
    nodes, parents = dag(root, kind)
    out = []
    for u, kids in nodes:
        if not kids:
            out.append(leaf(u))
            continue
        out.append(combine(u, *(out[k] for k in kids)))
        for k in kids:
            parents[k] -= 1
            if not parents[k]:
                out[k] = None
    return out[-1]


def _key(t) -> tuple:
    """Equal for structurally equal nodes: the keys of t's DAG, in order."""
    return tuple(_node_key(u, kids) for u, kids in dag(t)[0])


def _repr(u, *parts) -> str:
    """The dataclass repr of u, given its operands' reprs."""
    parts = iter(parts)
    args = []
    for f in fields(u):
        v = getattr(u, f.name)
        args.append(f"{f.name}={next(parts) if isinstance(v, _Node) else repr(v)}")
    return f"{type(u).__qualname__}({', '.join(args)})"


def term_size(t: Term) -> int:
    """Number of operations; constants and variables count zero."""
    return fold(t, lambda u: 0, lambda u, a, b: 1 + a + b, Term)


def term_vars(t: Term) -> frozenset:
    return _vars(t, Term)


def count_var(t: Term, name: str) -> int:
    """Occurrences of one variable."""
    return fold(t, lambda u: int(isinstance(u, Var) and u.name == name), _sum, Term)


def count_const(t: Term, value: int) -> int:
    """Occurrences of one constant symbol."""
    return fold(t, lambda u: int(isinstance(u, Const) and u.value == value), _sum, Term)


def _sum(u, a, b) -> int:
    return a + b


def formula_vars(f: Formula) -> frozenset:
    return _vars(f, Formula)


def _vars(root, kind) -> frozenset:
    return frozenset(u.name for u, _ in dag(root, kind)[0] if isinstance(u, Var))


def pretty(t: Term) -> str:
    return fold(t, _pretty_leaf, _pretty_node, Term)[0]


def pretty_formula(f: Formula) -> str:
    return fold(f, _pretty_leaf, _pretty_node, Formula)[0]


_PREC = {Add: 1, Sub: 1, Mul: 2, MulPow2: 3, DivPow2: 3}
_OPSYM = {Add: "+", Sub: "-", Mul: "*", MulPow2: "<<^", DivPow2: ">>^", And: "&", Or: "|"}


# the pretty folds yield (text, precedence); a parent parenthesizes a term
# operand whose precedence is below the context its side imposes, and a
# precedence of None never needs parentheses
def _pretty_leaf(u: Term):
    if isinstance(u, Const):
        return (str(u.value) if u.value >= 0 else f"({u.value})"), None
    return u.name, None


def _pretty_node(u, *parts):
    if isinstance(u, Atom):
        return f"{parts[0][0]} {u.rel} {parts[1][0]}", None
    if isinstance(u, Not):
        return f"!({parts[0][0]})", None
    if isinstance(u, (And, Or)):
        return f"({parts[0][0]}) {_OPSYM[type(u)]} ({parts[1][0]})", None
    lhs, rhs = parts
    if isinstance(u, MulPow2) and isinstance(u.lhs, Const) and u.lhs.value == 1:
        return f"2^({rhs[0]})", None
    prec = _PREC[type(u)]
    ctx_l, ctx_r = (prec + 1, prec) if prec == 3 else (prec, prec + 1)  # shifts: right associative
    return f"{_wrap(lhs, ctx_l)} {_OPSYM[type(u)]} {_wrap(rhs, ctx_r)}", prec


def _wrap(text_prec, ctx: int) -> str:
    text, prec = text_prec
    return f"({text})" if prec is not None and prec < ctx else text
