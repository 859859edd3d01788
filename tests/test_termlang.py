"""Expression language: parsing, embeddings, realization, formula truth."""

import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from pcirc import circuit as circ
from pcirc import termlang as tl
from pcirc import terms as tm

BITS = 1 << 14


class TooBig(Exception):
    pass


def oval(t, env):
    """Strict partial bignum evaluation; None when a shift is fractional."""
    if isinstance(t, tm.Const):
        return t.value
    if isinstance(t, tm.Var):
        return env[t.name]
    a = oval(t.lhs, env)
    b = oval(t.rhs, env)
    if a is None or b is None:
        return None
    if isinstance(t, tm.Add):
        r = a + b
    elif isinstance(t, tm.Sub):
        r = a - b
    elif isinstance(t, tm.Mul):
        r = a * b
    else:
        e = b if isinstance(t, tm.MulPow2) else -b
        if e >= 0:
            if e > BITS:
                raise TooBig
            r = a << e
        elif a == 0:
            r = 0
        elif (a & -a).bit_length() - 1 >= -e:
            r = a >> -e
        else:
            return None
    if abs(r).bit_length() > BITS:
        raise TooBig
    return r


def qval(t, env):
    """Total evaluation over the rationals; shifts never fail."""
    if isinstance(t, tm.Const):
        return Fraction(t.value)
    if isinstance(t, tm.Var):
        return Fraction(env[t.name])
    a = qval(t.lhs, env)
    b = qval(t.rhs, env)
    if isinstance(t, tm.Add):
        return a + b
    if isinstance(t, tm.Sub):
        return a - b
    if isinstance(t, tm.Mul):
        return a * b
    if b.denominator != 1 or abs(b) > BITS:
        raise TooBig
    e = int(b) if isinstance(t, tm.MulPow2) else -int(b)
    r = a * Fraction(2) ** e
    if r.numerator.bit_length() > BITS:
        raise TooBig
    return r


def oform(f, env):
    """Three-valued truth with short-circuiting, None for undefined."""
    if isinstance(f, tm.Atom):
        a = oval(f.lhs, env)
        b = oval(f.rhs, env)
        if a is None or b is None:
            return None
        return {"<=": a <= b, "=": a == b, "<": a < b}[f.rel]
    if isinstance(f, tm.And):
        a = oform(f.lhs, env)
        if a is False:
            return False
        b = oform(f.rhs, env)
        if b is False:
            return False
        return None if a is None else b
    if isinstance(f, tm.Or):
        a = oform(f.lhs, env)
        if a is True:
            return True
        b = oform(f.rhs, env)
        if b is True:
            return True
        return None if a is None else b
    r = oform(f.sub, env)
    return None if r is None else (not r)


def rand_term(rng, depth, vars_):
    if depth == 0 or rng.random() < 0.3:
        if vars_ and rng.random() < 0.4:
            return tm.Var(rng.choice(vars_))
        return tm.Const(rng.randrange(-4, 9))
    op = rng.choice([tm.Add, tm.Sub, tm.Mul, tm.MulPow2, tm.DivPow2])
    return op(rand_term(rng, depth - 1, vars_), rand_term(rng, depth - 1, vars_))


def rand_shift_term(rng, depth, vars_):
    """Product-free terms over constants 0 and 1."""
    if depth == 0 or rng.random() < 0.3:
        if vars_ and rng.random() < 0.4:
            return tm.Var(rng.choice(vars_))
        return tm.Const(rng.choice([0, 1]))
    op = rng.choice([tm.Add, tm.Sub, tm.MulPow2, tm.DivPow2])
    return op(rand_shift_term(rng, depth - 1, vars_), rand_shift_term(rng, depth - 1, vars_))


def rand_formula(rng, depth, vars_):
    if depth == 0 or rng.random() < 0.4:
        rel = rng.choice(["<=", "=", "<"])
        return tm.Atom(
            rand_term(rng, rng.randrange(3), vars_), rel, rand_term(rng, rng.randrange(3), vars_)
        )
    k = rng.random()
    if k < 0.4:
        return tm.And(rand_formula(rng, depth - 1, vars_), rand_formula(rng, depth - 1, vars_))
    if k < 0.8:
        return tm.Or(rand_formula(rng, depth - 1, vars_), rand_formula(rng, depth - 1, vars_))
    return tm.Not(rand_formula(rng, depth - 1, vars_))


def test_parse_shapes():
    assert tl.parse("1+1") == tm.Add(tm.Const(1), tm.Const(1))
    assert tl.parse("3 >>^ 1") == tm.DivPow2(tm.Const(3), tm.Const(1))
    assert tl.parse("0b101 * -2") == tm.Mul(tm.Const(5), tm.Sub(tm.Const(0), tm.Const(2)))
    assert tl.parse("2^(x)") == tm.MulPow2(tm.Const(1), tm.Var("x"))


def test_parse_precedence_and_associativity():
    assert tl.parse("1 + 2 * 3 <<^ 4") == tm.Add(
        tm.Const(1), tm.Mul(tm.Const(2), tm.MulPow2(tm.Const(3), tm.Const(4)))
    )
    assert tl.parse("1 <<^ 2 <<^ 3") == tm.MulPow2(
        tm.Const(1), tm.MulPow2(tm.Const(2), tm.Const(3))
    )
    assert tl.parse("1 - 2 - 3") == tm.Sub(tm.Sub(tm.Const(1), tm.Const(2)), tm.Const(3))


def test_parse_comparison_sugar():
    assert tl.parse("x >= y") == tm.Atom(tm.Var("y"), "<=", tm.Var("x"))
    assert tl.parse("x > y") == tm.Atom(tm.Var("y"), "<", tm.Var("x"))
    assert tl.parse("x < y") == tm.Atom(tm.Var("x"), "<", tm.Var("y"))


def test_parse_connective_precedence():
    assert tl.parse("!x = 0 & y = 1 | z = 2") == tm.Or(
        tm.And(
            tm.Not(tm.Atom(tm.Var("x"), "=", tm.Const(0))),
            tm.Atom(tm.Var("y"), "=", tm.Const(1)),
        ),
        tm.Atom(tm.Var("z"), "=", tm.Const(2)),
    )


def test_parse_tower_macro():
    assert tl.parse("tower(0)") == tm.Const(1)
    assert tl.parse("tower(2)") == tm.MulPow2(tm.Const(1), tm.MulPow2(tm.Const(1), tm.Const(1)))
    assert tl.parse("tower(k)", {"k": 1}) == tm.MulPow2(tm.Const(1), tm.Const(1))


@pytest.mark.parametrize(
    "src",
    [
        "1 + (x = y)",
        "(x = y) <<^ 2",
        "x = y = z",
        "3^(4)",
        "x < y < z",
        "!(x + 1)",
        "(x = y) + 1",
        "1 +",
        "",
        "(1",
        "tower(x)",
        "tower(-1)",
        "$",
    ],
)
def test_parse_rejects(src):
    with pytest.raises(tl.ParseError):
        tl.parse(src)


def test_parse_error_position():
    with pytest.raises(tl.ParseError) as ei:
        tl.parse("12 @ 3")
    assert ei.value.position == 3
    assert "column" in str(ei.value)


def test_pretty_round_trip():
    def canon(u):
        # Const(-n) prints as -n, which parses back as Sub(0, n)
        if isinstance(u, tm.Const) and u.value < 0:
            return tm.Sub(tm.Const(0), tm.Const(-u.value))
        if isinstance(u, (tm.Const, tm.Var)):
            return u
        return type(u)(canon(u.lhs), canon(u.rhs))

    rng = random.Random(7)
    for _ in range(300):
        t = rand_term(rng, rng.randrange(5), ["x", "y"])
        assert tl.parse(tm.pretty(t)) == canon(t)


def test_embedding_structural_bounds():
    rng = random.Random(11)
    for _ in range(400):
        t = rand_shift_term(rng, rng.randrange(6), ["x", "y", "z"])
        c = tl.tau(t)
        n = tm.term_size(t)
        assert len(c.marks) <= n + 1
        assert c.n_vertices() <= 2 * n + 2
        for v in c.marks:
            assert not c.in_vertices(v), "marked vertex must be a source"


def test_embedding_agrees_with_rationals_when_proper():
    # the raw embedding is stricter than the term: a fractional summand
    # makes it improper even if cancellation would repair the sum
    rng = random.Random(11)
    for _ in range(400):
        t = rand_shift_term(rng, rng.randrange(6), ["x", "y", "z"])
        env = {x: rng.randrange(-6, 7) for x in tm.term_vars(t)}
        try:
            expect = qval(t, env)
        except TooBig:
            continue
        got = circ.eval_bignum(tl.tau(t), env=env)
        if got is not circ.IMPROPER:
            assert got == expect


def test_embedding_with_variables():
    t = tl.parse("x <<^ (1+1)")
    assert circ.eval_bignum(tl.tau(t), env={"x": 5}) == 20


@given(st.integers(-(2**48), 2**48))
@settings(max_examples=60, deadline=None)
def test_realize_constant_matches_direct_construction(n):
    r = tl.realize(tm.Const(n))
    assert circ.canonical_bytes(r) == circ.canonical_bytes(circ.from_integer(n))


def test_realize_basics():
    r = tl.realize(tl.parse("x+y"), {"x": 3, "y": 4})
    assert circ.canonical_bytes(r) == circ.canonical_bytes(circ.from_integer(7))
    r = tl.realize(tl.parse("x <<^ x"), {"x": 0})
    assert circ.canonical_bytes(r) == circ.canonical_bytes(circ.from_integer(0))
    r = tl.realize(tl.parse("x + 1"), {"x": circ.from_integer(41)})
    assert circ.canonical_bytes(r) == circ.canonical_bytes(circ.from_integer(42))


def test_realize_undefined_with_witness():
    r = tl.realize(tl.parse("1 >>^ 1"))
    assert isinstance(r, tl.Undefined)
    assert r.witness == ()
    r = tl.realize(tl.parse("(3 >>^ 1) + 1"))
    assert isinstance(r, tl.Undefined)
    assert r.witness == (0,)
    assert isinstance(tl.realize(tl.parse("1 <<^ (0-1)")), tl.Undefined)


def test_realize_unbound_variable():
    with pytest.raises(circ.VariableCircuitError):
        tl.realize(tl.parse("q + 1"))


def test_realize_budget():
    # each factor doubles the mark count; towers stay small
    big = "*".join(f"(2^({1 << k})+1)" for k in range(2, 9))
    with pytest.raises(tl.CircuitBudgetError):
        tl.realize(tl.parse(big), max_vertices=64)
    assert tl.realize(tl.parse("tower(8)"), max_vertices=64).n_vertices() <= 20


def test_realize_matches_strict_oracle():
    rng = random.Random(13)
    checked = 0
    for _ in range(400):
        t = rand_term(rng, rng.randrange(5), ["x", "y"])
        env = {x: rng.randrange(-9, 10) for x in tm.term_vars(t)}
        try:
            expect = oval(t, env)
        except TooBig:
            continue
        r = tl.realize(t, env)
        if expect is None:
            assert isinstance(r, tl.Undefined), (t, env)
        else:
            assert not isinstance(r, tl.Undefined), (t, env, expect)
            assert circ.canonical_bytes(r) == circ.canonical_bytes(circ.from_integer(expect))
        checked += 1
    assert checked > 250


def test_realize_mark_bound():
    rng = random.Random(17)
    checked = 0
    for _ in range(300):
        t = rand_shift_term(rng, rng.randrange(6), ["x", "y"])
        env = {x: rng.randrange(-40, 41) for x in tm.term_vars(t)}
        try:
            if oval(t, env) is None:
                continue
        except TooBig:
            continue
        r = tl.realize(t, env)
        if isinstance(r, tl.Undefined):
            continue
        bound = tm.count_const(t, 1)
        for x in tm.term_vars(t):
            bound += tm.count_var(t, x) * len(circ.from_integer(env[x]).marks)
        # a trivial zero result keeps its one mandatory mark
        assert len(r.marks) <= max(1, bound), (t, env)
        checked += 1
    assert checked > 150


def test_eval_formula_basics():
    assert tl.eval_formula(tl.parse("1+1 = 2")) is True
    assert tl.eval_formula(tl.parse("2^(2^(x)) <= 2^(2^(y))"), {"x": 10, "y": 11}) is True
    assert isinstance(tl.eval_formula(tl.parse("(3 >>^ 1) = 1")), tl.Undefined)


def test_eval_formula_three_valued():
    # a dominating defined value decides; otherwise undefined is sticky
    assert tl.eval_formula(tl.parse("1 = 2 & (3 >>^ 1) = 1")) is False
    assert tl.eval_formula(tl.parse("1 = 1 | (3 >>^ 1) = 1")) is True
    assert isinstance(tl.eval_formula(tl.parse("(3 >>^ 1) = 1 & 1 = 1")), tl.Undefined)
    assert isinstance(tl.eval_formula(tl.parse("!((3 >>^ 1) = 1)")), tl.Undefined)


def test_eval_formula_matches_oracle():
    rng = random.Random(19)
    checked = 0
    for _ in range(250):
        f = rand_formula(rng, rng.randrange(1, 4), ["x", "y"])
        env = {x: rng.randrange(-9, 10) for x in tm.formula_vars(f)}
        try:
            expect = oform(f, env)
        except TooBig:
            continue
        got = tl.eval_formula(f, env)
        if expect is None:
            assert isinstance(got, tl.Undefined), (tm.pretty_formula(f), env)
        else:
            assert got is expect, (tm.pretty_formula(f), env, expect)
        checked += 1
    assert checked > 150


def test_tower_comparison_without_expansion():
    f = tl.parse("tower(x)+1 > tower(x)", {"x": 50})
    assert tl.eval_formula(f) is True
