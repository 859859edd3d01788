"""Expression language: parsing, embeddings, realization, formula truth."""

import inspect
import random
import sys
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from pcirc import circuit as circ
from pcirc import generators as gen
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


@pytest.mark.parametrize(
    "src, message, position",
    [
        ("1 + (x = y)", "expected a term, found a relation", 4),
        ("(x = y) <<^ 2", "expected a term, found a relation", 0),
        ("x = y = z", "chained comparisons are not supported", 6),
        ("3^(4)", "only base 2 exponentials exist here", 0),
        ("x < y < z", "chained comparisons are not supported", 6),
        ("!(x + 1)", "expected a relation, found a term", 1),
        ("(x = y) + 1", "expected a term, found a relation", 0),
        ("1 +", "expected a term", 3),
        ("", "expected a term", 0),
        ("(1", "expected ')'", 2),
        ("tower(x)", "tower needs a literal or bound integer height", 6),
        ("tower(-1)", "tower needs a literal or bound integer height", 6),
        ("$", "unexpected character '$'", 0),
        ("1 + !x", "expected a term", 4),
        ("x = !y", "expected a term", 4),
        ("-!x", "expected a term", 1),
        ("2^(!x)", "expected a term", 3),
        ("2^(x | y)", "expected ')'", 5),
        ("2^(x = y)", "expected ')'", 5),
        ("2^((x = y))", "expected a term, found a relation", 3),
        ("-(x = y)", "expected a term, found a relation", 1),
        ("x * (y < z)", "expected a term, found a relation", 4),
        ("x + 1 & y = 1", "expected a relation, found a term", 0),
        ("x = y | 1", "expected a relation, found a term", 8),
        ("!x = 0 & 1", "expected a relation, found a term", 9),
        ("x = 1 & y = 2 & 3", "expected a relation, found a term", 16),
        ("x < (y = z) < 1", "expected a term, found a relation", 4),
        ("(x = y) < 1 < 2", "expected a term, found a relation", 0),
        ("()", "expected a term", 1),
        ("(1 2)", "expected ')'", 3),
        ("1)", "trailing input", 1),
        ("x ^ 2", "trailing input", 2),
        ("2 ^ x", "expected '('", 4),
        ("tower(2", "expected ')'", 7),
    ],
)
def test_parse_error_message_and_column(src, message, position):
    with pytest.raises(tl.ParseError) as ei:
        tl.parse(src)
    assert (str(ei.value), ei.value.position) == (f"{message} (column {position})", position)


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


def assert_matches_strict_oracle(rng, make, tries=400) -> int:
    """Realize tries random terms from make(rng); each must give the normal
    form of its strict value, or Undefined.  Returns how many were checked."""
    checked = 0
    for _ in range(tries):
        t = make(rng)
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
    return checked


def test_realize_matches_strict_oracle():
    rng = random.Random(13)
    assert assert_matches_strict_oracle(
        rng, lambda rng: rand_term(rng, rng.randrange(5), ["x", "y"])) > 250


def copy_term(t):
    """An equal term made of fresh objects."""
    if isinstance(t, (tm.Const, tm.Var)):
        return type(t)(t.value if isinstance(t, tm.Const) else t.name)
    return type(t)(copy_term(t.lhs), copy_term(t.rhs))


def rand_shared_term(rng, depth, vars_, pool):
    """A random term that reuses earlier subterms from pool, as the same
    object or as an equal copy."""
    if pool and rng.random() < 0.4:
        s = rng.choice(pool)
        return s if rng.random() < 0.5 else copy_term(s)
    t = rand_term(rng, 0, vars_) if depth == 0 or rng.random() < 0.3 else rng.choice(
        [tm.Add, tm.Sub, tm.Mul, tm.MulPow2, tm.DivPow2])(
        rand_shared_term(rng, depth - 1, vars_, pool),
        rand_shared_term(rng, depth - 1, vars_, pool))
    pool.append(t)
    return t


def test_realize_with_shared_subterms_matches_strict_oracle():
    # each distinct subterm is realized once and handed to every parent
    shared = []

    def make(rng):
        t = rand_shared_term(rng, rng.randrange(2, 6), ["x", "y"], [])
        nodes, parents = tl._hash_cons(t, tm.Term)
        shared.append(any(p > 1 and nodes[i][1] for i, p in enumerate(parents)))
        return t

    assert assert_matches_strict_oracle(random.Random(31), make) > 250
    assert sum(shared) > 100


def test_shared_subterm_is_realized_once(monkeypatch):
    calls = []
    real_reduce = tl.reduction.reduce

    def reduce(c, stats=None):
        calls.append(c)
        return real_reduce(c, stats)

    monkeypatch.setattr(tl.reduction, "reduce", reduce)
    for x in (5, 40, 120):
        calls.clear()
        r = tl.realize(tl.parse("tower(x)+1 - tower(x)", {"x": x}))
        assert circ.canonical_bytes(r) == circ.canonical_bytes(circ.from_integer(1))
        # x levels, the sum, the difference and normalize's own reduce
        assert x <= len(calls) <= x + 4
        # four uses, two of them by one node; one more reduce per operation
        calls.clear()
        r = tl.realize(tl.parse("tower(x)+tower(x)+1 - tower(x) - tower(x)", {"x": x}))
        assert circ.canonical_bytes(r) == circ.canonical_bytes(circ.from_integer(1))
        assert x <= len(calls) <= x + 6


def test_shared_undefined_subterm_keeps_its_first_witness():
    r = tl.realize(tl.parse("(3 >>^ 1) + (3 >>^ 1)"))
    assert r == tl.Undefined((0,))
    r = tl.realize(tl.parse("((2 >>^ 1) + (2 >>^ 1)) - ((2 >>^ 1) + (5 >>^ 2))"))
    assert r == tl.Undefined((1, 1))
    assert tl.eval_formula(tl.parse("2 >>^ 1 = 1 & (3 >>^ 1) = (3 >>^ 1)")) == tl.Undefined((1, 0))


def count_calls(monkeypatch, module, *names):
    """Counts of calls to the named functions of module, filled as they run."""
    counts = dict.fromkeys(names, 0)
    for name in names:
        real = getattr(module, name)

        def counted(*args, name=name, real=real, **kwargs):
            counts[name] += 1
            return real(*args, **kwargs)

        monkeypatch.setattr(module, name, counted)
    return counts


def test_formula_atoms_share_subterms(monkeypatch):
    # tower(x) is built once for all four sides, and an atom reads the sign
    # of its reduced difference without normalizing it
    counts = count_calls(monkeypatch, tl.reduction, "reduce", "normalize")
    x = 200
    f = tl.parse("tower(x) < tower(x)+1 & tower(x)+2 = 2+tower(x)", {"x": x})
    assert tl.eval_formula(f) is True
    assert counts["reduce"] <= x + 10
    assert counts["normalize"] == 0


def test_deep_input_needs_no_recursion():
    # nothing on the parse and evaluation paths recurses once per level
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(len(inspect.stack(0)) + 100)
    try:
        r = tl.realize(tl.parse("tower(300)+1 - tower(300)"))
        deep = tl.eval_formula(tl.parse("!" * 300 + "1 = 1"))
    finally:
        sys.setrecursionlimit(limit)
    assert circ.canonical_bytes(r) == circ.canonical_bytes(circ.from_integer(1))
    assert deep is True


def test_term_helpers_need_no_recursion():
    # parse and realize take tower(1200); so do the helpers that walk terms,
    # formulas and circuits
    t = tl.parse("tower(1200)")
    f = tl.parse("!" * 2000 + "(x = tower(2))")
    tower = gen.tower_circuit(1200)
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(len(inspect.stack(0)) + 100)
    try:
        got = (tm.term_size(t), tm.term_vars(t), tm.count_var(t, "x"), tm.count_const(t, 1),
               tm.pretty(t), tm.formula_vars(f), tm.pretty_formula(f),
               tm.pretty(circ.term_of(tower)))
    finally:
        sys.setrecursionlimit(limit)
    assert got == (1200, frozenset(), 0, 1201, "2^(" * 1200 + "1" + ")" * 1200, {"x"},
                   "!(" * 2000 + "x = 2^(2^(1))" + ")" * 2000, "2^(" * 1201 + "0" + ")" * 1201)


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


@pytest.mark.parametrize(
    "src, env, expect",
    [
        ("1 = 2 | (3 >>^ 1) = 1 & (3 >>^ 1) = 2", {}, tl.Undefined((1, 0, 0))),
        ("(x >>^ 1) + 1 = 0 & 2 = (x >>^ 1) - 1 | 1 = 0", {"x": 3}, tl.Undefined((0, 0, 0, 0))),
        ("!(1 = (3 >>^ 1))", {}, tl.Undefined((0, 1))),
        # q is unbound: realizing the skipped atom would raise
        ("1 = 0 & q = 1", {}, False),
        ("1 = 1 | q = 1", {}, True),
    ],
)
def test_eval_formula_witness_and_short_circuit(src, env, expect):
    # an Undefined operand shared by two atoms names its path in the first
    # one that is evaluated
    assert tl.eval_formula(tl.parse(src), env) == expect


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
