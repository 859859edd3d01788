"""Expression language: parsing, embeddings, realization, formula truth."""

import dataclasses
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


def test_ceiling_counts_each_value_and_not_all_that_was_built():
    # the terms build over a hundred pool vertices, but no value reaches
    # more than a dozen of them, so a ceiling of 50 holds
    ks = random.Random(41).sample(range(1 << 10, 1 << 11), 100)
    t = tl.parse(" + ".join(f"(2^({k}) - 2^({k}))" for k in ks))
    r = tl.realize(t, max_vertices=50)
    assert circ.canonical_bytes(r) == circ.canonical_bytes(circ.zero_circuit())
    f = tl.parse(" & ".join(f"2^({k}) + 1 = 1 + 2^({k})" for k in ks))
    assert tl.eval_formula(f, max_vertices=50) is True
    # one value over the ceiling still raises, however little is held
    with pytest.raises(tl.CircuitBudgetError):
        tl.realize(tl.parse(" + ".join(f"2^({k})" for k in ks)), max_vertices=50)


def test_improper_circuit_binding_is_undefined_at_the_variable():
    # 2^(2^0 - 2^1) = 2^-1 is not an integer
    c = circ.PowerCircuit()
    z, one, two, v = (c.add_vertex() for _ in range(4))
    c.add_edge(one, z, 1)
    c.add_edge(two, one, 1)
    c.add_edge(v, one, 1)
    c.add_edge(v, two, -1)
    c.set_mark(v, 1)
    assert tl.realize(tl.parse("x + 1"), {"x": c}) == tl.Undefined((0,))
    assert tl.realize(tl.parse("x"), {"x": c}) == tl.Undefined(())
    assert tl.eval_formula(tl.parse("1 < 2 & x = x"), {"x": c}) == tl.Undefined((1, 0))
    # the binding is Undefined even where its product would be an integer
    assert tl.realize(tl.parse("x <<^ 5"), {"x": tl.tau(tl.parse("8 >>^ 5"))}) == tl.Undefined((0,))


def test_circuit_binding_is_read_by_its_value():
    # tau(1 + 1) marks 2^0 twice; halving it is defined as for the integer 2
    x = tl.tau(tl.parse("1 + 1"))
    r = tl.realize(tl.parse("x <<^ (0-1)"), {"x": x})
    assert circ.canonical_bytes(r) == circ.canonical_bytes(circ.from_integer(1))


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
            tl.reduction.verify_certificate(r, require_normal=True)
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
        nodes, parents = tm.dag(t, tm.Term)
        shared.append(any(p > 1 and nodes[i][1] for i, p in enumerate(parents)))
        return t

    assert assert_matches_strict_oracle(random.Random(31), make) > 250
    assert sum(shared) > 100


def record_pools(monkeypatch) -> list:
    """The pools that realize and eval_formula make, filled as they run."""
    pools = []

    class Recorded(tl.reduction.Pool):
        def __init__(self, *args, **kwargs):
            super().__init__(*args, **kwargs)
            pools.append(self)

    monkeypatch.setattr(tl.reduction, "Pool", Recorded)
    return pools


def test_shared_subterm_is_realized_once(monkeypatch):
    # the tower's x + 1 levels and the zero, plus what the sums add; a
    # tower built twice would leave about 2x vertices
    pools = record_pools(monkeypatch)
    for x in (5, 40, 120):
        pools.clear()
        r = tl.realize(tl.parse("tower(x)+1 - tower(x)", {"x": x}))
        assert circ.canonical_bytes(r) == circ.canonical_bytes(circ.from_integer(1))
        assert len(pools[0].succ) <= x + 4
        # four uses, two of them by one node
        pools.clear()
        r = tl.realize(tl.parse("tower(x)+tower(x)+1 - tower(x) - tower(x)", {"x": x}))
        assert circ.canonical_bytes(r) == circ.canonical_bytes(circ.from_integer(1))
        assert len(pools[0].succ) <= x + 6


def test_deep_tower_difference_stays_in_a_linear_pool(monkeypatch):
    pools = record_pools(monkeypatch)
    x = 2000
    r = tl.realize(tl.parse("tower(x)+1 - tower(x)", {"x": x}))
    assert circ.canonical_bytes(r) == circ.canonical_bytes(circ.from_integer(1))
    assert len(pools[0].succ) <= x + 4


def test_adding_zero_or_one_and_back_leaves_the_marking_as_it_was():
    # equal values have one compact marking in a pool, however they arose
    rng = random.Random(23)
    defined = 0
    for _ in range(300):
        t = rand_term(rng, rng.randrange(1, 5), ["x", "y"])
        env = {"x": rng.randrange(-9, 10), "y": rng.randrange(-9, 10)}
        pool = tl.reduction.Pool()
        values = [tl._evaluate(u, tm.Term, env, pool, 10**6)
                  for u in (t, tm.Add(t, tm.Const(0)), tm.Sub(tm.Add(t, tm.Const(1)), tm.Const(1)))]
        if isinstance(values[0], tl.Undefined):
            assert all(isinstance(v, tl.Undefined) for v in values)
            continue
        assert values[1] == values[0] and values[2] == values[0]
        tl.reduction.verify_certificate(pool.circuit(values[0]), require_normal=True)
        defined += 1
    assert defined > 150


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


def test_node_equality_hash_and_repr_need_no_recursion():
    # terms compare, hash and print through one walk of their DAG
    t, same, lower = (tl.parse(f"tower({k})") for k in (1200, 1200, 1199))
    f, g = (tl.parse("!" * 2000 + "(x = tower(2))") for _ in range(2))
    h = tl.parse("!" * 2000 + "(x = tower(3))")
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(len(inspect.stack(0)) + 100)
    try:
        got = (t == same, t != same, t == lower, t != lower, hash(t) == hash(same),
               f == g, f != g, f == h, f != h, hash(f) == hash(g), t == f)
        keys = {t, same, lower, f, g, h}
        found = (same in keys, tl.parse("tower(1198)") in keys)
        texts = repr(t), repr(f)
    finally:
        sys.setrecursionlimit(limit)
    assert got == (True, False, False, True, True, True, False, False, True, True, False)
    assert len(keys) == 4 and found == (True, False)
    assert texts[0] == "MulPow2(lhs=Const(value=1), rhs=" * 1200 + "Const(value=1)" + ")" * 1200
    assert texts[1] == ("Not(sub=" * 2000 + "Atom(lhs=Var(name='x'), rel='=', rhs="
                        + repr(tl.parse("tower(2)")) + ")" + ")" * 2000)


def test_repr_keeps_the_dataclass_format():
    assert repr(tl.parse("x + -1 < 2^(y)")) == (
        "Atom(lhs=Add(lhs=Var(name='x'), rhs=Sub(lhs=Const(value=0), rhs=Const(value=1))), "
        "rel='<', rhs=MulPow2(lhs=Const(value=1), rhs=Var(name='y')))")
    assert repr(tl.parse("!(1 = 1) | 2 <= 3 & 0b11 >>^ 1 < z * 2")) == (
        "Or(lhs=Not(sub=Atom(lhs=Const(value=1), rel='=', rhs=Const(value=1))), "
        "rhs=And(lhs=Atom(lhs=Const(value=2), rel='<=', rhs=Const(value=3)), "
        "rhs=Atom(lhs=DivPow2(lhs=Const(value=3), rhs=Const(value=1)), rel='<', "
        "rhs=Mul(lhs=Var(name='z'), rhs=Const(value=2)))))")


# the helpers as they were defined before they became folds: one
# interpreter frame per level, a tree and not a DAG


def ref_term_size(t):
    if isinstance(t, (tm.Const, tm.Var)):
        return 0
    return 1 + ref_term_size(t.lhs) + ref_term_size(t.rhs)


def ref_term_vars(t):
    if isinstance(t, tm.Var):
        return frozenset((t.name,))
    if isinstance(t, tm.Const):
        return frozenset()
    return ref_term_vars(t.lhs) | ref_term_vars(t.rhs)


def ref_count(t, leaf):
    if isinstance(t, (tm.Const, tm.Var)):
        return int(leaf(t))
    return ref_count(t.lhs, leaf) + ref_count(t.rhs, leaf)


REF_PREC = {tm.Add: 1, tm.Sub: 1, tm.Mul: 2, tm.MulPow2: 3, tm.DivPow2: 3}
REF_SYM = {tm.Add: "+", tm.Sub: "-", tm.Mul: "*", tm.MulPow2: "<<^", tm.DivPow2: ">>^"}


def ref_pretty(t):
    """(text, precedence) of a term."""
    if isinstance(t, tm.Const):
        return (str(t.value) if t.value >= 0 else f"({t.value})"), None
    if isinstance(t, tm.Var):
        return t.name, None
    lhs, rhs = ref_pretty(t.lhs), ref_pretty(t.rhs)
    if isinstance(t, tm.MulPow2) and t.lhs == tm.Const(1):
        return f"2^({rhs[0]})", None
    prec = REF_PREC[type(t)]
    ctx_l, ctx_r = (prec + 1, prec) if prec == 3 else (prec, prec + 1)

    def wrap(text_prec, ctx):
        text, p = text_prec
        return f"({text})" if p is not None and p < ctx else text

    return f"{wrap(lhs, ctx_l)} {REF_SYM[type(t)]} {wrap(rhs, ctx_r)}", prec


def ref_formula_vars(f):
    if isinstance(f, tm.Atom):
        return ref_term_vars(f.lhs) | ref_term_vars(f.rhs)
    if isinstance(f, tm.Not):
        return ref_formula_vars(f.sub)
    return ref_formula_vars(f.lhs) | ref_formula_vars(f.rhs)


def ref_pretty_formula(f):
    if isinstance(f, tm.Atom):
        return f"{ref_pretty(f.lhs)[0]} {f.rel} {ref_pretty(f.rhs)[0]}"
    if isinstance(f, tm.Not):
        return f"!({ref_pretty_formula(f.sub)})"
    sym = "&" if isinstance(f, tm.And) else "|"
    return f"({ref_pretty_formula(f.lhs)}) {sym} ({ref_pretty_formula(f.rhs)})"


def ref_tau(t):
    if isinstance(t, tm.Const):
        return circ.from_integer(t.value) if t.value else circ.zero_circuit()
    if isinstance(t, tm.Var):
        return circ.var_circuit(t.name)
    return tl._apply(t, ref_tau(t.lhs), ref_tau(t.rhs))


def ref_eq(a, b):
    if type(a) is not type(b):
        return False
    if isinstance(a, tm.Const):
        return a.value == b.value
    if isinstance(a, tm.Var):
        return a.name == b.name
    if isinstance(a, tm.Not):
        return ref_eq(a.sub, b.sub)
    return (getattr(a, "rel", None) == getattr(b, "rel", None)
            and ref_eq(a.lhs, b.lhs) and ref_eq(a.rhs, b.rhs))


def test_folds_match_the_recursive_definitions():
    rng = random.Random(43)
    for _ in range(300):
        # shared subterms exercise the DAG: one value handed to every parent
        t = rand_shared_term(rng, rng.randrange(6), ["x", "y"], [])
        assert tm.term_size(t) == ref_term_size(t)
        assert tm.term_vars(t) == ref_term_vars(t)
        for name in ("x", "y", "z"):
            assert tm.count_var(t, name) == ref_count(
                t, lambda u: isinstance(u, tm.Var) and u.name == name)
        for value in (0, 1, 2, -3):
            assert tm.count_const(t, value) == ref_count(
                t, lambda u: isinstance(u, tm.Const) and u.value == value)
        assert tm.pretty(t) == ref_pretty(t)[0]
        s = rand_shift_term(rng, rng.randrange(6), ["x", "y"])
        assert circ.to_json_dict(tl.tau(s)) == circ.to_json_dict(ref_tau(s))
        f = rand_formula(rng, rng.randrange(5), ["x", "y", "z"])
        assert tm.formula_vars(f) == ref_formula_vars(f)
        assert tm.pretty_formula(f) == ref_pretty_formula(f)


def copy_node(u):
    """An equal term or formula made of fresh objects."""
    return type(u)(*(copy_node(v) if isinstance(v, (tm.Term, tm.Formula)) else v
                     for v in (getattr(u, f.name) for f in dataclasses.fields(u))))


def test_structural_equality_and_hash_match_the_recursive_definition():
    rng = random.Random(47)
    # small and over few symbols, so that distinct objects are often equal
    terms = [rand_shift_term(rng, rng.randrange(3), ["x"]) for _ in range(200)]
    formulas = [rand_formula(rng, rng.randrange(2), []) for _ in range(200)]
    for pool in (terms, formulas):
        equal = 0
        for a in pool:
            b = rng.choice(pool)
            for u, v in ((a, b), (b, a), (a, copy_node(a)), (copy_node(b), a)):
                assert (u == v) is ref_eq(u, v)
                assert (u != v) is not ref_eq(u, v)
                if ref_eq(u, v):
                    equal += 1
                    assert hash(u) == hash(v) and repr(u) == repr(v)
        assert equal > len(pool)  # beyond the copies, some distinct draws were equal
        assert len(set(pool)) == len({repr(u) for u in pool})
    assert tm.Const(1) != 1 and tm.Const(1).__eq__(1) is NotImplemented


def test_dag_kind_errors():
    x = tm.Var("x")
    atom = tm.Atom(x, "<", tm.Const(1))
    cases = [
        (atom, tm.Term, "not a term: Atom(lhs=Var(name='x'), rel='<', rhs=Const(value=1))"),
        (tm.Add(x, atom), tm.Term, "not a term: Atom(lhs=Var(name='x'), rel='<', rhs=Const(value=1))"),
        (x, tm.Formula, "not a formula: Var(name='x')"),
        (tm.And(atom, tm.Not(x)), tm.Formula, "not a formula: Var(name='x')"),
        (tm.Add(x, 5), None, "not a term or formula: 5"),
    ]
    for root, kind, message in cases:
        with pytest.raises(TypeError) as ei:
            tm.dag(root, kind)
        assert str(ei.value) == message
    with pytest.raises(TypeError, match="not a term: "):
        tl.realize(atom)
    with pytest.raises(TypeError, match="not a formula: "):
        tl.eval_formula(x)


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


def test_term_path_never_normalizes(monkeypatch):
    # products and quotients are reduced and taken into the pool, a circuit
    # binding is taken in as it is, and the pool hands the result out
    # already normal
    counts = count_calls(monkeypatch, tl.reduction, "normalize")
    x, y = 12345, gen.tower_circuit(3)
    r = tl.realize(tl.parse("(x * 3 - (x <<^ 5) >>^ 2) + y * y"), {"x": x, "y": y})
    assert counts["normalize"] == 0
    assert r.kind is circ.CircuitKind.NORMAL
    tl.reduction.verify_certificate(r, require_normal=True)
    assert circ.eval_bignum(r) == x * 3 - (x << 5 >> 2) + 16 * 16
