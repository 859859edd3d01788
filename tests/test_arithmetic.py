"""Circuit arithmetic: exact sizes, oracle agreement, division modes."""

import random

import pytest
from hypothesis import given, settings, strategies as st

from pcirc import arithmetic as ar
from pcirc import circuit as circ
from pcirc import generators as gen
from pcirc import reduction
from pcirc.arithmetic import (
    DivMode,
    add,
    div_pow2,
    div_pow2_raw,
    exp2,
    mul_pow2,
    multiply,
    negate,
    subtract,
)
from pcirc.circuit import (
    IMPROPER,
    PowerCircuit,
    VariableCircuitError,
    eval_bignum,
    from_integer,
    var_circuit,
)
from pcirc.reduction import normalize, reduce, sign
from pcirc.signed_binary import compact_of_integer


def binary_marks(n):
    """Circuit for n >= 1 whose marks are the plain binary digits."""
    assert n >= 1
    c = PowerCircuit()
    z = c.add_vertex()
    powers = [c.add_vertex() for _ in range(n.bit_length())]
    c.add_edge(powers[0], z, 1)
    for e in range(1, len(powers)):
        # exponent e in binary, over the earlier powers
        for q in range(e.bit_length()):
            if (e >> q) & 1:
                c.add_edge(powers[e], powers[q], 1)
    for e in range(n.bit_length()):
        if (n >> e) & 1:
            c.set_mark(powers[e], 1)
    return c


def test_add_subtract_exact_sizes():
    rng = random.Random(31)
    for _ in range(200):
        a = gen.random_circuit(rng, rng.randint(1, 9))
        b = gen.random_circuit(rng, rng.randint(1, 9))
        s = add(a, b)
        assert s.n_vertices() == a.n_vertices() + b.n_vertices()
        assert s.n_edges() == a.n_edges() + b.n_edges()
        assert len(s.marks) == len(a.marks) + len(b.marks)
        d = subtract(a, b)
        assert d.n_vertices() == a.n_vertices() + b.n_vertices()
        assert len(d.marks) == len(a.marks) + len(b.marks)


def test_negate_flips_sign():
    c = from_integer(9)
    assert eval_bignum(negate(c)) == -9
    assert negate(c).n_vertices() == c.n_vertices()


def test_exp2_examples_and_size():
    assert eval_bignum(exp2(from_integer(0))) == 1
    assert eval_bignum(exp2(from_integer(3))) == 8
    assert eval_bignum(exp2(from_integer(-1)), bit_budget=64) is IMPROPER
    c = from_integer(3)
    assert exp2(c).n_vertices() == c.n_vertices() + 1


def test_exp2_iteration_stays_linear():
    c = from_integer(1)
    want = 1
    for k in range(1, 8):
        c = exp2(c)
        assert c.n_vertices() <= k + 2
        if want is not None and want < 4096:
            want = 2**want
            assert eval_bignum(c, bit_budget=8192) == want
        else:
            want = None


def test_tower_circuit_is_the_exp2_chain():
    # built directly in linear time, but vertex for vertex the exp2 chain
    c = circ.one_circuit()
    for k in range(41):
        assert circ.to_json_dict(gen.tower_circuit(k)) == circ.to_json_dict(c)
        c = exp2(c)


def test_mul_pow2_examples():
    assert eval_bignum(mul_pow2(from_integer(3), from_integer(4))) == 48
    assert eval_bignum(mul_pow2(from_integer(1), from_integer(10))) == 1024
    assert eval_bignum(mul_pow2(from_integer(0), from_integer(5))) == 0
    # negative exponent can make the result fractional
    assert eval_bignum(mul_pow2(from_integer(3), from_integer(-1))) is IMPROPER
    assert eval_bignum(mul_pow2(from_integer(6), from_integer(-1))) == 3


def test_mul_pow2_size_bound():
    rng = random.Random(37)
    for _ in range(200):
        a = gen.random_circuit(rng, rng.randint(1, 8))
        b = gen.random_circuit(rng, rng.randint(1, 8))
        p = mul_pow2(a, b)
        assert p.n_vertices() <= a.n_vertices() + b.n_vertices() + len(a.marks)


def test_multiply_examples():
    assert eval_bignum(multiply(from_integer(17), from_integer(17))) == 289
    assert eval_bignum(multiply(from_integer(-3), from_integer(5))) == -15
    assert eval_bignum(multiply(from_integer(1), from_integer(99))) == 99
    assert eval_bignum(multiply(from_integer(0), from_integer(99))) == 0


def test_multiply_mark_product_and_size_bound():
    rng = random.Random(41)
    for _ in range(200):
        a = gen.random_circuit(rng, rng.randint(1, 7))
        b = gen.random_circuit(rng, rng.randint(1, 7))
        p = multiply(a, b)
        assert p.n_vertices() <= a.n_vertices() + b.n_vertices() + len(a.marks) * len(b.marks)
        if not any(a.is_zero_leaf(v) for v in a.marks) and not any(
            b.is_zero_leaf(v) for v in b.marks
        ):
            assert len(p.marks) == len(a.marks) * len(b.marks)


def test_multiply_variables():
    x = var_circuit("x")
    p = multiply(x, from_integer(6))
    assert eval_bignum(p, env={"x": 7}) == 42
    with pytest.raises(VariableCircuitError):
        multiply(x, var_circuit("y"))


def test_div_exact_examples():
    assert eval_bignum(div_pow2(from_integer(48), from_integer(4))) == 3
    assert div_pow2(from_integer(3), from_integer(1)) is IMPROPER
    assert eval_bignum(div_pow2(from_integer(7), from_integer(0))) == 7
    assert eval_bignum(div_pow2(from_integer(-48), from_integer(4))) == -3
    # negative divisor exponent is a left shift, always defined
    assert eval_bignum(div_pow2(from_integer(3), from_integer(-2))) == 12


def test_div_exact_rejects_variables():
    with pytest.raises(VariableCircuitError):
        div_pow2(var_circuit("x"), from_integer(1))


def test_div_drop_depends_on_mark_representation():
    # binary marks of 3: the 2^0 summand is dropped, leaving 2^1
    assert eval_bignum(div_pow2(binary_marks(3), from_integer(1), DivMode.DROP)) == 1
    # compact marks of 3 are +4 -1: dropping -1 leaves 4, so 4/2 = 2
    assert eval_bignum(div_pow2(from_integer(3), from_integer(1), DivMode.DROP)) == 2
    # 7 as +8 -1: dropping the -1 summand yields 8/2 = 4, not floor(7/2)
    assert eval_bignum(div_pow2(from_integer(7), from_integer(1), DivMode.DROP)) == 4
    # a negative divisor exponent shifts left and drops nothing
    assert eval_bignum(div_pow2(from_integer(3), from_integer(-2), DivMode.DROP)) == 12


def test_div_drop_searches_the_marks(monkeypatch):
    # one reduction per marked summand would make hundreds of calls here
    n = random.Random(1024).getrandbits(1024) | 1 << 1023
    a = from_integer(n)
    assert len(a.marks) > 300
    calls = []
    real = reduction.reduce

    def counting(c, stats=None):
        calls.append(c)
        return real(c, stats)

    monkeypatch.setattr(reduction, "reduce", counting)
    d = div_pow2(a, from_integer(300), DivMode.DROP)
    assert len(calls) <= 16
    want = sum(s << (e - 300) for e, s in compact_of_integer(n) if e >= 300)
    assert eval_bignum(d) == want


def test_div_drop_is_floor_for_single_sign_marks():
    rng = random.Random(43)
    for _ in range(150):
        n = rng.randint(1, 500)
        k = rng.randint(0, 6)
        d = div_pow2(binary_marks(n), from_integer(k), DivMode.DROP)
        assert eval_bignum(d) == n >> k


def test_div_drop_always_proper():
    rng = random.Random(47)
    for _ in range(150):
        n = rng.randint(-300, 300)
        k = rng.randint(0, 5)
        d = div_pow2(from_integer(n), from_integer(k), DivMode.DROP)
        assert eval_bignum(d) is not IMPROPER


def test_div_raw_keeps_zero_leaves_bare():
    # (1 - 1) >>^ 2 wires nothing from the cancelled-out zero summands
    a = subtract(from_integer(1), from_integer(1))
    ra = reduce(a)
    d = div_pow2_raw(ra, from_integer(2))
    assert eval_bignum(d) == 0


@given(st.integers(-(2**30), 2**30), st.integers(-(2**30), 2**30))
@settings(max_examples=80, deadline=None)
def test_ring_ops_match_integers(x, y):
    a, b = from_integer(x), from_integer(y)
    assert eval_bignum(add(a, b)) == x + y
    assert eval_bignum(subtract(a, b)) == x - y
    assert eval_bignum(multiply(a, b), bit_budget=4096) == x * y


@given(st.integers(-(2**20), 2**20), st.integers(0, 30))
@settings(max_examples=80, deadline=None)
def test_shifts_match_integers(x, k):
    a, kc = from_integer(x), from_integer(k)
    assert eval_bignum(mul_pow2(a, kc), bit_budget=4096) == x << k
    back = div_pow2(mul_pow2(a, kc), kc)
    assert eval_bignum(back, bit_budget=4096) == x


def test_exact_division_detects_divisibility():
    for n in (2, 6, 20, 1024, -8):
        assert eval_bignum(div_pow2(from_integer(n), from_integer(1))) == n // 2
    for n in (1, 5, 21, -9):
        assert div_pow2(from_integer(n), from_integer(1)) is IMPROPER
