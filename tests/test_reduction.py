"""Reduction, normal forms, sign and certificate verification."""

import random

import pytest
from hypothesis import given, settings, strategies as st

from pcirc import arithmetic as ar
from pcirc import circuit as circ
from pcirc import generators as gen
from pcirc.circuit import (
    IMPROPER,
    Certificate,
    CircuitKind,
    PowerCircuit,
    canonical_bytes,
    eval_bignum,
    from_integer,
)
from pcirc.reduction import (
    ReduceStats,
    compare_circuits,
    normalize,
    reduce,
    sign,
    verify_certificate,
)


def build(edges, marks, n):
    c = PowerCircuit()
    ids = [c.add_vertex() for _ in range(n)]
    for u, v, s in edges:
        c.add_edge(ids[u], ids[v], s)
    for v, s in marks.items():
        c.set_mark(ids[v], s)
    return c, ids


def vertex_values(c):
    val = {}
    for v in circ.geometric_order(c):
        if not c._succ[v]:
            val[v] = 0
        else:
            val[v] = 1 << sum(s * val[t] for t, s in c._succ[v].items())
    return val


def test_reduce_trivial_and_zero_sum():
    c, _ = build([], {0: 1}, 1)
    r = reduce(c)
    assert circ.is_trivial(r)
    # +1 and -1 marks on equal vertices cancel to the trivial circuit
    c, _ = build([(1, 0, 1), (2, 0, 1)], {1: 1, 2: -1}, 3)
    r = reduce(c)
    assert circ.is_trivial(r)
    assert eval_bignum(r) == 0


def test_reduce_merges_duplicates():
    cases = [
        ([(1, 0, 1), (2, 0, 1), (3, 1, 1), (4, 2, 1)], {3: 1, 4: 1}, 5, 4),
        # a vertex worth 2 that reaches its equal-valued twin through +2 -1
        ([(1, 0, 1), (2, 1, 1), (3, 2, 1), (3, 1, -1)], {3: 1}, 4, 2),
        ([(1, 0, 1), (2, 1, 1)], {2: 1}, 3, 2),
        # two marked twins, then a twin with a parent of its own
        ([(1, 0, 1), (2, 1, 1), (3, 1, 1)], {2: 1, 3: 1}, 4, 4),
        ([(1, 0, 1), (2, 1, 1), (3, 1, 1), (4, 3, 1)], {4: 1, 3: 1}, 5, 6),
        ([(1, 0, 1), (2, 1, -1)], {2: 1}, 3, IMPROPER),
    ]
    for edges, marks, n, want in cases:
        c, _ = build(edges, marks, n)
        r = reduce(c)
        if want is IMPROPER:
            assert r is IMPROPER
            continue
        assert eval_bignum(r) == want
        vals = vertex_values(r)
        assert len(set(vals.values())) == len(vals)
        verify_certificate(r)


def test_reduce_improper():
    c, _ = build([(1, 0, 1), (2, 1, -1)], {2: 1}, 3)
    assert reduce(c) is IMPROPER
    assert sign(c) is IMPROPER


def test_reduce_creates_at_most_one_vertex():
    # two value-8 vertices built from 1+2; doubling must invent the
    # missing value-4 helper
    c, _ = build(
        [(1, 0, 1), (2, 1, 1), (3, 1, 1), (3, 2, 1), (4, 1, 1), (4, 2, 1)],
        {3: 1, 4: 1},
        5,
    )
    before = circ.standardize(c).n_vertices()
    r = reduce(c)
    assert eval_bignum(r) == 16
    assert r.n_vertices() <= before + 1
    assert 4 in {v for v in vertex_values(r).values()}
    verify_certificate(r)


def test_reduce_stats_counts_work():
    c, _ = build([(1, 0, 1), (2, 0, 1), (3, 1, 1), (4, 2, 1)], {3: 1, 4: 1}, 5)
    stats = ReduceStats()
    reduce(c, stats)
    assert stats.ops > 0
    assert stats.separations >= 1


def test_sign_reads_certificate_without_rework():
    r = reduce(ar.subtract(from_integer(3), from_integer(10)))
    stats = ReduceStats()
    assert sign(r, stats) == -1
    assert stats.ops == 0


def test_sign_basics():
    assert sign(from_integer(17)) == 1
    assert sign(from_integer(-17)) == -1
    assert sign(from_integer(0)) == 0


def test_compare_circuits():
    assert compare_circuits(from_integer(5), from_integer(3)) == 1
    assert compare_circuits(from_integer(3), from_integer(5)) == -1
    assert compare_circuits(from_integer(5), from_integer(5)) == 0


def test_normalize_matches_from_integer():
    for n in (0, 1, -1, 7, -7, 100, 2**20 + 3, -(2**16 - 1)):
        c, _ = build([], {0: 1}, 1)
        nf = normalize(ar.add(from_integer(n), c))
        assert canonical_bytes(nf) == canonical_bytes(from_integer(n))
        verify_certificate(nf, require_normal=True)


def test_normalize_idempotent():
    nf = normalize(ar.add(from_integer(19), from_integer(23)))
    again = normalize(nf)
    assert canonical_bytes(again) == canonical_bytes(nf)


def test_normalize_improper():
    c, _ = build([(1, 0, 1), (2, 1, -1)], {2: 1}, 3)
    assert normalize(c) is IMPROPER


def test_normalize_size_at_most_double():
    rng = random.Random(5)
    for _ in range(200):
        c = gen.random_circuit(rng, rng.randint(1, 10))
        r = reduce(c)
        if r is IMPROPER:
            continue
        nf = normalize(c)
        assert nf.n_vertices() <= 2 * r.n_vertices()


def test_verify_rejects_tampering():
    nf = normalize(from_integer(21))
    order = nf.certificate.order
    bad = nf.copy()
    bad.freeze(CircuitKind.NORMAL, Certificate(order[::-1], nf.certificate.doubles))
    with pytest.raises(circ.CircuitError):
        verify_certificate(bad, require_normal=True)
    bad = nf.copy()
    flipped = tuple(not b for b in nf.certificate.doubles)
    bad.freeze(CircuitKind.NORMAL, Certificate(order, flipped))
    with pytest.raises(circ.CircuitError):
        verify_certificate(bad, require_normal=True)


@given(st.integers(-(2**32), 2**32), st.integers(-(2**32), 2**32))
@settings(max_examples=60, deadline=None)
def test_normalize_add_agrees_with_integers(a, b):
    nf = normalize(ar.add(from_integer(a), from_integer(b)))
    assert canonical_bytes(nf) == canonical_bytes(from_integer(a + b))


@given(st.integers(-(2**32), 2**32), st.integers(0, 24))
@settings(max_examples=60, deadline=None)
def test_normalize_shift_agrees_with_integers(a, k):
    nf = normalize(ar.mul_pow2(from_integer(a), from_integer(k)))
    assert canonical_bytes(nf) == canonical_bytes(from_integer(a << k))


def test_reduce_fuzz_round():
    rng = random.Random(1729)
    checked = 0
    for _ in range(400):
        c = gen.random_circuit(rng, rng.randint(1, 12))
        want = eval_bignum(c, bit_budget=4096)
        if want is circ.BUDGET_EXCEEDED:
            continue
        before = circ.standardize(c).n_vertices()
        r = reduce(c)
        if want is IMPROPER:
            assert r is IMPROPER
            continue
        assert eval_bignum(r, bit_budget=4096) == want
        assert r.n_vertices() <= before + 1
        vals = vertex_values(r)
        assert len(set(vals.values())) == len(vals)
        verify_certificate(r)
        nf = normalize(c)
        assert canonical_bytes(nf) == canonical_bytes(from_integer(want))
        checked += 1
    assert checked > 200
