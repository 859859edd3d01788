"""Power circuit data structure: evaluation, standard form, serialization."""

import json

import pytest
from hypothesis import given, settings, strategies as st

from pcirc import circuit as circ
from pcirc.circuit import (
    BUDGET_EXCEEDED,
    IMPROPER,
    CertificateError,
    CircuitInvariantError,
    CircuitKind,
    FrozenCircuitError,
    PowerCircuit,
    VariableCircuitError,
    canonical_bytes,
    eval_bignum,
    from_integer,
    from_json_dict,
    geometric_order,
    is_trivial,
    isomorphic,
    one_circuit,
    standardize,
    term_of,
    to_dot,
    to_json_dict,
    var_circuit,
    zero_circuit,
)
from pcirc.reduction import sign
from pcirc.terms import term_vars


def tower(k):
    n = 1
    for _ in range(k):
        n = 2**n
    return n


def build(edges, marks, n=None, vars_=None):
    """Circuit from edge triples and a mark dict, vertex ids 0..n-1."""
    c = PowerCircuit()
    count = n if n is not None else 1 + max(
        [u for u, _, _ in edges] + [v for _, v, _ in edges] + list(marks), default=0
    )
    ids = [c.add_vertex(var=(vars_ or {}).get(i)) for i in range(count)]
    for u, v, s in edges:
        c.add_edge(ids[u], ids[v], s)
    for v, s in marks.items():
        c.set_mark(ids[v], s)
    return c


def test_single_vertex_is_zero():
    c = zero_circuit()
    assert eval_bignum(c) == 0
    assert is_trivial(c)


def test_leaf_evaluates_to_zero_and_vertex_to_one():
    c = build([(1, 0, 1)], {1: 1})
    assert eval_bignum(c) == 1


def test_tower_chain_evaluates():
    # 0 <- 1 <- 2 <- 3: values 0, 1, 2, 4; top vertex marked
    c = build([(1, 0, 1), (2, 1, 1), (3, 2, 1)], {3: 1})
    assert eval_bignum(c) == 4


def test_negative_edge_makes_fraction_improper():
    c = build([(1, 0, 1), (2, 1, -1)], {2: 1})
    assert eval_bignum(c) is IMPROPER


def test_mark_sum_with_signs():
    c = build([(1, 0, 1), (2, 1, 1)], {1: -1, 2: 1})
    assert eval_bignum(c) == 1


def test_eval_budget():
    c = build([(1, 0, 1)] + [(i, i - 1, 1) for i in range(2, 7)], {6: 1})
    assert eval_bignum(c, bit_budget=100) is BUDGET_EXCEEDED
    assert eval_bignum(c, bit_budget=1 << 20) == tower(5)


def test_variable_circuit_needs_binding():
    c = var_circuit("x")
    with pytest.raises(VariableCircuitError):
        eval_bignum(c)
    assert eval_bignum(c, env={"x": 7}) == 7


def test_variable_with_edges_is_shifted():
    c = build([(1, 0, 1), (2, 1, 1)], {2: 1}, vars_={2: "x"})
    # x * 2^(2^0)
    assert eval_bignum(c, env={"x": 5}) == 10
    assert eval_bignum(c, env={"x": 0}) == 0


def test_dag_only():
    c = PowerCircuit()
    a = c.add_vertex()
    b = c.add_vertex()
    c.add_edge(a, b, 1)
    with pytest.raises(CircuitInvariantError):
        c.add_edge(a, a, 1)
    # cycles surface at validation, not per edge insert
    c.add_edge(b, a, 1)
    c.set_mark(a, 1)
    with pytest.raises(CircuitInvariantError):
        c.validate()


def test_edge_sign_checked():
    c = PowerCircuit()
    a, b = c.add_vertex(), c.add_vertex()
    with pytest.raises(CircuitInvariantError):
        c.add_edge(a, b, 2)
    with pytest.raises(CircuitInvariantError):
        c.add_edge(a, b, 0)


def test_duplicate_edge_rejected():
    c = PowerCircuit()
    a, b = c.add_vertex(), c.add_vertex()
    c.add_edge(a, b, 1)
    with pytest.raises(CircuitInvariantError):
        c.add_edge(a, b, -1)


def test_frozen_rejects_mutation():
    c = from_integer(5)
    with pytest.raises(FrozenCircuitError):
        c.add_vertex()
    with pytest.raises(FrozenCircuitError):
        c.set_mark(next(iter(c.vertices())), 1)


def test_copy_is_mutable_again():
    c = from_integer(5).copy()
    v = c.add_vertex()
    assert v in c


def test_copy_drops_certificate():
    three = from_integer(3)
    c = three.copy()
    assert c.kind is CircuitKind.GENERAL
    assert c.certificate is None
    # 3 = 4 - 1: rewiring the 4 to the zero leaf leaves 1 - 1
    top = max(c.marks, key=three.certificate.rank_map().__getitem__)
    for t in list(c.out_edges(top)):
        c.remove_edge(top, t)
    c.add_edge(top, c.zero_vertices()[0], 1)
    assert eval_bignum(c) == 0
    assert sign(c) == 0
    d = three.copy()
    v = d.add_vertex()
    d.add_edge(v, d.zero_vertices()[0], 1)
    d.set_mark(v, 1)
    assert eval_bignum(d) == 4
    assert sign(d) == 1


def test_geometric_order_points_backward():
    c = build([(1, 0, 1), (2, 1, 1), (3, 1, 1), (3, 2, -1)], {3: 1})
    order = geometric_order(c)
    pos = {v: i for i, v in enumerate(order)}
    for v in c.vertices():
        for t in c.out_edges(v):
            assert pos[t] < pos[v]


def test_from_integer_size_bound_and_value():
    for n in list(range(1, 600)) + [2**13 - 5, 2**15, 2**16 - 1]:
        c = from_integer(n)
        assert c.n_vertices() <= (n - 1).bit_length() + 2
        assert eval_bignum(c) == n
        assert eval_bignum(from_integer(-n)) == -n


def test_from_integer_certified_normal():
    c = from_integer(100)
    assert c.kind is CircuitKind.NORMAL
    assert c.certificate is not None


@given(st.integers(-(2**64), 2**64))
def test_from_integer_round_trip(n):
    assert eval_bignum(from_integer(n)) == n


def test_standardize_merges_zeros_and_strips_redundant_edges():
    c = PowerCircuit()
    z1, z2 = c.add_vertex(), c.add_vertex()
    v = c.add_vertex()
    w = c.add_vertex()
    c.add_edge(v, z1, 1)
    c.add_edge(w, z2, -1)
    c.add_edge(w, v, 1)
    c.set_mark(w, 1)
    s = standardize(c)
    assert len(s.zero_vertices()) == 1
    # w's zero edge was redundant (it also feeds on v), so w denotes 2^1
    assert eval_bignum(s) == eval_bignum(c) == 2
    assert s.n_vertices() <= c.n_vertices()


def test_standardize_zero_marked_collapses_to_trivial():
    c = PowerCircuit()
    z = c.add_vertex()
    c.set_mark(z, -1)
    s = standardize(c)
    assert is_trivial(s)
    assert eval_bignum(s) == 0


def test_standardize_requires_marks():
    c = PowerCircuit()
    c.add_vertex()
    with pytest.raises(CircuitInvariantError):
        standardize(c)


def test_standardize_canonicalizes_sole_zero_edge_sign():
    c = PowerCircuit()
    z = c.add_vertex()
    u = c.add_vertex()
    c.add_edge(u, z, -1)  # 2^(-0) is still 1
    c.set_mark(u, 1)
    s = standardize(c)
    (zv,) = s.zero_vertices()
    (uv,) = [v for v in s.vertices() if v != zv]
    assert s.out_edges(uv)[zv] == 1
    assert eval_bignum(s) == 1


def test_marked_to_sources_preserves_value():
    c = build([(1, 0, 1), (2, 1, 1), (3, 2, 1)], {1: 1, 3: 1})
    m = circ.marked_to_sources(c)
    assert eval_bignum(m) == eval_bignum(c)
    for v in m.marks:
        assert not m.in_vertices(v)


def test_term_of_matches_eval():
    c = build([(1, 0, 1), (2, 1, 1), (3, 2, 1), (3, 1, -1)], {3: 1, 1: -1})
    t = term_of(c)
    assert not term_vars(t)
    # the term tree denotes the same integer
    from pcirc.termlang import realize

    r = realize(t)
    assert eval_bignum(r) == eval_bignum(c)


def test_json_round_trip_general():
    c = build([(1, 0, 1), (2, 1, -1)], {2: 1, 1: -1}, vars_={2: "x"})
    doc = to_json_dict(c)
    back = from_json_dict(doc)
    assert to_json_dict(back) == doc
    assert back.var_of(max(back.vertices())) == "x"


def test_json_round_trip_certified():
    c = from_integer(7)
    back = from_json_dict(to_json_dict(c))
    assert back.kind is CircuitKind.NORMAL
    assert canonical_bytes(back) == canonical_bytes(c)


def test_json_rejects_malformed():
    with pytest.raises(CircuitInvariantError):
        from_json_dict({"vertices": [{"id": 0, "label": None}], "edges": [], "marks": []})
    doc = to_json_dict(from_integer(3))
    doc["kind"] = "normal"
    doc["certificate"]["doubles"] = "11"
    with pytest.raises(CertificateError):
        from_json_dict(doc)
    doc = to_json_dict(from_integer(3))
    del doc["certificate"]
    with pytest.raises(CertificateError):
        from_json_dict(doc)


def test_canonical_bytes_needs_normal():
    c = build([(1, 0, 1)], {1: 1})
    with pytest.raises(CertificateError):
        canonical_bytes(c)


def test_isomorphic_on_normal_forms():
    assert isomorphic(from_integer(41), from_integer(41))
    assert not isomorphic(from_integer(41), from_integer(-41))


def test_to_dot_mentions_all_vertices():
    c = from_integer(5)
    dot = to_dot(c)
    for v in c.vertices():
        assert f"v{v}" in dot
    assert dot.startswith("digraph")


def test_improper_markers_are_distinct_and_falsey_free():
    assert IMPROPER is not BUDGET_EXCEEDED
    assert repr(IMPROPER) == "Improper"
    assert repr(BUDGET_EXCEEDED) == "BudgetExceeded"
