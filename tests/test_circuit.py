"""Power circuit data structure: evaluation, standard form, serialization."""

import json
import random

import pytest
from hypothesis import given, settings, strategies as st

from pcirc import circuit as circ
from pcirc import generators as gen
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
    from_json,
    from_json_dict,
    geometric_order,
    is_trivial,
    isomorphic,
    one_circuit,
    standardize,
    term_of,
    to_dot,
    to_json,
    to_json_dict,
    var_circuit,
    zero_circuit,
)
from pcirc.reduction import sign, verify_certificate
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
    # 100, then a 2048-bit and a negative 8192-bit number
    for n in (100, 3**1292, -(2**8191 + 3**5000)):
        c = from_integer(n)
        assert c.kind is CircuitKind.NORMAL
        verify_certificate(c, require_normal=True)
        assert eval_bignum(c) == n


@given(st.integers(-(2**64), 2**64))
def test_from_integer_round_trip(n):
    assert eval_bignum(from_integer(n)) == n


def checked_from_integer(n):
    """from_integer as built through the checked add_vertex and add_edge."""
    from pcirc.circuit import Certificate
    from pcirc.signed_binary import compact_of_integer

    c = PowerCircuit()
    if n == 0:
        v = c.add_vertex()
        c.set_mark(v, 1)
        return c.freeze(CircuitKind.NORMAL, Certificate((v,), ()))
    comp = compact_of_integer(abs(n))
    exps = {}
    todo = list(comp.exponents())
    while todo:
        e = todo.pop()
        if e not in exps:
            exps[e] = compact_of_integer(e)
            todo.extend(exps[e].exponents())
    kept = sorted(exps)
    z = c.add_vertex()
    power = {e: c.add_vertex() for e in kept}
    c.add_edge(power[0], z, 1)
    for e in kept:
        for q, ec in exps[e]:
            c.add_edge(power[e], power[q], ec)
    for q, ec in comp:
        c.set_mark(power[q], (1 if n > 0 else -1) * ec)
    order = (z,) + tuple(power[e] for e in kept)
    doubles = (False,) + tuple(kept[i + 1] == kept[i] + 1 for i in range(len(kept) - 1))
    return c.freeze(CircuitKind.NORMAL, Certificate(order, doubles))


def test_from_integer_matches_checked_build():
    # from_integer fills its tables directly; the graph, marks and
    # certificate are those of the checked build, edge insertion order too
    rng = random.Random(23)
    values = [0, 1, -1] + list(range(-40, 41))
    values += [rng.choice((1, -1)) * rng.getrandbits(rng.randrange(1, 1025)) for _ in range(300)]
    values += [2**1023, -(2**1024 - 1)]
    for n in values:
        got, want = from_integer(n), checked_from_integer(n)
        assert to_json_dict(got) == to_json_dict(want), n
        assert list(got._succ.items()) == list(want._succ.items()), n
        assert got._pred == want._pred and got._next_id == want._next_id, n


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


def test_json_round_trip_standard():
    for seed in range(12):
        rng = random.Random(seed)
        c = standardize(gen.random_circuit(rng, rng.randrange(2, 30)))
        back = from_json(to_json(c))
        assert back.kind is CircuitKind.STANDARD
        assert to_json_dict(back) == to_json_dict(c)


def test_json_certificate_iff_reduced_or_normal():
    cert = to_json_dict(from_integer(5))["certificate"]
    std = to_json_dict(standardize(build([(1, 0, 1), (2, 1, 1)], {2: 1})))
    for kind in ("standard", "general"):
        with pytest.raises(CertificateError, match="standard and general"):
            from_json_dict({**std, "kind": kind, "certificate": cert})
    for kind in ("reduced", "normal"):
        with pytest.raises(CertificateError, match="standard and general"):
            from_json_dict({**std, "kind": kind})


def test_json_standard_claim_is_checked():
    # two zero leaves, an unreachable vertex, a marked zero, a needless zero edge
    for edges, marks in (([(2, 0, 1), (3, 1, 1)], {2: 1, 3: 1}),
                         ([(1, 0, 1), (2, 1, 1)], {1: 1}),
                         ([(1, 0, 1)], {1: 1, 0: 1}),
                         ([(1, 0, 1), (2, 1, 1), (2, 0, 1)], {2: 1})):
        doc = {**to_json_dict(build(edges, marks)), "kind": "standard"}
        with pytest.raises(CircuitInvariantError, match="standard"):
            from_json_dict(doc)


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


def test_json_edges_keep_add_edges_checks():
    # the loader fills the edge tables directly, with the checks add_edge makes
    doc = to_json_dict(build([(1, 0, 1), (2, 1, 1)], {2: 1}))
    for edge in ({"from": 2, "to": 1, "sign": 1},  # duplicate
                 {"from": 2, "to": 2, "sign": 1},  # self loop
                 {"from": 2, "to": 0, "sign": 2},
                 {"from": 2, "to": 0, "sign": 0},
                 {"from": 2, "to": 7, "sign": 1},
                 {"from": 7, "to": 0, "sign": 1}):
        with pytest.raises(CircuitInvariantError):
            from_json_dict({**doc, "edges": doc["edges"] + [edge]})
    back = from_json_dict(doc)
    assert to_json_dict(back) == doc
    assert {v: set(back.in_vertices(v)) for v in back.vertices()} == {0: {1}, 1: {2}, 2: set()}


def test_a_loaded_circuit_is_ordered_once(monkeypatch):
    # validating a document computes its geometric order; the loaded
    # circuit is frozen and keeps that order, so normalize does not order it
    # again, while a copy, which can be edited, starts without it
    import heapq

    from pcirc.reduction import normalize

    sorts = []
    real = heapq.heapify
    monkeypatch.setattr(heapq, "heapify", lambda xs: (sorts.append(len(xs)), real(xs))[1])
    rng = random.Random(5)
    for _ in range(20):
        c = gen.random_circuit(rng, rng.randrange(2, 40))
        sorts.clear()
        back = from_json(to_json(c))
        assert len(sorts) == 1
        with pytest.raises(FrozenCircuitError):
            back.add_vertex()
        nf = normalize(back)
        if len(circ.reachable_from_marks(c)) == c.n_vertices():
            assert len(sorts) == 1  # a trimmed copy would be ordered afresh
        assert (nf is IMPROPER) == (normalize(c) is IMPROPER)
        assert geometric_order(back) == geometric_order(c)
        w = back.copy()
        w.add_edge(w.add_vertex(), min(w.zero_vertices()), 1)
        assert len(geometric_order(w)) == back.n_vertices() + 1


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
