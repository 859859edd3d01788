"""Reduction, normal forms, sign and certificate verification."""

import random

import pytest
from hypothesis import given, settings, strategies as st

from pcirc import arithmetic as ar
from pcirc import circuit as circ
from pcirc import generators as gen
from pcirc import reduction
from pcirc.circuit import (
    IMPROPER,
    Certificate,
    CircuitKind,
    PowerCircuit,
    canonical_bytes,
    eval_bignum,
    from_integer,
    zero_circuit,
)
from pcirc.reduction import (
    ReduceStats,
    compare_circuits,
    normalize,
    reduce,
    sign,
    verify_certificate,
)
from pcirc.signed_binary import SignedSum


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


def positive_dag(rng, n):
    """Random dag with every edge and mark +1, so every value is proper."""
    c = PowerCircuit()
    vs = [c.add_vertex()]
    for _ in range(1, n):
        v = c.add_vertex()
        for t in rng.sample(vs, min(rng.choice([1, 1, 2, 2, 3]), len(vs))):
            c.add_edge(v, t, 1)
        vs.append(v)
    for v in rng.sample(vs, rng.randint(1, max(1, n // 3))):
        c.set_mark(v, 1)
    return c


def relabel(c):
    """The same circuit with vertex ids reversed, so it sweeps in another order."""
    w = PowerCircuit()
    m = {v: w.add_vertex() for v in sorted(c.vertices(), reverse=True)}
    for v in c.vertices():
        for t, s in c.out_edges(v).items():
            w.add_edge(m[v], m[t], s)
    for v, s in c.marks.items():
        w.set_mark(m[v], s)
    return w


def test_reduce_cancelling_circuits():
    # differences of equal parts separate at almost every vertex, so many
    # vertices die during the sweep and only the final trim removes them
    rng = random.Random(4242)
    cases = []
    for _ in range(30):
        c = positive_dag(rng, rng.randint(5, 40))
        cases.append((ar.subtract(c, relabel(c)), 0))
        cases.append((ar.subtract(ar.add(c, from_integer(1)), relabel(c)), 1))
    for _ in range(20):
        n, a, b = rng.randint(1, 40), rng.randint(0, 300), rng.randint(0, 300)
        t = gen.tower_circuit(n)
        diff = ar.subtract(ar.add(t, from_integer(a)), ar.add(t, from_integer(b)))
        cases.append((diff, a - b))
    for c, want in cases:
        assert sign(c) == (want > 0) - (want < 0)
        r = reduce(c)
        verify_certificate(r)
        assert r.n_vertices() <= circ.standardize(c).n_vertices() + 1
        nf = normalize(c)
        verify_certificate(nf, require_normal=True)
        assert canonical_bytes(nf) == canonical_bytes(from_integer(want))


def random_sum(rng, k):
    """A circuit summing k random 256-bit integers, and that sum."""
    xs = [rng.getrandbits(256) for _ in range(k)]
    c = from_integer(xs[0])
    for x in xs[1:]:
        c = ar.add(c, from_integer(x))
    return c, sum(xs)


def test_sweep_takes_slots_from_the_certificate(monkeypatch):
    # a vertex costs one binary search: its last compares give the slot's
    # doubling bits, and after a doubling the certificate names the next
    # slot, so a separation costs at most the right bit's compare
    calls = []
    real_compare = reduction.compare_counted
    real_locate = reduction._State.locate
    real_process = reduction._State.process_vertex
    real_double = reduction._State.double_value

    def compare(a, b, domain):
        if calls and calls[-1]["open"]:
            calls[-1]["pairs"].append((a.digits, b.digits))
        return real_compare(a, b, domain)

    def locate(self, sv):
        slot = real_locate(self, sv)
        calls[-1].setdefault("searched", len(calls[-1]["pairs"]))
        return slot

    def process_vertex(self, v):
        calls.append({"open": True, "pairs": [], "separations": 0})
        try:
            return real_process(self, v)
        finally:
            calls[-1]["open"] = False

    def double_value(self, vi, vj, ds):
        calls[-1]["separations"] += 1
        return real_double(self, vi, vj, ds)

    monkeypatch.setattr(reduction, "compare_counted", compare)
    monkeypatch.setattr(reduction._State, "locate", locate)
    monkeypatch.setattr(reduction._State, "process_vertex", process_vertex)
    monkeypatch.setattr(reduction._State, "double_value", double_value)
    rng = random.Random(3)
    for k in (4, 8, 16, 32):
        c, want = random_sum(rng, k)
        r = reduce(c)
        verify_certificate(r)
        assert eval_bignum(r, bit_budget=4096) == want
    assert sum(call["separations"] >= 2 for call in calls) > 100
    for call in calls:
        assert len(set(call["pairs"])) == len(call["pairs"])
        assert len(call["pairs"]) - call.get("searched", 0) <= call["separations"]


def test_exact_twins_are_found_without_a_compare(monkeypatch):
    # a vertex whose digits equal a certified vertex's digits has that
    # vertex's value, and the sweep finds it by hash, not by binary search
    compares = []
    twins = []
    real_compare = reduction.compare_counted
    real_locate = reduction._State.locate

    def compare(a, b, domain):
        compares.append((a.digits, b.digits))
        return real_compare(a, b, domain)

    def locate(self, sv):
        twin = [u for u in self.order[1:] if SignedSum(self.digits_of(u)) == sv]
        before = len(compares)
        found, bits = real_locate(self, sv)
        if twin:
            assert bits is None and [found] == twin
            twins.append(len(compares) - before)
        return found, bits

    monkeypatch.setattr(reduction, "compare_counted", compare)
    monkeypatch.setattr(reduction._State, "locate", locate)
    rng = random.Random(7)
    cases = []
    for _ in range(15):
        c = positive_dag(rng, rng.randint(5, 40))
        cases.append((ar.subtract(c, relabel(c)), 0))
        cases.append((ar.subtract(ar.add(c, from_integer(1)), relabel(c)), 1))
    for _ in range(10):
        n, a, b = rng.randint(1, 40), rng.randint(0, 300), rng.randint(0, 300)
        t = gen.tower_circuit(n)
        diff = ar.subtract(ar.add(t, from_integer(a)), ar.add(t, from_integer(b)))
        cases.append((diff, a - b))
    for c, want in cases:
        r = reduce(c)
        verify_certificate(r)
        assert eval_bignum(r) == want
    assert len(twins) > 500
    assert twins == [0] * len(twins)


def test_memo_never_goes_stale(monkeypatch):
    # trim ends reduce; by then every memoized digit sum of a vertex still
    # in the circuit must match its out-edges, and every twin index entry
    # must name a distinct vertex with exactly those digits
    checked = []
    indexed = []
    real_trim = reduction._State.trim

    def trim(self):
        for u, su in self.sums.items():
            if u in self.c._succ:
                assert su == SignedSum(self.digits_of(u))
                checked.append(u)
        for digits, u in self.vertex_of.items():
            assert self.sums[u].digits == digits
            indexed.append(u)
        assert len(set(self.vertex_of.values())) == len(self.vertex_of)
        return real_trim(self)

    monkeypatch.setattr(reduction._State, "trim", trim)
    rng = random.Random(11)
    cases = [random_sum(rng, k) for k in (2, 5, 9, 17, 33)]
    for _ in range(10):
        n, a, b = rng.randint(1, 40), rng.randint(0, 300), rng.randint(0, 300)
        t = gen.tower_circuit(n)
        diff = ar.subtract(ar.add(t, from_integer(a)), ar.add(t, from_integer(b)))
        cases.append((diff, a - b))
    # twins: vertices die mid-sweep and later twins bring them back to life
    for _ in range(15):
        c = positive_dag(rng, rng.randint(5, 40))
        cases.append((ar.subtract(c, relabel(c)), 0))
        cases.append((ar.subtract(ar.add(c, from_integer(1)), relabel(c)), 1))
    # normalize no longer sweeps, so each case runs one sweep, not two
    cases += [random_sum(rng, k) for k in (12, 24, 40)]
    for c, want in cases:
        r = reduce(c)
        verify_certificate(r)
        nf = normalize(c)
        verify_certificate(nf, require_normal=True)
        assert canonical_bytes(nf) == canonical_bytes(from_integer(want))
    assert len(checked) > 2000
    assert len(indexed) > 2000


def test_each_digit_sum_is_built_about_once(monkeypatch):
    # a certified vertex's digit sum is built once per sweep, not once per
    # compare against it
    calls = {"digits_of": 0, "process_vertex": 0}

    def count(name):
        real = getattr(reduction._State, name)

        def wrapper(self, v):
            calls[name] += 1
            return real(self, v)

        monkeypatch.setattr(reduction._State, name, wrapper)

    count("digits_of")
    count("process_vertex")
    rng = random.Random(3)
    for k in (4, 8, 16, 32):
        c, want = random_sum(rng, k)
        calls.update(digits_of=0, process_vertex=0)
        r = reduce(c)
        assert eval_bignum(r, bit_budget=4096) == want
        assert calls["digits_of"] <= 3 * calls["process_vertex"]


def test_mutated_certified_copy_keeps_no_stale_sign():
    # a copy drops its certificate, so after any mutation that keeps the
    # circuit proper, sign reduces afresh and agrees with evaluation
    rng = random.Random(2024)
    for i in range(300):
        a, b = rng.randrange(-(2**16), 2**16), rng.randrange(-(2**16), 2**16)
        base = (reduce if i % 2 else normalize)(ar.add(from_integer(a), from_integer(b)))
        order = base.certificate.order
        rank = {v: j for j, v in enumerate(order)}
        marks = base.marks
        mutations = {
            "mark": [(v, s) for v in order for s in (1, -1) if marks.get(v) != s],
            "unmark": [(v, None) for v in marks] if len(marks) > 1 else [],
            # only a source gains the edge, so values grow by a factor of at
            # most 2^(2^17) and stay evaluable; a vertex lower in the order
            # cannot reach the source, so no cycle closes
            "edge": [
                (u, t)
                for u in order
                if not base.in_vertices(u)
                for t in order[: rank[u]]
                if t not in base.out_edges(u)
            ],
        }
        kind = rng.choice([k for k, options in mutations.items() if options])
        v, arg = rng.choice(mutations[kind])
        m = base.copy()
        if kind == "mark":
            m.set_mark(v, arg)
        elif kind == "unmark":
            m.unmark(v)
        else:
            m.add_edge(v, arg, 1)
        want = eval_bignum(m)
        assert sign(m) == (want > 0) - (want < 0)
        assert sign(base) == ((a + b) > 0) - ((a + b) < 0)


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


def count_sweep_work(monkeypatch):
    """Live counts of the vertices the sweep processes and of its compares."""
    n = {"processed": 0, "compares": 0}
    real_process = reduction._State.process_vertex
    real_compare = reduction.compare_counted

    def process_vertex(self, v):
        n["processed"] += 1
        return real_process(self, v)

    def compare(a, b, domain):
        n["compares"] += 1
        return real_compare(a, b, domain)

    monkeypatch.setattr(reduction._State, "process_vertex", process_vertex)
    monkeypatch.setattr(reduction, "compare_counted", compare)
    return n


def test_seeded_sweep_processes_only_the_smaller_operand(monkeypatch):
    # a union of two normal operands starts from the larger one's
    # certificate, so only the smaller one's vertices are swept
    n = count_sweep_work(monkeypatch)
    rng = random.Random(5)
    for _ in range(80):
        a = rng.randrange(-(2**rng.randrange(1, 400)), 2**rng.randrange(1, 400))
        b = rng.randrange(-(2**rng.randrange(1, 400)), 2**rng.randrange(1, 400))
        x, y = from_integer(a), from_integer(b)
        for c, want in ((ar.add(x, y), a + b), (ar.subtract(y, x), b - a)):
            n["processed"] = 0
            r = reduce(c)
            verify_certificate(r)
            assert eval_bignum(r, bit_budget=1024) == want
            assert n["processed"] <= min(x.n_vertices(), y.n_vertices()) + 2
        # the seed is indexed, so each vertex of an equal operand finds its
        # twin by hash and cancels without a compare
        n["compares"] = 0
        assert circ.is_trivial(reduce(ar.subtract(x, from_integer(a))))
        assert n["compares"] == 0


def test_shift_by_a_reduced_exponent_processes_a_few_vertices(monkeypatch):
    # mul_pow2(1, r) adds one vertex above the reduced exponent r; the
    # sweep starts from r's certificate and places that vertex alone
    n = count_sweep_work(monkeypatch)
    rng = random.Random(6)
    for _ in range(80):
        a = rng.randrange(-(2**40), 2**40)
        e = rng.randrange(-40, 3000) - a
        r = reduce(ar.add(from_integer(a), from_integer(e)))
        n["processed"] = 0
        out = reduce(ar.mul_pow2(from_integer(1), r))
        assert n["processed"] <= 3
        if a + e < 0:
            assert out is IMPROPER
        else:
            verify_certificate(out)
            assert eval_bignum(out, bit_budget=4096) == 1 << (a + e)


def test_reduce_returns_a_certified_input_as_it_is(monkeypatch):
    # a certified input leaves nothing to sweep: reduce hands it back, kind
    # and vertex ids included, without a compare
    rng = random.Random(8)
    certified = [from_integer(2**4096 - 3), zero_circuit()]
    for k in (3, 9):
        c, _ = random_sum(rng, k)
        certified += [reduce(c), normalize(c)]
    certified.append(reduce(ar.subtract(from_integer(5), from_integer(5))))
    kinds = [c.kind for c in certified]
    assert set(kinds) == {CircuitKind.REDUCED, CircuitKind.NORMAL}
    n = count_sweep_work(monkeypatch)
    for c, kind in zip(certified, kinds):
        assert reduce(c) is c
        assert c.kind is kind
    assert n == {"processed": 0, "compares": 0}
    # the trivial zero keeps its one vertex id
    zero = zero_circuit()
    assert reduce(zero) is zero
    assert reduce(zero).certificate.order == tuple(zero.vertices())
    # normalize runs only its own passes over a certified input
    nf = normalize(certified[0])
    assert canonical_bytes(nf) == canonical_bytes(certified[0])
    assert n["processed"] == 0


def test_mutated_copy_of_a_seeded_union_is_swept_afresh():
    # the union carries its larger operand's certificate as a seed; a copy
    # drops the seed, so edits to seed vertices cannot reach a stale sweep
    rng = random.Random(77)
    edited = 0
    for i in range(300):
        a, b = rng.randrange(-(2**64), 2**64), rng.randrange(-(2**16), 2**16)
        x = (normalize if i % 2 else reduce)(ar.add(from_integer(a), from_integer(3)))
        u = ar.add(x, from_integer(b)) if i % 3 else ar.mul_pow2(from_integer(b), x)
        if a + 3 < 0 and not i % 3:
            continue
        assert u.seed is not None
        assert set(u.seed.order[1:]) <= set(u.vertices())
        assert "seed" not in circ.to_json_dict(u)
        m = u.copy()
        assert m.seed is None
        seeded = [v for v in u.seed.order[1:] if v in m]
        rank = {v: j for j, v in enumerate(seeded)}
        options = [(v, t) for v in seeded if not m.in_vertices(v)
                   for t in seeded[: rank[v]] if t not in m.out_edges(v)]
        if options and rng.random() < 0.7:
            v, t = rng.choice(options)
            m.add_edge(v, t, rng.choice((1, -1)))
            edited += 1
        else:
            v = rng.choice(seeded)
            m.set_mark(v, -m.marks.get(v, -1))
        want = eval_bignum(m, bit_budget=1 << 20)
        if want is circ.BUDGET_EXCEEDED:
            continue
        r = reduce(m)
        if want is IMPROPER:
            assert r is IMPROPER
            continue
        verify_certificate(r)
        assert eval_bignum(r, bit_budget=1 << 20) == want
    assert edited > 100


def tower_diff(n, a, b):
    t = gen.tower_circuit(n)
    return ar.subtract(ar.add(t, from_integer(a)), ar.add(t, from_integer(b)))


def certified_samples(seed):
    """Reduced and normal circuits of random sums, twin DAGs and towers."""
    rng = random.Random(seed)
    raw = [random_sum(rng, rng.randint(2, 8))[0] for _ in range(6)]
    for _ in range(6):
        c = positive_dag(rng, rng.randint(5, 50))
        raw.append(ar.subtract(ar.add(c, from_integer(1)), relabel(c)))
        raw.append(ar.add(c, relabel(c)))
    raw += [tower_diff(rng.randint(1, 40), rng.randint(0, 99), 0) for _ in range(4)]
    raw += [gen.random_circuit(rng, rng.randint(5, 60)) for _ in range(40)]
    out = []
    for c in raw:
        for f in (reduce, normalize):
            r = f(c)
            if r is not IMPROPER and not circ.is_trivial(r):
                out.append(r)
    return out


def test_distant_leading_keys_settle_a_compare():
    # the leading-digit rule the sweep's search relies on: certified sums
    # whose leading keys are neither equal nor a doubling pair compare as
    # +-2 in one iteration, signed as the leading keys' ranks
    settled = 0
    for c in certified_samples(11):
        cert = c.certificate
        st = reduction._State(c, cert.order, cert.doubles)
        sums = [(v, st.sum_of(v)) for v in cert.order[1:]]
        for u, su in sums:
            for w, sw in sums:
                if not su or not sw:
                    continue
                ka, kb = su.digits[0][0], sw.digits[0][0]
                ra, rb = st.rank[ka], st.rank[kb]
                if ra == rb or st.is_double(ka, kb) or st.is_double(kb, ka):
                    continue
                assert reduction.compare_counted(su, sw, st) == (2 if ra > rb else -2, 1)
                settled += 1
    assert settled > 5000


def test_sign_and_normalize_count_what_they_counted_before():
    # sign and reduce: ReduceStats totals recorded before the search settled
    # probes from leading digits and before sign stopped trimming, unchanged
    # work.  normalize runs no sweep, so its pool's compares alone count:
    # one op per lexicographic probe plus the two neighbour checks
    def stats_of(cases):
        totals = ReduceStats(), ReduceStats(), ReduceStats()
        for c in cases:
            for f, t in zip((sign, reduce, normalize), totals):
                f(c, t)
        return tuple((t.ops, t.doublings, t.separations) for t in totals)

    assert stats_of([tower_diff(100, 1, 0)]) == ((589, 102, 102),) * 2 + ((588, 0, 0),)
    assert stats_of([tower_diff(400, 1, 0)]) == ((3109, 402, 402),) * 2 + ((3108, 0, 0),)
    rng = random.Random(77)
    dags = [positive_dag(rng, rng.randint(5, 60)) for _ in range(20)]
    twins = [ar.subtract(ar.add(c, from_integer(k)), relabel(c)) for c in dags for k in (0, 1)]
    assert stats_of(twins) == ((2683, 818, 818),) * 2 + ((1946, 0, 0),)
    rng = random.Random(78)
    assert stats_of([gen.random_circuit(rng, rng.randint(1, 80)) for _ in range(200)]) == (
        (2360, 411, 411),) * 2 + ((2133, 0, 0),)
    rng = random.Random(79)
    towers = [tower_diff(rng.randint(1, 60), rng.randint(0, 99), rng.randint(0, 99))
              for _ in range(20)]
    assert stats_of(towers) == ((3108, 727, 727),) * 2 + ((2931, 0, 0),)


def test_tower_sign_needs_a_few_compares(monkeypatch):
    # every vertex of tower(n) + 1 - tower(n) meets its twin by hash or
    # settles its probes from the leading digits; before, 486, 2706 and
    # 13974 digit comparisons
    n = count_sweep_work(monkeypatch)
    for k in (100, 400, 1600):
        d = tower_diff(k, 1, 0)
        n["compares"] = 0
        assert sign(d) == 1
        assert n["compares"] <= 5


def test_sign_matches_reduce_and_never_trims(monkeypatch):
    rng = random.Random(80)
    cases = [gen.random_circuit(rng, rng.randint(1, 60)) for _ in range(300)]
    cases += [tower_diff(rng.randint(1, 30), a, b) for a, b in ((0, 0), (1, 0), (0, 5))]
    cases += [ar.subtract(c, relabel(c)) for c in (positive_dag(rng, 20) for _ in range(10))]
    kinds = set()
    for c in cases:
        r = reduce(c)
        want = IMPROPER if r is IMPROPER else sign(r)
        with monkeypatch.context() as m:
            def trim(self):
                raise AssertionError("sign trimmed its copy")

            m.setattr(reduction._State, "trim", trim)
            got = sign(c)
        assert got is want if want is IMPROPER else got == want
        kinds.add("improper" if want is IMPROPER else want)
    assert kinds == {"improper", -1, 0, 1}


def reference_append(dst, src):
    """_append one checked add_vertex and add_edge at a time."""
    m = {}
    for v in sorted(src._succ):
        m[v] = dst.add_vertex(var=src._vars.get(v))
    for v, out in src._succ.items():
        for t, s in out.items():
            dst.add_edge(m[v], m[t], s)
    return m


def test_bulk_append_matches_a_checked_copy(monkeypatch):
    rng = random.Random(81)

    def operand(with_var):
        k = rng.random()
        if with_var and k < 0.2:
            return ar.add(circ.var_circuit("x"), from_integer(rng.randrange(-99, 99)))
        if k < 0.5:
            return from_integer(rng.randrange(-(2**40), 2**40))
        r = reduce(gen.random_circuit(rng, rng.randint(1, 40)))
        return r if r is not IMPROPER else gen.random_circuit(rng, rng.randint(1, 40)).freeze()

    def tables(c):
        return (circ.to_json_dict(c), c._next_id, list(c._vars.items()),
                [(v, list(c._pred[v]), list(c._succ[v].items())) for v in c._succ])

    ops = (ar.add, ar.subtract, ar.mul_pow2, ar.multiply, lambda a, b: ar.exp2(a))
    for _ in range(150):
        a, b = operand(True), operand(False)
        for op in ops:
            got = tables(op(a, b))
            with monkeypatch.context() as m:
                m.setattr(ar, "_append", reference_append)
                want = tables(op(a, b))
            assert got == want


def test_pool_successor_builds_a_missing_doubling_vertex():
    pool = reduction.Pool()
    v = pool.power(5)
    assert pool.partner(v) is None
    s = pool.successor(v)
    assert pool.partner(v) == s
    assert pool.successor(v) == s
    assert eval_bignum(pool.circuit(((s, 1),))) == 64
    # 2^(2^5 + 1) is a new value two levels up, carried into being the same way
    top = pool.vertex(((v, 1),))
    assert eval_bignum(pool.circuit(((pool.successor(top), 1),))) == 2 ** 33


def test_pool_sums_carry_into_compact_markings():
    pool = reduction.Pool()
    rng = random.Random(5)
    for _ in range(200):
        a, b = (rng.randrange(-(1 << 40), 1 << 40) for _ in range(2))
        m = pool.add(pool.integer(a), pool.integer(b))
        assert m == pool.integer(a + b)
        assert m == pool.add(pool.integer(b), pool.integer(a))
    for m in (pool.integer(3), pool.integer(-12345)):
        c = pool.circuit(m)
        verify_certificate(c, require_normal=True)
    verify_pool(pool)


def verify_pool(pool):
    """The pool's order and doubling bits certify all of it, its labels
    increase along its order, its index holds every vertex, and every digit
    sum is compact."""
    labels = [pool.rank[v] for v in pool.order]
    assert labels == sorted(set(labels)) and len(pool.rank) == len(pool.order)
    # the pool's graph holds the order's vertices and nothing else; it keeps
    # no predecessor sets, so circuit builds them for a marking of every
    # vertex, which reaches all of the pool
    assert sorted(pool.succ) == sorted(pool.order)
    c = pool.circuit(tuple((v, 1) for v in pool.order[:0:-1]))
    bits = tuple(pool.twice.get(a) == b for a, b in zip(pool.order, pool.order[1:]))
    assert c.certificate == Certificate(tuple(pool.order), bits)
    verify_certificate(c)
    assert sorted(pool.vertex_of.values()) == sorted(pool.order[1:])
    for v in pool.order[1:]:
        ds = pool.sums[v].digits
        assert not any(pool.is_double(a, b) for (a, _), (b, _) in zip(ds, ds[1:]))


def test_pool_keep_drops_only_what_no_held_marking_reaches():
    pool = reduction.Pool()
    rng = random.Random(7)
    values = [rng.randrange(-(1 << 40), 1 << 40) for _ in range(40)]
    held = [pool.integer(n) for n in values[::3]]
    for n in values:
        pool.integer(n)
    before = len(pool.succ)
    pool.keep(held)
    assert len(pool.succ) == len(pool.reach(held) | {pool.zero}) < before
    verify_pool(pool)
    for n, m in zip(values[::3], held):
        assert pool.integer(n) == m
        assert eval_bignum(pool.circuit(m)) == n
    # what was dropped comes back as new vertices, and the pool still holds
    for n in values:
        assert eval_bignum(pool.circuit(pool.add(pool.integer(n), pool.integer(1)))) == n + 1
    verify_pool(pool)


def test_pool_owns_its_graph_and_none_of_the_sweep():
    # the pool shares the certificate with the sweep, not the sweep: it has
    # no circuit to rewire and none of the sweep's surgery, and its graph,
    # a plain out-edge table, holds exactly its order, also after keep
    pool = reduction.Pool()
    assert not isinstance(pool, reduction._State)
    for name in ("c", "trim", "process_vertex", "double_value", "cleanup_vertex",
                 "increment_exponent", "insert_above"):
        assert not hasattr(pool, name)
    held = [pool.integer(n) for n in (5, -77, 1 << 40)]
    pool.integer(12345)
    pool.keep(held[:2])
    assert set(pool.succ) == set(pool.order)
    assert pool.next_id > max(pool.succ)
    assert [eval_bignum(pool.circuit(m)) for m in held[:2]] == [5, -77]


def test_pool_refuses_a_second_vertex_for_one_value():
    # 2^3 is already there with the compact exponent 4 - 1; the same value
    # under the exponent 2 + 1, which is not compact, misses the index and
    # is refused
    pool = reduction.Pool()
    pool.power(3)
    two, one = pool.power(1), pool.power(0)
    with pytest.raises(circ.CircuitInvariantError):
        pool.vertex(((two, 1), (one, 1)))


def test_pool_sums_order_lexicographically():
    # compact sums differ as their first differing digits do, so the pool's
    # search reads digits only; on every pair of pool sums and held values,
    # that sign is the sign of the five-way comparison
    pool = reduction.Pool()
    rng = random.Random(21)
    held = []
    for _ in range(30):
        a, b = (pool.integer(rng.randrange(-(1 << 64), 1 << 64)) for _ in range(2))
        held += [a, pool.add(a, b), pool.shift(b, pool.integer(rng.randrange(200)))]
    sums = [pool.sums[v].digits for v in pool.order[1:]] + held
    assert len(sums) > 300
    for a in sums:
        for b in sums:
            r, _ = reduction.compare_counted(SignedSum(a), SignedSum(b), pool)
            assert reduction._lex_sign(a, b, pool.rank) == (r > 0) - (r < 0)
    verify_pool(pool)


def test_a_label_gap_that_runs_out_relabels_the_pool(monkeypatch):
    # each power goes just below the one before, into a gap that halves
    # each time, until a relabel spaces the whole order out again
    relabels = []
    real = reduction._Order._relabel

    def relabel(self):
        relabels.append(len(self.order))
        real(self)

    monkeypatch.setattr(reduction._Order, "_relabel", relabel)
    pool = reduction.Pool()
    for e in range(400, 0, -1):
        pool.power(e)
    assert relabels
    verify_pool(pool)
    for e in (1, 2, 77, 399, 400):
        assert eval_bignum(pool.circuit(((pool.power(e), 1),))) == 2**e
    assert pool.integer(12345) == pool.add(pool.integer(12000), pool.integer(345))
    verify_pool(pool)


def test_literals_and_their_sum_need_no_search_and_no_relabel(monkeypatch):
    # the powers of a literal go in ascending order, each at a slot its
    # registered neighbours name, and a carry out of 2^e is 2^(e+1), whose
    # slot is known too: no binary search, and no gap runs out
    calls = {"locate": 0, "relabel": 0}
    locate, relabel = reduction.Pool.locate, reduction._Order._relabel

    def counting_locate(self, *args, **kw):
        calls["locate"] += 1
        return locate(self, *args, **kw)

    def counting_relabel(self):
        calls["relabel"] += 1
        relabel(self)

    monkeypatch.setattr(reduction.Pool, "locate", counting_locate)
    monkeypatch.setattr(reduction._Order, "_relabel", counting_relabel)
    rng = random.Random(5)
    a, b = (rng.getrandbits(512) | 1 << 511 for _ in range(2))
    pool = reduction.Pool()
    m = pool.add(pool.integer(a), pool.integer(b))
    assert calls == {"locate": 0, "relabel": 0}
    assert m == pool.integer(a + b)
    assert eval_bignum(pool.circuit(m)) == a + b
    verify_pool(pool)


def test_power_adopts_a_vertex_another_path_made():
    # 1 <<^ 300 places 2^300 as a shift, not as a power; power(300) finds
    # it by its digits, adds no second vertex, and carries out of it
    pool = reduction.Pool()
    (v, s), = pool.shift(pool.integer(1), pool.integer(300))
    n = len(pool.succ)
    assert s == 1 and pool.power(300) == v
    assert len(pool.succ) == n
    assert pool.partner(v) is None
    assert eval_bignum(pool.circuit(((pool.successor(v), 1),))) == 2**301
    assert pool.power(301) == pool.partner(v)
    verify_pool(pool)


def test_a_kept_power_carries_after_keep():
    # 2^8 is dropped, so the kept 2^7 has no doubling partner; its
    # successor is a new 2^8, and 2^9, which goes too, comes back as well
    pool = reduction.Pool()
    held = pool.integer(1 << 7)
    pool.integer(1 << 8)
    pool.integer(1 << 9)
    pool.keep([held])
    verify_pool(pool)
    (v, _), = held
    assert pool.partner(v) is None
    up = pool.successor(v)
    assert eval_bignum(pool.circuit(((up, 1),))) == 1 << 8
    assert pool.power(8) == up and pool.partner(v) == up
    assert eval_bignum(pool.circuit(((pool.successor(up), 1),))) == 1 << 9
    assert pool.add(held, held) == pool.integer(1 << 8)
    verify_pool(pool)


def test_pool_vertex_refuses_what_it_cannot_certify():
    # random digit tuples over the pool: a tuple that is not a compact
    # exponent is refused and leaves nothing behind, and every other one
    # is a new value or the vertex already holding it
    pool = reduction.Pool()
    rng = random.Random(23)
    for _ in range(30):
        pool.integer(rng.randrange(-(1 << 32), 1 << 32))
    refused = added = 0
    for _ in range(3000):
        keys = rng.sample(pool.order, rng.randint(0, min(4, len(pool.order))))
        if rng.random() < 0.8:
            keys.sort(key=pool.rank.__getitem__, reverse=True)
        ds = tuple((k, rng.choice((1, 1, 1, -1))) for k in keys)
        if rng.random() < 0.05:
            ds = ds[:1] + ((pool.next_id, 1),) + ds[1:]
        if rng.random() < 0.05:
            ds += ((pool.order[1], 2),)
        before = len(pool.succ)
        try:
            v = pool.vertex(ds)
        except circ.CircuitInvariantError:
            assert len(pool.succ) == before
            refused += 1
        else:
            assert pool.sums[v].digits == ds
            added += len(pool.succ) - before
    assert refused > 1000 and added > 200
    verify_pool(pool)


def test_pool_certifies_nothing_its_neighbours_refuse(monkeypatch):
    # a search that goes wrong ends in the neighbour check, not in the pool
    pool = reduction.Pool()
    ds = pool.integer(100)
    pool.integer(300)
    monkeypatch.setattr(reduction, "_lex_sign", lambda a, b, rank: -1)
    before = len(pool.succ)
    with pytest.raises(circ.CircuitInvariantError, match="neighbours"):
        pool.vertex(ds)
    assert len(pool.succ) == before
    verify_pool(pool)


def take_cases(rng):
    """Random circuits, sums of 128-bit integers and tower differences."""
    cases = [gen.random_circuit(rng, rng.randint(1, 40)) for _ in range(120)]
    for _ in range(40):
        c = from_integer(rng.getrandbits(128))
        for _ in range(rng.randint(1, 7)):
            c = ar.add(c, from_integer(rng.choice((1, -1)) * rng.getrandbits(128)))
        cases.append(c)
    cases += [tower_diff(rng.randint(1, 40), rng.randint(0, 99), rng.randint(0, 99))
              for _ in range(25)]
    return cases


def test_pool_takes_any_reduced_circuit_in_normal_form():
    # take makes a circuit's sums and marks compact on the way in, one way
    # for every kind, so the general, the reduced and the normal circuit of
    # one value give one marking
    pool = reduction.Pool()
    taken = 0
    for c in take_cases(random.Random(12)):
        r = reduce(c)
        if r is IMPROPER:
            continue
        m = pool.take(r)
        assert m == pool.take(normalize(c)) == pool.take(c)
        nf = pool.circuit(m)
        verify_certificate(nf, require_normal=True)
        assert canonical_bytes(nf) == canonical_bytes(normalize(c))
        taken += 1
    assert taken > 80
    verify_pool(pool)


def test_normalize_gives_a_normal_input_back_byte_for_byte():
    rng = random.Random(13)
    cases = [gen.random_circuit(rng, rng.randint(1, 12)) for _ in range(300)]
    cases += [random_sum(rng, rng.randint(2, 12))[0] for _ in range(100)]
    normal = 0
    for c in cases:
        nf = normalize(c)
        if nf is IMPROPER:
            continue
        assert normalize(nf) is nf
        text = circ.to_json(nf)
        assert circ.to_json(normalize(circ.from_json(text))) == text
        normal += 1
    assert normal >= 200


def take_of_reduce(c):
    """The normal form as reduce, then take into a fresh pool, made it."""
    r = reduce(c)
    if r is IMPROPER:
        return IMPROPER
    pool = reduction.Pool()
    return pool.circuit(pool.take(r))


def signed_sum(rng, k):
    """A circuit of k signed 256-bit summands."""
    c = from_integer(rng.getrandbits(256))
    for _ in range(k - 1):
        x = from_integer(rng.getrandbits(256))
        c = ar.add(c, x) if rng.random() < 0.5 else ar.subtract(c, x)
    return c


def test_normalize_matches_take_of_reduce():
    # normalize takes a general circuit in without a sweep; a product's
    # vertices have children of equal value from both factors, which the
    # pool carries when it makes their digits compact
    rng = random.Random(15)
    cases = [gen.random_circuit(rng, rng.randint(1, 60)) for _ in range(300)]
    for _ in range(20):
        x = signed_sum(rng, rng.randint(1, 6))
        cases += [x, ar.multiply(x, from_integer(rng.randrange(-99, 99))),
                  ar.mul_pow2(x, ar.add(from_integer(3), from_integer(rng.randrange(9))))]
    cases += [tower_diff(rng.randint(1, 40), rng.randint(0, 99), rng.randint(0, 99))
              for _ in range(30)]
    cases += [gen.blowup_product(n) for n in range(4, 11)]
    verdicts = set()
    for c in cases:
        nf, want = normalize(c), take_of_reduce(c)
        if want is IMPROPER:
            assert nf is IMPROPER
        else:
            verify_certificate(nf, require_normal=True)
            assert canonical_bytes(nf) == canonical_bytes(want)
        verdicts.add(want is IMPROPER)
    assert verdicts == {True, False}


def test_normalize_never_sweeps_a_general_circuit(monkeypatch):
    def sweep(*args):
        raise AssertionError("normalize swept")

    monkeypatch.setattr(reduction._State, "process_vertex", sweep)
    monkeypatch.setattr(reduction, "_sweep", sweep)
    monkeypatch.setattr(reduction, "reduce", sweep)
    rng = random.Random(16)
    for c in [random_sum(rng, 9)[0], gen.blowup_product(8), tower_diff(30, 5, 2)]:
        assert c.certificate is None
        verify_certificate(normalize(c), require_normal=True)


def test_normalize_looks_only_at_what_the_marks_reach():
    # vertex 2 is worth 2^(-1): improper only when a mark reaches it; and
    # a cycle no mark reaches is trimmed, as reduce trims it
    edges = [(1, 0, 1), (2, 1, -1), (3, 2, 1)]
    c, _ = build(edges, {1: 1}, 4)
    assert canonical_bytes(normalize(c)) == canonical_bytes(from_integer(1))
    c, _ = build(edges, {1: 1, 3: 1}, 4)
    assert normalize(c) is IMPROPER
    c, _ = build(edges + [(4, 5, 1), (5, 4, 1)], {1: 1}, 6)
    assert canonical_bytes(normalize(c)) == canonical_bytes(from_integer(1))


def test_normalize_refuses_a_variable_circuit():
    with pytest.raises(circ.VariableCircuitError):
        normalize(ar.add(circ.var_circuit("x"), from_integer(3)))
