"""Acceptance gate: eleven end-to-end guarantees, each with a wall-clock budget.

Every test prints one PASS line with its measured numbers once its
assertions hold; a failing assertion is the FAIL line.  The budgets are
deliberately generous so only real regressions trip them.
"""

import itertools
import random
import time

from pcirc import circuit as circ
from pcirc import generators as gen
from pcirc import termlang as tl
from pcirc import terms as tm
from pcirc.arithmetic import add, div_pow2, exp2, mul_pow2, subtract
from pcirc.circuit import (
    BUDGET_EXCEEDED,
    IMPROPER,
    canonical_bytes,
    eval_bignum,
    from_integer,
)
from pcirc.reduction import ReduceStats, normalize, reduce, sign
from pcirc.signed_binary import SignedSum, compare_counted, make_compact, sum_value
from test_reduction import positive_dag, relabel


def vertex_values(c):
    vals = {}
    for v in circ.geometric_order(c):
        if c.is_zero_leaf(v):
            vals[v] = 0
        else:
            e = sum(s * vals[t] for t, s in c.out_edges(v).items())
            assert e >= 0, "vertex value must be a natural number"
            vals[v] = 1 << e
    return vals


def test_01_constant_circuit_size_bound():
    t0 = time.perf_counter()
    for n in range(1, (1 << 16) + 1):
        c = from_integer(n)
        assert c.n_vertices() <= (n - 1).bit_length() + 2
        assert eval_bignum(c) == n
    dt = time.perf_counter() - t0
    assert dt < 10.0
    print(f"PASS [ 1] from_integer(n) has <= ceil(log2 n)+2 vertices and exact "
          f"value for all n in 1..65536 ({dt:.1f}s)")


def test_02_reduce_soundness_and_vertex_bound():
    t0 = time.perf_counter()
    rng = random.Random(2)
    done = 0
    while done < 10_000:
        c = gen.random_circuit(rng, rng.randint(1, 12))
        val = eval_bignum(c)
        if val is IMPROPER or val is BUDGET_EXCEEDED:
            continue
        r = reduce(c)
        assert r is not IMPROPER
        assert eval_bignum(r) == val
        assert r.n_vertices() <= c.n_vertices() + 1
        vals = vertex_values(r)
        assert len(set(vals.values())) == r.n_vertices(), "vertex values not distinct"
        for v in r.vertices():
            out = r.out_edges(v)
            digits = sorted(((vals[t], s) for t, s in out.items() if vals[t]), reverse=True)
            if len(digits) < len(out):
                assert len(out) == 1, "zero edge must be the only out-edge"
            for (va, sa), (vb, sb) in zip(digits, digits[1:]):
                assert va != vb, "redundant pair survived reduction"
                assert not (va == 2 * vb and sa == -sb), "superfluous pair survived"
        done += 1
    dt = time.perf_counter() - t0
    assert dt < 60.0
    print(f"PASS [ 2] reduce on 10^4 random circuits: value preserved, distinct "
          f"values, clean digits, |V'| <= |V|+1 ({dt:.1f}s)")


def test_03_normal_form_uniqueness():
    t0 = time.perf_counter()
    rng = random.Random(3)
    ns = [0, 1, -1, 2**32, 2**32 - 1, -(3**21)]
    while len(ns) < 500:
        ns.append(rng.randrange(-(2**48), 2**48))
    for n in ns:
        k = rng.randrange(-(2**20), 2**20)
        j = rng.randrange(0, 32)
        ref = canonical_bytes(from_integer(n))
        paths = (
            normalize(add(from_integer(n - k), from_integer(k))),
            normalize(subtract(from_integer(n + k), from_integer(k))),
            normalize(div_pow2(mul_pow2(from_integer(n), from_integer(j)), from_integer(j))),
            normalize(add(subtract(from_integer(n), exp2(from_integer(j))),
                          exp2(from_integer(j)))),
        )
        for p in paths:
            assert canonical_bytes(p) == ref
    dt = time.perf_counter() - t0
    assert dt < 60.0
    print(f"PASS [ 3] 500 integers x 5 construction paths -> byte-identical "
          f"canonical forms ({dt:.1f}s)")


def test_04_tower_comparison_without_decompression():
    t0 = time.perf_counter()
    lhs = add(gen.tower_circuit(50), from_integer(1))
    diff = subtract(lhs, gen.tower_circuit(50))
    assert diff.n_vertices() < 250
    assert sign(diff) == 1
    dt = time.perf_counter() - t0
    assert dt < 1.0
    print(f"PASS [ 4] sign(tower(50)+1 - tower(50)) = +1 with "
          f"{diff.n_vertices()} vertices ({dt * 1000:.0f}ms)")


def test_05_product_blowup_lower_bound():
    t0 = time.perf_counter()
    marks = {}
    for n in range(8, 13):
        nf = normalize(gen.blowup_product(n))
        marks[n] = len(nf.marks)
        assert marks[n] >= 1 << (n - 3)
    dt = time.perf_counter() - t0
    assert dt < 120.0
    print(f"PASS [ 5] normalize(P4*...*Pn) carries >= 2^(n-3) marks for "
          f"n=8..12 (n=12: {marks[12]} >= 512, {dt:.1f}s)")


def all_clean_sums(max_exp, max_len):
    out = []
    for k in range(max_len + 1):
        for exps in itertools.combinations(range(max_exp - 1, -1, -1), k):
            for signs in itertools.product((1, -1), repeat=k):
                ds = list(zip(exps, signs))
                if any(
                    ds[i][0] == ds[i + 1][0] + 1 and ds[i][1] == -ds[i + 1][1]
                    for i in range(k - 1)
                ):
                    continue
                out.append(SignedSum(ds))
    return out


def test_06_five_way_compare_exhaustive():
    t0 = time.perf_counter()
    sums = all_clean_sums(max_exp=10, max_len=4)
    vals = [sum_value(s) for s in sums]
    lens = [len(s.digits) for s in sums]
    pairs = 0
    for i, a in enumerate(sums):
        va = vals[i]
        la = lens[i]
        for j, b in enumerate(sums):
            d = va - vals[j]
            want = -2 if d < -2 else 2 if d > 2 else d
            got, iters = compare_counted(a, b)
            assert got == want
            assert iters <= 4 * (la + lens[j]) + 8
            pairs += 1
    dt = time.perf_counter() - t0
    assert dt < 30.0
    print(f"PASS [ 6] five-way compare matches clamped integer difference on "
          f"{pairs} pairs, iterations within 4(|a|+|b|)+8 ({dt:.1f}s)")


def min_weight_table(max_exp):
    """Least signed-digit count per value; one extra layer for the carry."""
    best = {0: 0}
    for q in range(max_exp + 1):
        nxt = {}
        for v, w in best.items():
            for coeff in (-1, 0, 1):
                nv = v + coeff * (1 << q)
                nw = w + (coeff != 0)
                if nw < nxt.get(nv, 99):
                    nxt[nv] = nw
        best = nxt
    return best


def test_07_compact_form_minimality():
    t0 = time.perf_counter()
    table = min_weight_table(13)
    count = 0
    exps = range(11, -1, -1)
    for signs in itertools.product((-1, 0, 1), repeat=12):
        ds = [(q, s) for q, s in zip(exps, signs) if s]
        s = SignedSum(ds)
        assert len(make_compact(s).digits) == table[sum_value(s)]
        count += 1
    dt = time.perf_counter() - t0
    assert dt < 60.0
    print(f"PASS [ 7] make_compact reaches the brute-force minimum weight on "
          f"all {count} reduced sums with exponents < 12 ({dt:.1f}s)")


BITS = 1 << 14


class TooBig(Exception):
    pass


def _oval(t):
    """Strict partial bignum value of a constant term; None if undefined."""
    if isinstance(t, tm.Const):
        return t.value
    a = _oval(t.lhs)
    b = _oval(t.rhs)
    if a is None or b is None:
        return None
    if isinstance(t, tm.Add):
        r = a + b
    elif isinstance(t, tm.Sub):
        r = a - b
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


def _oform(f):
    if isinstance(f, tm.Atom):
        a = _oval(f.lhs)
        b = _oval(f.rhs)
        if a is None or b is None:
            return None
        return {"<=": a <= b, "=": a == b, "<": a < b}[f.rel]
    if isinstance(f, tm.And):
        a = _oform(f.lhs)
        if a is False:
            return False
        b = _oform(f.rhs)
        return False if b is False else (None if a is None else b)
    if isinstance(f, tm.Or):
        a = _oform(f.lhs)
        if a is True:
            return True
        b = _oform(f.rhs)
        return True if b is True else (None if a is None else b)
    r = _oform(f.sub)
    return None if r is None else (not r)


def _const_term(rng, depth):
    if depth == 0 or rng.random() < 0.3:
        return tm.Const(rng.randrange(-4, 9))
    op = rng.choice([tm.Add, tm.Sub, tm.MulPow2, tm.DivPow2])
    return op(_const_term(rng, depth - 1), _const_term(rng, depth - 1))


def _const_formula(rng, depth):
    if depth == 0 or rng.random() < 0.4:
        rel = rng.choice(["<=", "=", "<"])
        return tm.Atom(_const_term(rng, rng.randrange(3)), rel,
                       _const_term(rng, rng.randrange(3)))
    k = rng.random()
    if k < 0.4:
        return tm.And(_const_formula(rng, depth - 1), _const_formula(rng, depth - 1))
    if k < 0.8:
        return tm.Or(_const_formula(rng, depth - 1), _const_formula(rng, depth - 1))
    return tm.Not(_const_formula(rng, depth - 1))


def test_08_formula_evaluator_agreement():
    t0 = time.perf_counter()
    rng = random.Random(8)
    checked = 0
    while checked < 1000:
        f = _const_formula(rng, rng.randrange(1, 4))
        try:
            expect = _oform(f)
        except TooBig:
            continue
        got = tl.eval_formula(f)
        if expect is None:
            assert isinstance(got, tl.Undefined), tm.pretty_formula(f)
        else:
            assert got is expect, tm.pretty_formula(f)
        checked += 1
    dt = time.perf_counter() - t0
    assert dt < 60.0
    print(f"PASS [ 8] three-valued evaluator agrees with bignum truth on "
          f"{checked} random constant formulas ({dt:.1f}s)")


def _shift_term(rng, depth, vars_):
    if depth == 0 or rng.random() < 0.3:
        if vars_ and rng.random() < 0.4:
            return tm.Var(rng.choice(vars_))
        return tm.Const(rng.choice([0, 1]))
    op = rng.choice([tm.Add, tm.Sub, tm.MulPow2, tm.DivPow2])
    return op(_shift_term(rng, depth - 1, vars_), _shift_term(rng, depth - 1, vars_))


def test_09_structural_size_assertions():
    t0 = time.perf_counter()
    rng = random.Random(9)
    cases = 0
    for _ in range(35_000):
        a = gen.random_circuit(rng, rng.randint(1, 6))
        b = gen.random_circuit(rng, rng.randint(1, 6))
        s = add(a, b)
        assert s.n_vertices() == a.n_vertices() + b.n_vertices()
        assert s.n_edges() == a.n_edges() + b.n_edges()
        assert len(s.marks) == len(a.marks) + len(b.marks)
        d = subtract(a, b)
        assert d.n_vertices() == a.n_vertices() + b.n_vertices()
        assert len(d.marks) == len(a.marks) + len(b.marks)
        cases += 2
    for _ in range(15_000):
        c = gen.random_circuit(rng, rng.randint(1, 8))
        assert exp2(c).n_vertices() == c.n_vertices() + 1
        cases += 1
    for _ in range(20_000):
        t = _shift_term(rng, rng.randrange(5), ["x", "y"])
        assert len(tl.tau(t).marks) <= tm.term_size(t) + 1
        cases += 1
    dt = time.perf_counter() - t0
    assert cases >= 100_000
    assert dt < 120.0
    print(f"PASS [ 9] exact size laws for add/subtract/exp2 and the embedding "
          f"mark bound over {cases} fuzz cases ({dt:.1f}s)")


def test_10_cubic_scaling_smoke():
    t0 = time.perf_counter()
    rng = random.Random(0)
    trials = 30
    means = []
    for n in (10, 20, 40, 80):
        stats = ReduceStats()
        for _ in range(trials):
            reduce(gen.random_circuit(rng, n), stats)
        means.append(stats.ops / trials)
    factors = [hi / max(lo, 1.0) for lo, hi in zip(means, means[1:])]
    assert all(f <= 9.0 for f in factors), factors
    dt = time.perf_counter() - t0
    assert dt < 120.0
    shown = "/".join(f"{f:.2f}" for f in factors)
    print(f"PASS [10] reduce op-count doubling factors {shown} (all <= 9) "
          f"at 10/20/40/80 vertices ({dt:.1f}s)")


def test_11_proper_scaling():
    # proper inputs that collide at almost every vertex, so each reduction
    # sweeps the whole circuit instead of aborting as improper
    t0 = time.perf_counter()
    rng = random.Random(11)
    sizes = (100, 200, 400, 800)
    factors = {}
    # random dags vary widely in how often they separate, so the twins
    # family sums many of them per size
    for family, trials in (("tower", 3), ("twins", 24)):
        ops = []
        for n in sizes:
            stats = ReduceStats()
            t = gen.tower_circuit(n) if family == "tower" else None
            for _ in range(trials):
                if family == "tower":
                    a, b = rng.randint(0, 1000), rng.randint(0, 1000)
                    c, want = subtract(add(t, from_integer(a)), add(t, from_integer(b))), a - b
                else:
                    d = positive_dag(rng, n)
                    c, want = subtract(add(d, from_integer(1)), relabel(d)), 1
                assert eval_bignum(reduce(c, stats)) == want
            ops.append(stats.ops)
        factors[family] = [hi / lo for lo, hi in zip(ops, ops[1:])]
        assert all(f <= 3.0 for f in factors[family]), (family, factors[family])
    dt = time.perf_counter() - t0
    assert dt < 120.0
    shown = "; ".join(f"{k} " + "/".join(f"{f:.2f}" for f in v) for k, v in factors.items())
    print(f"PASS [11] proper reduce op-count doubling factors {shown} (all <= 3) "
          f"at 100/200/400/800 vertices ({dt:.1f}s)")
