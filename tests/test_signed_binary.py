"""Signed binary sums: reduction, superfluous-pair removal, compact forms."""

import itertools
import random

import pytest
from hypothesis import given, settings, strategies as st

from pcirc.signed_binary import (
    INT_KEYS,
    SignedSum,
    compact_of_integer,
    compare,
    compare_counted,
    divisible_by_pow2,
    make_compact,
    reduce_sum,
    remove_superfluous,
    sum_sign,
    sum_value,
)


def digits(s):
    return list(s.digits)


# strategies: raw digit soups and already-reduced sums

raw_pairs = st.lists(
    st.tuples(st.integers(0, 24), st.sampled_from([-1, 1])), max_size=12
)


@st.composite
def reduced_sums(draw, max_exp=24, max_len=8):
    exps = draw(
        st.lists(st.integers(0, max_exp), unique=True, max_size=max_len)
    )
    exps.sort(reverse=True)
    signs = draw(
        st.lists(st.sampled_from([-1, 1]), min_size=len(exps), max_size=len(exps))
    )
    return SignedSum(zip(exps, signs))


def test_reduce_sum_folds_equal_exponents():
    s = reduce_sum([(2, 1), (1, 1), (1, 1), (0, 1)])
    assert digits(s) == [(3, 1), (0, 1)]


def test_reduce_sum_cancels_and_carries():
    assert digits(reduce_sum([(0, 1), (0, -1)])) == []
    assert digits(reduce_sum([(0, 1), (0, 1), (0, 1)])) == [(1, 1), (0, 1)]
    assert digits(reduce_sum([(5, -1), (5, -1)])) == [(6, -1)]


def test_remove_superfluous_folds_to_smaller_exponent():
    s = remove_superfluous(SignedSum([(6, 1), (5, -1), (4, 1)]))
    assert digits(s) == [(5, 1), (4, 1)]


def test_remove_superfluous_cascades():
    # +16 -8 -> +8; +8 -4 -> +4; ...
    s = remove_superfluous(SignedSum([(4, 1), (3, -1), (2, -1), (1, -1)]))
    assert digits(s) == [(1, 1)]
    assert sum_value(s) == 2


def test_make_compact_examples():
    assert digits(make_compact(SignedSum([(2, 1), (1, 1), (0, 1)]))) == [(3, 1), (0, -1)]
    assert digits(make_compact(SignedSum([(1, 1), (0, 1)]))) == [(2, 1), (0, -1)]
    assert digits(make_compact(SignedSum([(3, 1), (0, -1)]))) == [(3, 1), (0, -1)]


def test_compact_of_integer_examples():
    assert digits(compact_of_integer(0)) == []
    assert digits(compact_of_integer(1)) == [(0, 1)]
    assert digits(compact_of_integer(7)) == [(3, 1), (0, -1)]
    assert digits(compact_of_integer(-7)) == [(3, -1), (0, 1)]
    assert digits(compact_of_integer(12)) == [(4, 1), (2, -1)]


def test_compare_is_five_way():
    one = SignedSum([(0, 1)])
    two = SignedSum([(1, 1)])
    five = SignedSum([(2, 1), (0, 1)])
    assert compare(one, one) == 0
    assert compare(two, one) == 1
    assert compare(one, two) == -1
    assert compare(five, one) == 2
    assert compare(one, five) == -2


def test_compare_rejects_superfluous_input():
    bad = SignedSum([(5, 1), (4, -1)])
    with pytest.raises(ValueError):
        compare(bad, SignedSum([(0, 1)]))


@given(raw_pairs)
def test_reduce_sum_preserves_value_and_sorts(pairs):
    value = sum(c * (1 << q) for q, c in pairs)
    s = reduce_sum(pairs)
    assert sum_value(s) == value
    ks = [q for q, _ in digits(s)]
    assert ks == sorted(ks, reverse=True)


@given(reduced_sums())
def test_remove_superfluous_preserves_value_and_cleans(s):
    r = remove_superfluous(s)
    assert sum_value(r) == sum_value(s)
    ds = digits(r)
    for (q0, c0), (q1, c1) in zip(ds, ds[1:]):
        assert not (q0 == q1 + 1 and c0 == -c1)


@given(reduced_sums())
def test_make_compact_value_and_gap(s):
    c = make_compact(s)
    assert sum_value(c) == sum_value(s)
    ds = digits(c)
    for (q0, _), (q1, _) in zip(ds, ds[1:]):
        assert q0 - q1 >= 2


def _compact_by_string_scan(n):
    """The digits of compact_of_integer as one scan of the binary strings of
    its digit mask and its plus mask: the reference for both branches."""
    nz = (3 * n ^ n) >> 1
    bits = format(nz, "b")
    plus = format((3 * n >> 1) & nz, "b").zfill(len(bits))
    top = len(bits) - 1
    return [(top - i, 1 if p == "1" else -1)
            for i, (b, p) in enumerate(zip(bits, plus)) if b == "1"]


def test_compact_of_integer_matches_the_string_scan():
    # the bit walk below a 2^1024 mask and the string scan above give one
    # digit list, on both sides of the cut
    rng = random.Random(13)
    ns = list(range(1 << 14))
    ns += [(1 << 64) - 1, 1 << 64, (1 << 64) + 1, (1 << 63) + (1 << 62)]
    ns += [(1 << k) + d for k in (1023, 1024, 1025) for d in (-1, 0, 1)]
    ns += [rng.getrandbits(rng.randrange(1, 3001)) for _ in range(300)]
    for n in ns:
        assert digits(compact_of_integer(n)) == _compact_by_string_scan(n), n


@given(st.integers(-(2**80), 2**80))
def test_compact_of_integer_round_trips(n):
    s = compact_of_integer(n)
    assert sum_value(s) == n
    ds = digits(s)
    for (q0, _), (q1, _) in zip(ds, ds[1:]):
        assert q0 - q1 >= 2


@given(reduced_sums(max_exp=16, max_len=6), reduced_sums(max_exp=16, max_len=6))
def test_compare_matches_clamped_difference(a, b):
    a = remove_superfluous(a)
    b = remove_superfluous(b)
    diff = sum_value(a) - sum_value(b)
    want = max(-2, min(2, diff))
    if abs(diff) >= 2:
        want = 2 if diff > 0 else -2
    assert compare(a, b) == want


@given(reduced_sums(max_exp=20))
def test_sum_sign_and_divisibility(s):
    s = remove_superfluous(s)
    v = sum_value(s)
    assert sum_sign(s) == (v > 0) - (v < 0)
    for n in (0, 1, 2, 5):
        assert divisible_by_pow2(s, n) == (v % (1 << n) == 0)


def all_clean_sums(max_exp, max_len):
    """Every reduced, superfluous-free sum over exponents < max_exp."""
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


def test_compare_exhaustive_small():
    sums = all_clean_sums(max_exp=6, max_len=3)
    vals = {id(s): sum_value(s) for s in sums}
    for a in sums:
        for b in sums:
            diff = vals[id(a)] - vals[id(b)]
            want = (diff > 0) - (diff < 0)
            if abs(diff) >= 2:
                want *= 2
            r, iters = compare_counted(a, b)
            assert r == want
            assert iters <= 4 * (len(digits(a)) + len(digits(b))) + 8


def min_weight_table(max_exp):
    """Least digit count per value, by layered dynamic programming.

    Layer q decides the coefficient at exponent q in {-1, 0, +1}.  Values
    below 2^max_exp may still need a digit at max_exp itself (the carry in
    0b111 -> +0b1000 -1), hence one extra layer.
    """
    best = {0: 0}
    for q in range(max_exp + 1):
        nxt = {}
        for v, w in best.items():
            for c in (-1, 0, 1):
                nv = v + c * (1 << q)
                nw = w + (c != 0)
                if nw < nxt.get(nv, 99):
                    nxt[nv] = nw
        best = nxt
    return best


def test_make_compact_minimal_weight_small():
    table = min_weight_table(8)
    for s in all_clean_sums(max_exp=8, max_len=4):
        c = make_compact(s)
        assert len(digits(c)) == table[sum_value(s)]
