"""Circuit reduction: make vertex values pairwise distinct without ever
computing them, then normalize.

The reducer sweeps the circuit in an order where edges point backward and
maintains the processed prefix C as a certificate: vertices sorted by value
plus one bit per adjacent pair saying whether the right value is exactly
double the left.  Under that certificate, a vertex's exponent sum is a signed
binary sum over its children, so the five-way digit comparison decides value
order and collisions in polynomial time.  A colliding vertex is repeatedly
doubled (exponent + 1, with its old parents and marks merged into the twin)
until it fits a free slot; at most one helper vertex per separation appears,
which keeps the output within one vertex of the input.

Everything value-ordered here is proper: the sweep aborts with IMPROPER as
soon as a vertex's exponent sum turns out negative.

Normalization stacks three passes on a reduced circuit: give every vertex a
doubling partner, rewrite every exponent sum and the mark sum into compact
form, and trim.  Normal circuits are canonical: equal value implies equal
shape.
"""

from __future__ import annotations

from dataclasses import dataclass

from . import arithmetic
from . import circuit as circ
from .circuit import (
    IMPROPER,
    Certificate,
    CertificateError,
    CircuitInvariantError,
    CircuitKind,
    PowerCircuit,
    VariableCircuitError,
)
from .signed_binary import KeyDomain, SignedSum, compare_counted, make_compact

_VALUE_IS_ZERO = object()


@dataclass
class ReduceStats:
    """Instrumented operation count: comparison iterations plus structural
    rewrites.  Used for the cubic-scaling benchmarks."""

    ops: int = 0
    doublings: int = 0
    separations: int = 0


class _State(KeyDomain):
    """Mutable working certificate over a circuit being reduced.

    Digit keys are vertex ids; their order is the position in `order`.
    """

    def __init__(self, c: PowerCircuit, zero):
        self.c = c
        self.zero = zero
        self.order: list = []
        self.doubles: list = []
        self.rank: dict = {}
        self.ops = 0
        self.doublings = 0
        self.separations = 0

    # KeyDomain over vertex ids

    def compare_keys(self, a, b) -> int:
        ra = self.rank[a]
        rb = self.rank[b]
        return (ra > rb) - (ra < rb)

    def is_double(self, a, b) -> bool:
        rb = self.rank[b]
        return self.rank[a] == rb + 1 and self.doubles[rb]

    def is_unit(self, v) -> bool:
        out = self.c._succ[v]
        return len(out) == 1 and self.zero in out

    def successor(self, v):
        r = self.rank[v]
        if r + 1 < len(self.order) and self.doubles[r]:
            return self.order[r + 1]
        raise CertificateError("no doubling partner available for carry")

    # certificate maintenance

    def _rebuild_ranks(self, start: int):
        for i in range(start, len(self.order)):
            self.rank[self.order[i]] = i

    def insert(self, v, pos: int, bit_left: bool, bit_right: bool):
        self.order.insert(pos, v)
        if pos == len(self.order) - 1:
            if len(self.order) >= 2:
                self.doubles.append(bit_left)
        else:
            self.doubles[pos - 1] = bit_left
            self.doubles.insert(pos, bit_right)
        self._rebuild_ranks(pos)

    def remove(self, v):
        pos = self.rank.pop(v)
        self.order.pop(pos)
        n = len(self.order)
        if pos == n:
            if self.doubles:
                self.doubles.pop()
        elif pos == 0:
            self.doubles.pop(0)
        else:
            # values strictly increase, so with a former value strictly in
            # between the survivors can never be doubles of each other
            self.doubles[pos - 1 : pos + 1] = [False]
        self._rebuild_ranks(pos)
        if v == self.zero:
            self.zero = None

    def unit_vertex(self):
        if len(self.order) > 1 and self.is_unit(self.order[1]):
            return self.order[1]
        return None

    def ensure_zero(self):
        if self.zero is not None and self.zero in self.c._succ:
            return self.zero
        z = self.c.add_vertex()
        self.zero = z
        self.order.insert(0, z)
        if len(self.order) >= 2:
            self.doubles.insert(0, False)
        self._rebuild_ranks(0)
        return z

    # digit views

    def digits_of(self, v) -> list:
        out = self.c._succ[v]
        ds = [(t, s) for t, s in out.items() if t != self.zero]
        ds.sort(key=lambda d: self.rank[d[0]], reverse=True)
        return ds

    def _cmp(self, sv: SignedSum, u) -> int:
        r, it = compare_counted(sv, SignedSum(self.digits_of(u)), self)
        self.ops += it
        return r

    def locate(self, sv: SignedSum):
        """(True, rank-of-equal) or (False, insertion rank}."""
        lo, hi = 1, len(self.order)
        while lo < hi:
            mid = (lo + hi) // 2
            r = self._cmp(sv, self.order[mid])
            if r == 0:
                return True, mid
            if r < 0:
                hi = mid
            else:
                lo = mid + 1
        return False, lo

    # local rewriting

    def cleanup_vertex(self, v):
        """Strip redundant zero edges and superfluous out-edge pairs of v."""
        c = self.c
        out = c._succ[v]
        if self.zero is not None and self.zero in out and len(out) > 1:
            c.remove_edge(v, self.zero)
        ds = self.digits_of(v)
        i = 0
        while i + 1 < len(ds):
            k0, c0 = ds[i]
            k1, c1 = ds[i + 1]
            if c0 == -c1 and self.is_double(k0, k1):
                c.remove_edge(v, k0)
                c.remove_edge(v, k1)
                c.add_edge(v, k1, c0)
                ds[i : i + 2] = [(k1, c0)]
                self.ops += 1
            else:
                i += 1
        if not c._succ[v]:
            c.add_edge(v, self.ensure_zero(), 1)

    def increment_exponent(self, v):
        """Add one to v's exponent sum by local edge surgery.

        Digit-wise this removes a -2^0 digit, or folds the all-ones prefix
        2^0 + ... + 2^(N-1) into a single +2^N digit.  When no vertex of
        value 2^N exists one helper vertex is created, wired to denote 2^N,
        and inserted into the certificate.  Returns the helper or None.
        """
        c = self.c
        out = c._succ[v]
        unit = self.unit_vertex()
        if unit is not None and out.get(unit) == -1:
            c.remove_edge(v, unit)
            if not out:
                c.add_edge(v, self.ensure_zero(), 1)
            return None
        chain = []
        t = unit
        while t is not None and out.get(t) == 1:
            chain.append(t)
            r = self.rank[t]
            t = self.order[r + 1] if r + 1 < len(self.order) and self.doubles[r] else None
        for u in chain:
            c.remove_edge(v, u)
            self.ops += 1
        aux = None
        if t is not None:
            if out.get(t) == -1:
                raise CircuitInvariantError("superfluous pair fed to doubling")
            c.add_edge(v, t, 1)
        else:
            n = len(chain)
            aux = c.add_vertex()
            if n == 0:
                c.add_edge(aux, self.ensure_zero(), 1)
                bit_right = False
                if len(self.order) > 1:
                    bit_right = self._cmp(SignedSum(), self.order[1]) == -1
                self.insert(aux, 1, False, bit_right)
            else:
                k = 0
                m = n
                while m:
                    if m & 1:
                        c.add_edge(aux, chain[k], 1)
                    m >>= 1
                    k += 1
                pos = self.rank[chain[-1]] + 1
                sv = SignedSum(self.digits_of(aux))
                bit_right = pos < len(self.order) and self._cmp(sv, self.order[pos]) == -1
                self.insert(aux, pos, True, bit_right)
            c.add_edge(v, aux, 1)
        if self.zero is not None and self.zero in out and len(out) > 1:
            c.remove_edge(v, self.zero)
        return aux

    def double_value(self, vi, vj):
        """Double value(vj), folding vj's old parents and marks onto vi.

        Precondition: value(vi) == value(vj), vi's children certified, vj's
        out-edges clean of superfluous pairs.
        """
        # vj cannot reach vi: every certified vertex and the cleaned vj lack
        # superfluous pairs, so each one's exponent exceeds half its largest
        # child's value and its value exceeds every child's.  No descendant
        # of vj can therefore share value(vj) == value(vi).
        c = self.c
        aux = self.increment_exponent(vj)
        for vk in (c._pred[vi] | c._pred[vj]) - {vi, vj}:
            sj = c._succ[vk].get(vj)
            if sj is None:
                continue
            si = c._succ[vk].get(vi)
            if si is None:
                c.remove_edge(vk, vj)
                c.add_edge(vk, vi, sj)
            elif si == sj:
                c.remove_edge(vk, vi)
            else:
                c.remove_edge(vk, vi)
                c.remove_edge(vk, vj)
            self.ops += 1
        mi = c._marks.get(vi)
        mj = c._marks.get(vj)
        if mj is not None:
            if mi is None:
                c.unmark(vj)
                c.set_mark(vi, mj)
            elif mi == mj:
                c.unmark(vi)
            else:
                c.unmark(vi)
                c.unmark(vj)
        self.cleanup_vertex(vj)
        self.doublings += 1
        return aux

    def trim_update(self) -> bool:
        """Drop mark-unreachable vertices; False when no marks remain."""
        c = self.c
        if not c._marks:
            return False
        keep = circ.reachable_from_marks(c)
        for v in [v for v in c._succ if v not in keep]:
            c.remove_vertex(v)
            if v in self.rank:
                self.remove(v)
        return True

    def process_vertex(self, v):
        """Clean, place or separate one vertex; certifies it on success.

        Returns None, IMPROPER, or _VALUE_IS_ZERO (every mark cancelled).
        """
        self.cleanup_vertex(v)
        ds = self.digits_of(v)
        if ds and ds[0][1] < 0:
            return IMPROPER
        while True:
            found, pos = self.locate(SignedSum(ds))
            if not found:
                sv = SignedSum(ds)
                bit_left = pos > 1 and self._cmp(sv, self.order[pos - 1]) == 1
                bit_right = pos < len(self.order) and self._cmp(sv, self.order[pos]) == -1
                self.insert(v, pos, bit_left, bit_right)
                return None
            self.double_value(self.order[pos], v)
            self.separations += 1
            if not self.trim_update():
                return _VALUE_IS_ZERO
            if v not in self.c._succ:
                return None
            ds = self.digits_of(v)

    def certificate(self) -> Certificate:
        return Certificate(tuple(self.order), tuple(self.doubles))


def _trivial_result(w: PowerCircuit, kind: CircuitKind) -> PowerCircuit:
    circ.make_trivial_inplace(w)
    only = next(iter(w.vertices()))
    return w.freeze(kind, Certificate((only,), ()))


def reduce(c: PowerCircuit, stats: ReduceStats | None = None):
    """Equivalent circuit with pairwise distinct vertex values, certified.

    Returns IMPROPER when some vertex value is not a natural number.  Output
    has at most one vertex more than the standardized input.
    """
    if not c.is_constant():
        raise VariableCircuitError("reduce needs a constant circuit")
    w = c.copy()
    circ.standardize_inplace(w)
    if circ.is_trivial(w):
        only = next(iter(w.vertices()))
        return w.freeze(CircuitKind.REDUCED, Certificate((only,), ()))
    order0 = circ.geometric_order(w)
    zero = order0[0]
    if not w.is_zero_leaf(zero):
        raise CircuitInvariantError("standard circuit must start at its zero")
    st = _State(w, zero)
    st.order = [order0[0], order0[1]]
    st.doubles = [False]
    st.rank = {order0[0]: 0, order0[1]: 1}
    result = None
    for v in order0[2:]:
        if v not in w._succ:
            continue
        r = st.process_vertex(v)
        if r is IMPROPER:
            result = IMPROPER
            break
        if r is _VALUE_IS_ZERO:
            result = _VALUE_IS_ZERO
            break
    if stats is not None:
        stats.ops += st.ops
        stats.doublings += st.doublings
        stats.separations += st.separations
    if result is IMPROPER:
        return IMPROPER
    if result is _VALUE_IS_ZERO:
        return _trivial_result(w, CircuitKind.REDUCED)
    st.trim_update()
    return w.freeze(CircuitKind.REDUCED, st.certificate())


def _state_from_certificate(w: PowerCircuit, cert: Certificate) -> _State:
    zero = cert.order[0]
    st = _State(w, zero if w.is_zero_leaf(zero) else None)
    st.order = list(cert.order)
    st.doubles = list(cert.doubles)
    st.rank = {v: i for i, v in enumerate(st.order)}
    return st


def normalize(c: PowerCircuit, stats: ReduceStats | None = None):
    """Reduce, then rewrite into the unique normal form.

    Every vertex gains a doubling partner (so carries always have a target),
    every exponent sum and the mark sum become compact, and dead vertices
    are trimmed.  At most twice the reduced size.  Returns IMPROPER for
    improper circuits.
    """
    r = reduce(c, stats)
    if r is IMPROPER:
        return IMPROPER
    if circ.is_trivial(r):
        return r.copy().freeze(CircuitKind.NORMAL, r.certificate)
    w = r.copy()
    st = _state_from_certificate(w, r.certificate)
    originals = list(st.order[1:])
    for v in originals:
        rk = st.rank[v]
        if rk + 1 < len(st.order) and st.doubles[rk]:
            continue
        d = w.add_vertex()
        for t, s in w._succ[v].items():
            w.add_edge(d, t, s)
        aux = st.increment_exponent(d)
        if aux is not None:
            raise CircuitInvariantError("doubling partner construction recursed")
        # the carry may leave -2^(k+1) +2^k adjacent in d's digits
        st.cleanup_vertex(d)
        pos = st.rank[v] + 1
        sv = SignedSum(st.digits_of(d))
        bit_right = pos < len(st.order) and st._cmp(sv, st.order[pos]) == -1
        st.insert(d, pos, True, bit_right)
    for v in list(st.order[1:]):
        ds = st.digits_of(v)
        comp = make_compact(SignedSum(ds), st)
        if list(comp.digits) != ds:
            for t in [t for t in w._succ[v] if t != st.zero]:
                w.remove_edge(v, t)
            for t, s in comp:
                w.add_edge(v, t, s)
            if not comp:
                if st.zero not in w._succ[v]:
                    w.add_edge(v, st.ensure_zero(), 1)
            elif st.zero is not None and st.zero in w._succ[v]:
                w.remove_edge(v, st.zero)
    mds = sorted(w._marks.items(), key=lambda m: st.rank[m[0]], reverse=True)
    comp = make_compact(SignedSum(mds), st)
    if list(comp.digits) != mds:
        for v in list(w._marks):
            w.unmark(v)
        for v, s in comp:
            w.set_mark(v, s)
    if not w._marks:
        return _trivial_result(w, CircuitKind.NORMAL)
    st.trim_update()
    return w.freeze(CircuitKind.NORMAL, st.certificate())


# -- queries ----------------------------------------------------------------


def sign(c: PowerCircuit, stats: ReduceStats | None = None):
    """-1, 0 or +1 without evaluating; IMPROPER for improper circuits.

    On a certified circuit this reads the top marked vertex directly;
    otherwise the circuit is reduced first.
    """
    if c.certificate is None or c.kind not in (CircuitKind.REDUCED, CircuitKind.NORMAL):
        c = reduce(c, stats)
        if c is IMPROPER:
            return IMPROPER
    if circ.is_trivial(c):
        return 0
    rank = c.certificate.rank_map()
    top = max(c.marks, key=rank.__getitem__)
    return c.marks[top]


def compare_circuits(a: PowerCircuit, b: PowerCircuit, stats: ReduceStats | None = None):
    """Sign of value(a) - value(b); IMPROPER if either side is improper."""
    return sign(arithmetic.subtract(a, b), stats)


# -- certificate verification ----------------------------------------------


def verify_certificate(c: PowerCircuit, require_normal: bool = False):
    """Check a certificate against its circuit, raising CertificateError.

    Validates the standard shape, properness, pairwise-distinct values in
    certificate order, the doubling bits, and absence of superfluous pairs;
    with require_normal also compactness of every sum.
    """
    cert = c.certificate
    if cert is None:
        raise CertificateError("no certificate attached")
    if sorted(cert.order) != sorted(c.vertices()):
        raise CertificateError("certificate does not cover the vertex set")
    if len(cert.doubles) != max(len(cert.order) - 1, 0):
        raise CertificateError("doubles length mismatch")
    if not c.marks:
        raise CertificateError("empty mark set")
    if circ.is_trivial(c):
        return
    zero = cert.order[0]
    if not c.is_zero_leaf(zero) or zero in c.marks:
        raise CertificateError("order must start at the unmarked zero")
    if len(circ.reachable_from_marks(c)) != c.n_vertices():
        raise CertificateError("circuit is not trimmed")
    if cert.doubles and cert.doubles[0]:
        raise CertificateError("nothing can double the zero vertex")
    st = _state_from_certificate(c, cert)
    for v in cert.order[1:]:
        out = c.out_edges(v)
        if not out:
            raise CertificateError("extra leaf vertex")
        if zero in out and len(out) > 1:
            raise CertificateError("redundant zero edge")
        ds = st.digits_of(v)
        if ds and ds[0][1] < 0:
            raise CertificateError("improper vertex in certified circuit")
        for j in range(len(ds) - 1):
            if ds[j][1] == -ds[j + 1][1] and st.is_double(ds[j][0], ds[j + 1][0]):
                raise CertificateError("superfluous edge pair")
            if require_normal and st.is_double(ds[j][0], ds[j + 1][0]):
                raise CertificateError("exponent sum not compact")
    for i in range(1, len(cert.order) - 1):
        a, b = cert.order[i], cert.order[i + 1]
        r, _ = compare_counted(
            SignedSum(st.digits_of(b)), SignedSum(st.digits_of(a)), st
        )
        if r <= 0:
            raise CertificateError("certificate order is not increasing")
        if (r == 1) != st.doubles[i]:
            raise CertificateError("doubling bit disagrees with values")
    if require_normal:
        mds = sorted(c.marks.items(), key=lambda m: st.rank[m[0]], reverse=True)
        for j in range(len(mds) - 1):
            if st.is_double(mds[j][0], mds[j + 1][0]):
                raise CertificateError("mark sum not compact")
