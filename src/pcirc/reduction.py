"""Circuit reduction: make vertex values pairwise distinct without ever
computing them; normal forms.

The reducer sweeps the circuit in an order where edges point backward and
maintains the processed prefix C as a certificate: vertices sorted by value
plus one bit per adjacent pair saying whether the right value is exactly
double the left.  Under that certificate, a vertex's exponent sum is a signed
binary sum over its children, so the five-way digit comparison decides value
order and collisions in polynomial time.  A colliding vertex is repeatedly
doubled (exponent + 1, with its old parents and marks merged into the twin)
until it fits a free slot; at most one helper vertex per separation appears,
which keeps the output within one vertex of the input.

Each vertex costs one binary search.  Its last compares against the new
neighbours already give both doubling bits of the slot.  Most probes of
that search are settled by the leading digits alone.  A digit sum free of
superfluous pairs, with a positive leading digit of weight W, lies strictly
between W/2 and 2W: the digits below add less than W, and a -W/2 right
under +W would be a superfluous pair.  Certified values are distinct powers
of two, so when the probed vertex's leading key is neither the searched
sum's leading key, its half nor its double, the two leading weights
W < W' are at least a factor 4 apart.  Then the smaller sum is below 2W
and the larger above W'/2 >= 2W; being integers, they differ by at least
2.  Such a probe is answered +-2, never +-1 or 0, from the labels of the
two leading keys, and only the other probes run the digit comparison.

The certificate is kept as order-maintenance labels (Dietz and Sleator,
STOC 1987) rather than dense ranks: each certified vertex has an integer
label, increasing along the order but with gaps, and a vertex certified
between two neighbours takes the midpoint of their labels.  Only when a
gap runs out is the whole order relabelled, in one pass, so no insert
renumbers the vertices above it.  The doubling bits are a map from each
vertex to the one worth twice its value, so is_double and partner are one
lookup each; an insert only adds to the map, since two vertices with a
slot between them were never a doubling pair.  A caller that needs a known
vertex's position in the order bisects the order on labels; a twin found
in the index is handed back as the vertex, with no search.

After a doubling the vertex is worth exactly twice its twin, so the
certificate names its next slot without a new search: it meets the twin's
doubling partner, or it takes the free slot just above the twin, where
only the right bit needs a compare.

The sweep starts from a certificate: the zero alone, or the seed that an
arithmetic operation leaves on its result, the certificate of its largest
certified operand.  The seed is restricted to the vertices standardizing
keeps, the standardized zero goes first, and pairs that are no longer
neighbours get doubling bit False, as in trim.  Seed vertices are indexed
like inserted ones, so twins still meet them by hash, and only the other
vertices are swept, in geometric order.  The seed stays valid for the whole
sweep, for three reasons: a seed vertex's children are seed vertices, since
the seed certified a whole operand; the union adds edges only out of new
vertices; and surgery rewires only edges out of the processed vertex and
its unprocessed parents, none of which is a seed vertex.  So no seed
vertex changes its out-edges or its value.  A certified input is the case
with nothing left to sweep: reduce returns it as it is, without a copy.

Everything value-ordered here is proper: the sweep aborts with IMPROPER as
soon as a vertex's exponent sum turns out negative.

reduce is the sweep followed by one trim and a freeze.  sign of an
uncertified circuit runs the same sweep and reads the top marked vertex
off the sweep's certificate: a marked vertex is never dead, so the
untrimmed order ranks the marks as the trimmed one would, and the copy is
discarded without a trim.

Dead vertices are trimmed once, after the sweep, never during it.  Surgery
on the vertex being processed rewires only edges out of it and out of its
unprocessed parents, and moves only its own mark and its twin's, so no other
vertex changes value, and no unprocessed vertex loses an in-edge or a mark.
A vertex that dies mid-sweep is therefore a certified key whose value is
still correct, or the processed vertex itself, which is then left out of the
certificate.  A dead key stays a valid comparison target, and a later twin
that folds into it brings it back to life.

The state memoizes each certified vertex's digit sum, its children sorted
by descending label, and builds it once per sweep.  The memo cannot go
stale: a certified vertex's out-edges never change during the sweep, since
surgery rewires only edges out of the processed vertex and its unprocessed
parents; and neither an insert nor a relabelling reorders certified
vertices, so a sorted sum stays sorted.  insert seeds the memo with the
sum the sweep has already built: the one a vertex placed without a
separation was searched with, or the one insert_above built for its
right-bit compare.  A doubling changes only the lowest digits, so it
updates the processed vertex's digit list in place rather than sorting it
afresh.  The bare certificate verify_certificate builds, with no sweep,
builds each sum on its first use.

insert also indexes each certified vertex by its digit tuple, and locate
looks a vertex's digits up there before its binary search.  The index
cannot go stale for the same reasons as the memo: over certified keys,
equal digit tuples mean equal values, and certified values are distinct, so
a hit names the very twin the search would find, without a compare.  Every
entry names a vertex whose memoized sum has exactly those digits.

A Pool is the certificate kept for many values at once, as the source paper
runs every operation on the markings of one circuit.  It shares the
certificate class with the sweep, not the sweep itself: it owns its graph,
a plain out-edge table with no predecessor sets, which `circuit` builds
for the subgraph it hands out.  It starts from the zero alone and only
grows, every vertex's digit sum is compact, and a value is a compact
marking over its vertices.  Sums merge two markings and carry; a carry
that finds no doubling partner adds one.  A new vertex costs one
`locate` and one `insert`, and the index finds every value already there.
Compact sums order lexicographically, so the pool's own `locate` searches
by reading digits, and runs the five-way comparison only against the two
neighbours of the slot it finds, which confirm the slot and give its
doubling bits.  Nothing is rewired, so no pool vertex ever changes its
value; `keep` only drops the vertices that no value still held reaches.

The pool registers the vertices 2^e it makes for integers e by their
exponents.  An integer's missing powers, those of its compact digits and
of their exponents' digits in turn, are gathered first and added lowest
first, so each one's digits are already in, and each goes at the slot its
registered neighbours name, with no search; powers above the top take
fresh labels instead of halving a gap.  A carry out of a registered 2^e
that finds no partner is 2^(e+1), placed the same way, so a literal and
its sums need no `locate`.

The pool is the one place a normal form is built.  `take` brings in any
constant circuit, children first, making each vertex's digits and then the
marks compact over the pool's order, and `circuit` hands a marking out:
the subgraph it reaches is compact and trimmed, so it is the normal form.
Every circuit, reduced or not, comes in one way: in geometric order,
without a sweep, and a vertex whose compact exponent has a negative
leading digit makes it improper, as in the sweep.  A twin of a vertex
already in costs one index lookup, not a doubling.  normalize is take
into a fresh pool and read back out, so the sweep serves reduce and sign
alone; a normal input comes back as it is.  Normal circuits are
canonical: equal value implies equal shape, so canonical_bytes compares
them whatever their vertex ids.
"""

from __future__ import annotations

import bisect
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
from .signed_binary import (
    KeyDomain,
    SignedSum,
    compact_of_integer,
    compare_counted,
    make_compact,
)

_VALUE_IS_ZERO = object()
_GAP = 1 << 32  # label spacing: a gap halves with each insert into it


@dataclass
class ReduceStats:
    """Work counters, summed over every reduction, normalize or sign that
    is passed the same instance: ops counts comparison iterations (one for
    each search probe settled by its leading digits) plus structural
    rewrites, and doublings and separations count the sweep's surgery.
    sign counts exactly what reduce of the same circuit would, since the
    trim it skips counts nothing.  normalize runs no sweep: it counts only
    its pool's search, one op per lexicographic probe plus the iterations
    of the two neighbour compares that confirm each slot."""

    ops: int = 0
    doublings: int = 0
    separations: int = 0


class _Order(KeyDomain):
    """A certificate over an out-edge table, as the sweep and the pool both
    keep one.

    Digit keys are vertex ids, and `succ` maps each vertex to its out-edges.
    `order` lists the certified vertices by value; `rank` gives each an
    integer label that increases along `order` but leaves gaps, so an insert
    labels only the new vertex: it takes the midpoint of its neighbours'
    labels, or the top label plus _GAP, and a gap that runs out relabels the
    whole order once.  A position in `order` is found by bisecting on
    labels.  `twice` maps a vertex to the one worth exactly twice its value;
    an insert only adds to it, since two vertices with a slot between them
    were never a doubling pair.
    """

    def __init__(self, succ: dict, order, doubles, stats: ReduceStats | None = None):
        self.succ = succ
        self.zero = order[0]
        self.order = list(order)
        self.rank = {v: i * _GAP for i, v in enumerate(self.order)}
        self.twice = _pairs(self.order, doubles)
        self.stats = ReduceStats() if stats is None else stats
        self.sums = {}  # certified vertex -> its digit sum, built once
        self.vertex_of = {}  # digit tuple -> the certified vertex with those digits

    # KeyDomain over vertex ids

    def compare_keys(self, a, b) -> int:
        ra = self.rank[a]
        rb = self.rank[b]
        return (ra > rb) - (ra < rb)

    def is_double(self, a, b) -> bool:
        return self.twice.get(b) == a

    def is_unit(self, v) -> bool:
        out = self.succ[v]
        return len(out) == 1 and self.zero in out

    def partner(self, v):
        """The vertex worth 2 * value(v), or None."""
        return self.twice.get(v)

    # certificate maintenance

    def position(self, v) -> int:
        """The index of certified vertex v in order."""
        rank = self.rank
        return bisect.bisect_left(self.order, rank[v], key=rank.__getitem__)

    def _relabel(self):
        for i, v in enumerate(self.order):
            self.rank[v] = i * _GAP

    def insert(self, v, sv: SignedSum, pos: int, bit_left: bool, bit_right: bool):
        """Certify v, whose digit sum is sv, at position pos of order."""
        order, rank = self.order, self.rank
        order.insert(pos, v)
        below = rank[order[pos - 1]]
        if pos + 1 < len(order):
            above = order[pos + 1]
            gap = rank[above] - below
            if gap > 1:
                rank[v] = below + gap // 2
            else:
                self._relabel()
            if bit_right:
                self.twice[v] = above
        else:
            rank[v] = below + _GAP
        if bit_left:
            self.twice[order[pos - 1]] = v
        self.sums[v] = sv
        self.vertex_of[sv.digits] = v

    # digit views

    def digits_of(self, v) -> list:
        out = self.succ[v]
        ds = [(t, s) for t, s in out.items() if t != self.zero]
        ds.sort(key=lambda d: self.rank[d[0]], reverse=True)
        return ds

    def sum_of(self, u) -> SignedSum:
        """The digit sum of certified vertex u, built on first use."""
        su = self.sums.get(u)
        if su is None:
            su = self.sums[u] = SignedSum(self.digits_of(u))
        return su

    def _cmp(self, sv: SignedSum, u) -> int:
        """compare_counted(sv, sum_of(u)), adding its iterations to ops.  A
        pair of leading keys that are neither equal nor a doubling pair
        settles it as +-2, signed as the larger key's digit, for one op."""
        su = self.sum_of(u)
        if sv.digits and su.digits:
            (ka, ca), (kb, cb) = sv.digits[0], su.digits[0]
            if ka != kb and self.twice.get(ka) != kb and self.twice.get(kb) != ka:
                self.stats.ops += 1
                return 2 * ca if self.rank[ka] > self.rank[kb] else -2 * cb
        r, it = compare_counted(sv, su, self)
        self.stats.ops += it
        return r


class _State(_Order):
    """The working certificate of a sweep over circuit c, which it rewires;
    its `succ` is c's own out-edge table, so every edit shows in both."""

    def __init__(self, c: PowerCircuit, order, doubles, stats: ReduceStats | None = None):
        super().__init__(c._succ, order, doubles, stats)
        self.c = c

    def index(self, v):
        """Index certified vertex v, as insert does, building its sum."""
        self.vertex_of[self.sum_of(v).digits] = v

    def insert_above(self, v, u, ds):
        """Insert v, whose digits are ds and whose value is 2 * value(u),
        into the free slot just above u."""
        pos = self.position(u) + 1
        sv = SignedSum(ds)
        right = pos < len(self.order) and self._cmp(sv, self.order[pos]) == -1
        self.insert(v, sv, pos, True, right)

    def locate(self, sv: SignedSum):
        """(twin, None) when certified vertex twin has sv's value, else
        (insertion position, (bit_left, bit_right)).

        The search compared sv with both new neighbours last, so those
        compares already say whether each is an exact half or double.  A
        certified vertex with exactly sv's digits is found without a compare.
        A probe whose leading key is neither sv's own, its half nor its
        double is settled as +-2 from the two labels; it counts one op, as
        the one iteration compare_counted would take on it.  The other
        probes compare with the probed vertex's memoized sum, which the
        sweep holds for every certified vertex.
        """
        u = self.vertex_of.get(sv.digits)
        if u is not None:
            return u, None
        order, rank, twice, sums, stats = self.order, self.rank, self.twice, self.sums, self.stats
        ka = sv.digits[0][0] if sv.digits else None
        if ka is not None:
            ra, up = rank[ka], twice.get(ka)
        lo, hi = 1, len(order)
        left = right = False
        while lo < hi:
            mid = (lo + hi) // 2
            su = sums[order[mid]]
            if ka is None or not su.digits:
                r, it = compare_counted(sv, su, self)
            else:
                kb = su.digits[0][0]
                rb = rank[kb]
                if ra > rb and twice.get(kb) != ka:
                    r, it = 2, 1
                elif ra < rb and up != kb:
                    r, it = -2, 1
                else:
                    r, it = compare_counted(sv, su, self)
            stats.ops += it
            if r == 0:
                return order[mid], None
            if r < 0:
                hi, right = mid, r == -1
            else:
                lo, left = mid + 1, r == 1
        return lo, (left, right)

    # local rewriting

    def cleanup_vertex(self, v) -> list:
        """Strip redundant zero edges and superfluous out-edge pairs of v;
        v's digits after the cleanup."""
        c = self.c
        out = c._succ[v]
        if self.zero in out and len(out) > 1:
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
                self.stats.ops += 1
            else:
                i += 1
        if not c._succ[v]:
            c.add_edge(v, self.zero, 1)
        return ds

    def increment_exponent(self, v, ds):
        """Add one to v's exponent sum by local edge surgery; ds, v's digits
        free of superfluous pairs, is updated in place and stays so.

        Digit-wise this removes a -2^0 digit, or folds the all-ones prefix
        2^0 + ... + 2^(N-1) into a single +2^N digit, which a -2^(N+1) digit
        just above it absorbs into -2^N.  When no vertex of value 2^N exists
        one helper vertex is created, wired to denote 2^N, and inserted into
        the certificate.
        """
        c = self.c
        out = c._succ[v]
        # a standard circuit's first vertex after the zero points only at
        # the zero, and every vertex worth more than 1 reaches one worth 1,
        # so a certificate that has anything to double holds the unit
        unit = self.order[1]
        if not self.is_unit(unit):
            raise CircuitInvariantError("certificate lacks the unit vertex")
        if out.get(unit) == -1:
            c.remove_edge(v, unit)
            ds.pop()
            if not out:
                c.add_edge(v, self.zero, 1)
            return
        chain = []
        t = unit
        while t is not None and out.get(t) == 1:
            chain.append(t)
            t = self.partner(t)
        # the chain holds positions 1 .. len(chain), so it is the tail of ds
        for u in chain:
            c.remove_edge(v, u)
            self.stats.ops += 1
        del ds[len(ds) - len(chain) :]
        if t is not None:
            if out.get(t) == -1:
                raise CircuitInvariantError("superfluous pair fed to doubling")
        else:
            t = c.add_vertex()
            k = 0
            m = len(chain)
            while m:
                if m & 1:
                    c.add_edge(t, chain[k], 1)
                m >>= 1
                k += 1
            self.insert_above(t, chain[-1], self.digits_of(t))
        # +t and a -2t just above it make one superfluous pair, folded into
        # -t; nothing further up doubles t, so the fold cannot cascade
        if ds and ds[-1][1] == -1 and self.is_double(ds[-1][0], t):
            c.remove_edge(v, ds.pop()[0])
            c.add_edge(v, t, -1)
            ds.append((t, -1))
            self.stats.ops += 1
        else:
            c.add_edge(v, t, 1)
            ds.append((t, 1))
        if self.zero in out and len(out) > 1:
            c.remove_edge(v, self.zero)

    def double_value(self, vi, vj, ds):
        """Double value(vj), folding vj's old parents and marks onto vi; ds,
        vj's digits, follows in place.

        Precondition: value(vi) == value(vj), vi's children certified, vj's
        out-edges clean of superfluous pairs.
        """
        # vj cannot reach vi: every certified vertex and the cleaned vj lack
        # superfluous pairs, so each one's exponent exceeds half its largest
        # child's value and its value exceeds every child's.  No descendant
        # of vj can therefore share value(vj) == value(vi).  Nor is vi a
        # parent of vj: vi is certified, and a certified vertex never gains
        # an out-edge to an unprocessed one.  So only vj's parents rewire.
        c = self.c
        self.increment_exponent(vj, ds)
        for vk in list(c._pred[vj]):
            sj = c._succ[vk][vj]
            si = c._succ[vk].get(vi)
            if si is None:
                c.remove_edge(vk, vj)
                c.add_edge(vk, vi, sj)
            elif si == sj:
                c.remove_edge(vk, vi)
            else:
                c.remove_edge(vk, vi)
                c.remove_edge(vk, vj)
            self.stats.ops += 1
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
        self.stats.doublings += 1

    def process_vertex(self, v):
        """Clean, place or separate one vertex; certifies it on success.

        Returns None, IMPROPER, or _VALUE_IS_ZERO (every mark cancelled).
        """
        ds = self.cleanup_vertex(v)
        if ds and ds[0][1] < 0:
            return IMPROPER
        sv = SignedSum(ds)
        vi, bits = self.locate(sv)
        if bits is not None:
            self.insert(v, sv, vi, *bits)
            return None
        # once doubled, v is worth twice its twin vi: it meets vi's doubling
        # partner, or it takes the free slot just above vi
        while True:
            self.double_value(vi, v, ds)
            self.stats.separations += 1
            if not self.c._marks:
                return _VALUE_IS_ZERO
            if not self.c._pred[v] and v not in self.c._marks:
                return None  # dead; the final trim drops it
            twin = self.partner(vi)
            if twin is None:
                self.insert_above(v, vi, ds)
                return None
            vi = twin

    def trim(self) -> Certificate:
        """Drop mark-unreachable vertices; the survivors' certificate."""
        circ.trim_inplace(self.c)
        return _restrict(self.order, self.twice, self.c._succ)


class Pool(_Order):
    """One certified circuit that only grows, holding many values at once.

    Values are compact markings: tuples of (vertex, +-1) in descending
    order, with no two keys within a factor of two.  Every certified vertex
    other than the zero has a compact digit sum, so its digits are the one
    compact form of its exponent: equal values have equal digit tuples, and
    `vertex_of` finds every value the pool holds.  A lookup miss is a new
    value, placed with one lexicographic `locate`, which its two
    neighbours confirm, and one `insert`.  Nothing is ever rewired or
    merged, so a marking stays valid until `keep` is called without it,
    and an operation pays only for the vertices it adds.
    `take` turns any constant circuit into a marking, or finds it
    improper, and `circuit` turns a marking back into a normal circuit, so
    normal forms are made here.

    The pool's graph is its own out-edge table `succ`, with vertex 0 the
    zero and `next_id` the next free id; it is no PowerCircuit.  Nothing
    reads a pool vertex's parents while values are built, so no vertex gets
    a predecessor set, which would be most of what it allocates; `circuit`
    builds them for the subgraph it hands out, and `keep` needs none, since
    a parent of a vertex no marking reaches is not reached either.
    """

    def __init__(self, stats: ReduceStats | None = None):
        super().__init__({0: {}}, (0,), (), stats)
        self.next_id = 1
        self.powers = {}  # integer e -> the vertex worth 2^e
        self.exp_of = {}  # a registered vertex -> its exponent e
        self.exps = []  # the keys of powers, ascending

    def vertex(self, ds: tuple, slot=None, lo: int = 1):
        """The vertex whose digits are the compact tuple ds, added if new,
        at the (position, doubling bits) slot if the caller knows it, else
        searched for from position lo up.

        A tuple that is not a compact sum of pool vertices with a positive
        leading digit is refused, and so is a searched slot that its
        neighbours do not confirm; neither leaves a trace.  A slot the
        caller gives is not compared again: only the placement of a power
        between registered neighbours, which names its slot, gives one.  A
        compact ds holds no loop and no key twice, so it is the new vertex's
        out-edge table as it stands.
        """
        v = self.vertex_of.get(ds)
        if v is not None:
            return v
        rank, twice = self.rank, self.twice
        prev = None
        for t, s in ds:
            r = rank.get(t)
            if not r or s != 1 and s != -1 or prev is not None and (
                    r >= rank[prev] or twice.get(t) == prev):
                raise CircuitInvariantError(f"not a compact exponent over the pool: {ds!r}")
            prev = t
        if ds and ds[0][1] < 0:
            raise CircuitInvariantError("a pool vertex needs a positive leading digit")
        sv = SignedSum(ds)
        pos, bits = self.locate(sv, lo) if slot is None else slot
        if bits is None:
            raise CircuitInvariantError("a compact digit tuple missed its twin's index entry")
        v = self.next_id
        self.next_id += 1
        self.succ[v] = {t: s for t, s in ds or ((self.zero, 1),)}
        self.insert(v, sv, pos, *bits)
        return v

    def locate(self, sv: SignedSum, lo: int = 1):
        """The sweep's locate for a compact sv: the same answer, from a
        lexicographic search starting at position lo.

        Each probe is one _lex_sign against a pool sum, which reads digits
        only and counts one op.  The slot is then confirmed against both
        neighbours with _cmp, which also gives the doubling bits; a value
        that is not strictly between them is refused, so a search misled by
        a sum that is not compact never certifies anything.
        """
        order, rank, sums = self.order, self.rank, self.sums
        a = sv.digits
        hi = len(order)
        probes = 0
        while lo < hi:
            mid = (lo + hi) // 2
            probes += 1
            r = _lex_sign(a, sums[order[mid]].digits, rank)
            if r > 0:
                lo = mid + 1
            elif r < 0:
                hi = mid
            else:
                self.stats.ops += probes
                return order[mid], None
        self.stats.ops += probes
        left = self._cmp(sv, order[lo - 1]) if lo > 1 else 2
        right = self._cmp(sv, order[lo]) if lo < len(order) else -2
        if left <= 0 or right >= 0:
            raise CircuitInvariantError("a digit tuple is not strictly between its neighbours")
        return lo, (left == 1, right == -1)

    def successor(self, v):
        """The vertex worth 2 * value(v), added if missing, so carries never
        run out of keys.  A missing double of a registered power 2^e is
        power(e + 1), which goes just above v at a slot the registered
        powers name, with no search.  Any other vertex's double is its
        exponent plus one, made compact and found or searched for."""
        p = self.partner(v)
        if p is None:
            e = self.exp_of.get(v)
            if e is not None:
                return self.power(e + 1)
            p = self.vertex(self.add(self.sums[v].digits, ((self.vertex(()), 1),)))
        return p

    def power(self, e: int):
        """The vertex worth 2^e for an integer e >= 0: a lookup, or
        _add_powers when it is missing."""
        v = self.powers.get(e)
        if v is None:
            self._add_powers((e,))
            v = self.powers[e]
        return v

    def integer(self, n: int) -> tuple:
        """The compact marking of the integer n.  The powers its digits name
        that the pool lacks go in in one bottom-up pass of _add_powers."""
        digits = compact_of_integer(abs(n)).digits
        self._add_powers([e for e, _ in digits])
        powers = self.powers
        sign = 1 if n > 0 else -1
        return tuple((powers[e], sign * s) for e, s in digits)

    def _add_powers(self, es):
        """Register 2^e for each exponent in es, and for each exponent of
        their compact digits, and of those, and so on.

        The missing exponents are gathered first, with an explicit stack,
        and then added in ascending order: the digits of 2^e are powers
        below 2^e, so they are in when it goes in.  When the registered
        powers just below and just above e are neighbours in the order, a
        new 2^e goes between them without a search, and its doubling bits
        say whether their exponents are e - 1 and e + 1; otherwise it is
        searched for from just above the power below.  A vertex worth 2^e
        that another path made is found by its digits and registered.
        """
        powers = self.powers
        need = {}  # missing exponent -> its compact digits over exponents
        stack = [e for e in es if e not in powers]
        while stack:
            e = stack.pop()
            if e not in need:
                need[e] = ds = compact_of_integer(e).digits
                stack.extend(q for q, _ in ds if q not in powers)
        exps, order, exp_of = self.exps, self.order, self.exp_of
        for e in sorted(need):
            i = bisect.bisect(exps, e)
            pos = self.position(powers[exps[i - 1]]) + 1 if i else 1
            above = powers[exps[i]] if i < len(exps) else None
            slot = None
            if (order[pos] if pos < len(order) else None) == above:
                slot = pos, (i > 0 and exps[i - 1] == e - 1, i < len(exps) and exps[i] == e + 1)
            v = powers[e] = self.vertex(tuple((powers[q], s) for q, s in need[e]), slot, pos)
            exp_of[v] = e
            exps.insert(i, e)

    def add(self, a: tuple, b: tuple) -> tuple:
        """The compact marking of value(a) + value(b).

        Equal keys carry upward first, lowest first, as reduce_sum does with
        integer keys: a carry out of key k lands on successor(k), which is
        never above the next key still to be swept, since values are
        distinct powers of two.  make_compact then sees distinct keys only.
        """
        counts = dict(a)
        for k, s in b:
            counts[k] = counts.get(k, 0) + s
        stack = sorted(counts, key=self.rank.__getitem__, reverse=True)
        digits = []
        while stack:
            k = stack.pop()
            t = counts.pop(k)
            r = t % 2
            if r and t < 0:
                r = -1
            if r:
                digits.append((k, r))
            carry = (t - r) // 2
            if carry:
                up = self.successor(k)
                if up in counts:
                    counts[up] += carry
                else:
                    counts[up] = carry
                    stack.append(up)
        digits.reverse()
        return make_compact(SignedSum(digits), self).digits

    def shift(self, a: tuple, e: tuple):
        """The compact marking of value(a) * 2^value(e), or None when a
        summand's exponent turns negative.

        Adding one exponent to every summand keeps their order and their
        doubling relations, so the result is compact as it stands.
        """
        out = []
        for u, s in a:
            ds = self.add(self.sums[u].digits, e)
            if ds and ds[0][1] < 0:
                return None
            out.append((self.vertex(ds), s))
        return tuple(out)

    def circuit(self, marking: tuple) -> PowerCircuit:
        """The normal circuit for marking: the subgraph it reaches, with the
        pool's ids and the restriction of the pool's certificate.  Its sums
        and marks are compact and it holds nothing the marking does not
        reach, so it is already the trimmed normal form."""
        if not marking:
            return circ.zero_circuit()
        succ = self.succ
        reach = self.reach([marking])
        w = PowerCircuit()
        w._marks = dict(marking)
        w._succ = {v: dict(succ[v]) for v in reach}
        w._pred = pred = {v: set() for v in reach}
        for v in reach:
            for t in succ[v]:
                pred[t].add(v)
        w._next_id = self.next_id
        return w.freeze(CircuitKind.NORMAL, _restrict(self.order, self.twice, reach))

    def reach(self, markings) -> set:
        """The vertices that the markings reach, their own included."""
        succ = self.succ
        seen = {v for m in markings for v, _ in m}
        stack = list(seen)
        while stack:
            for t in succ[stack.pop()]:
                if t not in seen:
                    seen.add(t)
                    stack.append(t)
        return seen

    def keep(self, markings):
        """Drop every vertex, the zero aside, that none of the markings
        reach.  What stays keeps its digits, so the certificate restricted
        to it still holds, and every marking given stays valid."""
        alive = self.reach(markings) | {self.zero}
        succ = self.succ
        for v in [v for v in self.order if v not in alive]:
            del succ[v]
            del self.vertex_of[self.sums.pop(v).digits]
            del self.rank[v]
        self.order = [v for v in self.order if v in alive]
        self.twice = {a: b for a, b in self.twice.items() if a in alive and b in alive}
        self.exp_of = {v: e for v, e in self.exp_of.items() if v in alive}
        self.powers = {e: v for v, e in self.exp_of.items()}
        self.exps = [e for e in self.exps if e in self.powers]

    def take(self, c: PowerCircuit):
        """The compact marking of constant circuit c, or IMPROPER.

        c's vertices that the marks reach come in children first, in
        geometric order, each mapped to the pool vertex of its value; a leaf
        is worth 0 and maps to no digit.  Any other vertex is trimmed from a
        copy first and never looked at, as in reduce.  Two children may share
        an image, so a vertex's mapped digits, and then the marks, go
        through add, which carries equal keys into doubling vertices the
        pool adds where missing; a negative leading digit makes c improper,
        as in the sweep.  Each distinct list of mapped digits is made
        compact once, so twins in c share one compaction, and a twin of a
        vertex already in is one index lookup.  A certified circuit comes in
        the same way as any other.
        """
        if not c.is_constant():
            raise VariableCircuitError("normalize needs a constant circuit")
        if len(circ.reachable_from_marks(c)) < c.n_vertices():
            c = c.copy()
            circ.trim_inplace(c)
        seen = {}  # sorted mapped digits -> their compact form

        def compact(ds):
            key = tuple(sorted(ds))
            out = seen.get(key)
            if out is None:
                out = seen[key] = self.add((), ds)
            return out

        succ = c._succ
        m = {}
        for v in circ.geometric_order(c):
            if not succ[v]:
                m[v] = None
                continue
            ds = compact([(m[t], s) for t, s in succ[v].items() if m[t] is not None])
            if ds and ds[0][1] < 0:
                return IMPROPER
            m[v] = self.vertex(ds)
        return compact([(m[v], s) for v, s in c._marks.items() if m[v] is not None])


def _lex_sign(a: tuple, b: tuple, rank) -> int:
    """The sign of value(a) - value(b) for compact digit tuples a and b
    whose keys rank orders.

    A compact sum whose leading digit is +-W lies strictly between +-2W/3
    and +-4W/3, since the digits below add up to less than W/3 either way.
    So a tail led by a higher key outweighs any tail led by a lower one,
    and two sums differ as their first differing digits do: the higher
    key's sign decides, or on one key the + side is larger, or when one
    sum runs out the other's next sign does.
    """
    for (ka, ca), (kb, cb) in zip(a, b):
        if ka != kb:
            return ca if rank[ka] > rank[kb] else -cb
        if ca != cb:
            return ca
    n, m = len(a), len(b)
    return a[m][1] if n > m else -b[n][1] if m > n else 0


def _pairs(order, doubles) -> dict:
    """{a: b} for each pair of neighbours a, b in order whose doubling bit
    is set: b is worth exactly twice a."""
    return {a: b for a, b, d in zip(order, order[1:], doubles) if d}


def _restrict(order, twice, alive) -> Certificate:
    """The certificate of order's vertices that are in alive, where twice
    maps a vertex to the one worth twice its value.

    Survivors that were neighbours keep their doubling bit.  Any other pair
    had a power of two strictly between them, so it is at least a factor 4
    apart, is not in twice, and gets False.
    """
    kept = tuple(v for v in order if v in alive)
    return Certificate(kept, tuple(twice.get(a) == b for a, b in zip(kept, kept[1:])))


def _trivial_result(w: PowerCircuit) -> PowerCircuit:
    circ.make_trivial_inplace(w)
    only = next(iter(w.vertices()))
    return w.freeze(CircuitKind.REDUCED, Certificate((only,), ()))


def _sweep(c: PowerCircuit, stats: ReduceStats | None):
    """Certify every vertex of a standardized copy of constant circuit c.

    Returns IMPROPER; the frozen trivial circuit when the value is 0; or
    the state whose order covers the copy, dead vertices included, neither
    trimmed nor frozen.  reduce trims and freezes it; sign only reads it.
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
    # the seed's own zero may have been merged into this one
    if c.seed is None:
        start = Certificate((zero,), ())
    else:
        seed = (zero,) + c.seed.order[1:]
        start = _restrict(seed, _pairs(seed, c.seed.doubles), w._succ)
    st = _State(w, start.order, start.doubles, stats)
    for v in start.order[1:]:
        st.index(v)
    for v in order0[1:]:
        if v in st.rank:
            continue
        r = st.process_vertex(v)
        if r is IMPROPER:
            return IMPROPER
        if r is _VALUE_IS_ZERO:
            return _trivial_result(w)
    return st


def reduce(c: PowerCircuit, stats: ReduceStats | None = None):
    """Equivalent circuit with pairwise distinct vertex values, certified.

    Returns IMPROPER when some vertex value is not a natural number.  Output
    has at most one vertex more than the standardized input.  A certified
    input leaves nothing to sweep and comes back as it is; a seeded one has
    only the vertices outside its seed swept.
    """
    if c.certificate is not None and c.kind in (CircuitKind.REDUCED, CircuitKind.NORMAL):
        if not c.is_constant():
            raise VariableCircuitError("reduce needs a constant circuit")
        return c
    st = _sweep(c, stats)
    if isinstance(st, _State):
        return st.c.freeze(CircuitKind.REDUCED, st.trim())
    return st


def normalize(c: PowerCircuit, stats: ReduceStats | None = None):
    """The unique normal form: take c into a fresh Pool and read it back
    out, with no sweep; stats counts the take's compares.

    Every exponent sum and the mark sum are compact, and nothing is left
    that the marks do not reach.  At most twice the reduced size.  Returns
    IMPROPER for improper circuits; a normal input comes back as it is.
    """
    if c.kind is CircuitKind.NORMAL and c.certificate is not None and c.is_constant():
        return c
    pool = Pool(stats)
    m = pool.take(c)
    return m if m is IMPROPER else pool.circuit(m)


# -- queries ----------------------------------------------------------------


def sign(c: PowerCircuit, stats: ReduceStats | None = None):
    """-1, 0 or +1 without evaluating; IMPROPER for improper circuits.

    On a certified circuit this reads the top marked vertex off its
    certificate.  Otherwise it runs reduce's sweep and reads the top marked
    vertex off the sweep's certificate, without trimming or freezing the
    copy it then discards; stats counts the same work as reduce's would.
    """
    if c.certificate is not None and c.kind in (CircuitKind.REDUCED, CircuitKind.NORMAL):
        if circ.is_trivial(c):
            return 0
        order, marks = c.certificate.order, c.marks
    else:
        st = _sweep(c, stats)
        if not isinstance(st, _State):
            return IMPROPER if st is IMPROPER else 0
        order, marks = st.order, st.c.marks
    return next(marks[v] for v in reversed(order) if v in marks)


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
    st = _Order(c._succ, cert.order, cert.doubles)
    for v in cert.order[1:]:
        out = c.out_edges(v)
        if not out:
            raise CertificateError("extra leaf vertex")
        if zero in out and len(out) > 1:
            raise CertificateError("redundant zero edge")
        ds = st.sum_of(v).digits
        if ds and ds[0][1] < 0:
            raise CertificateError("improper vertex in certified circuit")
        for j in range(len(ds) - 1):
            if ds[j][1] == -ds[j + 1][1] and st.is_double(ds[j][0], ds[j + 1][0]):
                raise CertificateError("superfluous edge pair")
            if require_normal and st.is_double(ds[j][0], ds[j + 1][0]):
                raise CertificateError("exponent sum not compact")
    for i in range(1, len(cert.order) - 1):
        a, b = cert.order[i], cert.order[i + 1]
        r, _ = compare_counted(st.sum_of(b), st.sum_of(a), st)
        if r <= 0:
            raise CertificateError("certificate order is not increasing")
        if (r == 1) != st.is_double(b, a):
            raise CertificateError("doubling bit disagrees with values")
    if require_normal:
        mds = sorted(c.marks.items(), key=lambda m: st.rank[m[0]], reverse=True)
        for j in range(len(mds) - 1):
            if st.is_double(mds[j][0], mds[j + 1][0]):
                raise CertificateError("mark sum not compact")
