"""Arithmetic on power circuits by graph surgery, never by evaluation.

Each operation assembles its result from disjoint copies of the operands,
so output sizes follow from input sizes: add and subtract concatenate, exp2
adds a single apex vertex, the shifts add edges and merge the operands'
zero leaves, and multiply splices the marked vertices of both sides
pairwise.  Nothing here reduces the result; callers that want canonical
circuits reduce afterwards.

The ring operations and the shifts leave reduce a head start: their result
carries as its seed the certificate of the largest non-trivial certified
operand they append unchanged, renumbered into the result.  That operand's
vertices keep their out-edges, since edges are only added out of the other
operand's vertices, so reduce certifies them without a compare and sweeps
only the rest.  A shift's seed comes from its exponent b, never from the
rewired marks of a.  copy() drops the seed, and JSON never carries it.

The one exception is div_pow2: deciding whether a quotient exists at all
takes a reduction, so its exact mode returns IMPROPER for non-divisible
input, and its drop mode first discards every marked summand smaller than
the divisor (7 >> 1 keeps 8/2 and drops -1/2, giving 4, not floor(7/2)).
"""

from __future__ import annotations

import bisect
import enum

from . import circuit as circ
from .circuit import (
    IMPROPER,
    Certificate,
    CircuitKind,
    PowerCircuit,
    VariableCircuitError,
)


def _append(dst: PowerCircuit, src: PowerCircuit) -> dict:
    """Copy src's graph (not its marks) into dst; old id -> new id.

    Fills dst's tables directly, in the order add_vertex and add_edge
    would.  The per-edge checks cannot fail: src is a circuit, so its edge
    signs are +-1 and it has no loops or duplicate edges, and the map is
    injective into fresh ids.
    """
    dst._check_mutable()
    base = dst._next_id
    order = sorted(src._succ)
    m = dict(zip(order, range(base, base + len(order))))
    dst._next_id = base + len(order)
    succ, pred = dst._succ, dst._pred
    for w in m.values():
        succ[w] = {}
        pred[w] = set()
    for v, out in src._succ.items():
        mv = m[v]
        d = succ[mv]
        for t, s in out.items():
            mt = m[t]
            d[mt] = s
            pred[mt].add(mv)
    if src._vars:
        dst._vars.update((m[v], src._vars[v]) for v in order if v in src._vars)
    return m


def _seed(appended) -> Certificate | None:
    """Certificate of the largest non-trivial certified circuit among the
    (circuit, id map) pairs, renumbered through its map; None if none."""
    best = None
    for c, m in appended:
        if (c.certificate is not None and c.kind in (CircuitKind.REDUCED, CircuitKind.NORMAL)
                and not circ.is_trivial(c)
                and (best is None or c.n_vertices() > best[0].n_vertices())):
            best = c, m
    if best is None:
        return None
    cert = best[0].certificate
    return Certificate(tuple(best[1][v] for v in cert.order), cert.doubles)


def _signed_union(*parts) -> PowerCircuit:
    """Disjoint union of (circuit, sign) parts, each part's marks times its
    sign; sizes add exactly."""
    w = PowerCircuit()
    appended = []
    for c, sign in parts:
        m = _append(w, c)
        for v, s in c._marks.items():
            w.set_mark(m[v], sign * s)
        appended.append((c, m))
    w.seed = _seed(appended)
    return w.freeze(CircuitKind.GENERAL)


def add(a: PowerCircuit, b: PowerCircuit) -> PowerCircuit:
    """N(a) + N(b) as the disjoint union; sizes add exactly."""
    return _signed_union((a, 1), (b, 1))


def negate(a: PowerCircuit) -> PowerCircuit:
    """-N(a): same graph, every mark sign flipped."""
    return _signed_union((a, -1))


def subtract(a: PowerCircuit, b: PowerCircuit) -> PowerCircuit:
    """N(a) - N(b): disjoint union with b's marks flipped."""
    return _signed_union((a, 1), (b, -1))


def exp2(a: PowerCircuit) -> PowerCircuit:
    """2^N(a): one apex vertex whose edges mirror a's marks.

    Improper (and detected as such on reduction) when N(a) < 0.
    """
    w = PowerCircuit()
    m = _append(w, a)
    t = w.add_vertex()
    for v, s in a._marks.items():
        w.add_edge(t, m[v], s)
    w.set_mark(t, 1)
    return w.freeze(CircuitKind.GENERAL)


def _shift(a: PowerCircuit, b: PowerCircuit, sign: int) -> PowerCircuit:
    """N(a) * 2^(sign * N(b)): wire every marked summand of a into b's marks.

    Marks of a are made sources first so the added edges touch nothing
    else.  Marked zero leaves stay bare: 0 * 2^y is 0.  The operand zero
    leaves collapse into one.
    """
    a2 = circ.marked_to_sources(a)
    w = PowerCircuit()
    ma = _append(w, a2)
    mb = _append(w, b)
    for u in a2._marks:
        if a2.is_zero_leaf(u):
            continue
        for v, sv in b._marks.items():
            w.add_edge(ma[u], mb[v], sign * sv)
    for u, su in a2._marks.items():
        w.set_mark(ma[u], su)
    circ.fold_zero_leaves_inplace(w)
    w.seed = _seed([(b, mb)])
    return w.freeze(CircuitKind.GENERAL)


def mul_pow2(a: PowerCircuit, b: PowerCircuit) -> PowerCircuit:
    """N(a) * 2^N(b)."""
    return _shift(a, b, 1)


def div_pow2_raw(a: PowerCircuit, b: PowerCircuit) -> PowerCircuit:
    """N(a) * 2^(-N(b)) structurally, with no divisibility check.

    The result is improper whenever 2^N(b) does not divide a marked
    summand; use div_pow2 for checked division.
    """
    return _shift(a, b, -1)


def multiply(a: PowerCircuit, b: PowerCircuit) -> PowerCircuit:
    """N(a) * N(b): one vertex per pair of marked summands.

    After making marks sources, each pair (u, v) of marked vertices turns
    into one vertex carrying the union of their out-edges (value
    2^(p_u + p_v)) and the product mark.  Pairs with a zero-leaf component
    vanish; a product of two variable-labelled summands has no circuit
    shape and raises.
    """
    a2 = circ.marked_to_sources(a)
    b2 = circ.marked_to_sources(b)
    w = PowerCircuit()
    ma = _append(w, a2)
    mb = _append(w, b2)
    marked = False
    for u, su in a2._marks.items():
        if a2.is_zero_leaf(u):
            continue
        for v, sv in b2._marks.items():
            if b2.is_zero_leaf(v):
                continue
            xu, xv = a2._vars.get(u), b2._vars.get(v)
            if xu is not None and xv is not None:
                raise VariableCircuitError(
                    "product of two variable summands has no circuit form"
                )
            pair = w.add_vertex(var=xu if xu is not None else xv)
            for t, s in a2._succ[u].items():
                w.add_edge(pair, ma[t], s)
            for t, s in b2._succ[v].items():
                w.add_edge(pair, mb[t], s)
            w.set_mark(pair, su * sv)
            marked = True
    for u in a2._marks:
        w.remove_vertex(ma[u])
    for v in b2._marks:
        w.remove_vertex(mb[v])
    if not marked:
        return circ.zero_circuit()
    return w.freeze(CircuitKind.GENERAL)


class DivMode(enum.Enum):
    """How div_pow2 treats summands the divisor does not divide."""

    EXACT = "exact"
    DROP = "drop"


def div_pow2(a: PowerCircuit, b: PowerCircuit, mode: DivMode = DivMode.EXACT):
    """N(a) / 2^N(b) on constant circuits, reduced.

    EXACT returns IMPROPER unless 2^N(b) divides N(a).  DROP erases every
    marked summand of the reduced dividend that is smaller than the divisor
    and divides the rest, which is exact by construction.  Also IMPROPER
    when either operand is.
    """
    if not a.is_constant() or not b.is_constant():
        raise VariableCircuitError("div_pow2 needs constant circuits")
    from . import reduction

    ra = reduction.reduce(a)
    if ra is IMPROPER:
        return IMPROPER
    if mode is DivMode.EXACT:
        return reduction.reduce(div_pow2_raw(ra, b))
    rb = reduction.reduce(b)
    if rb is IMPROPER:
        return IMPROPER
    if circ.is_trivial(ra):
        return ra
    # summands grow with certificate rank, so the ones below the divisor
    # form a prefix of the marks in rank order
    rank = ra.certificate.rank_map()
    marks = sorted(ra._marks, key=rank.__getitem__)
    threshold = exp2(rb)

    def at_least_threshold(m) -> bool:
        single = ra.copy()
        for v in list(single._marks):
            single.unmark(v)
        single.set_mark(m, 1)
        return reduction.compare_circuits(single, threshold) >= 0

    # with N(b) < 0 the divisor is below 1, so no summand is dropped
    keep = 0
    if reduction.sign(rb) >= 0:
        keep = bisect.bisect_left(marks, True, key=at_least_threshold)
    if keep == len(marks):
        return circ.zero_circuit()
    pruned = ra.copy()
    for m in marks[:keep]:
        pruned.unmark(m)
    return reduction.reduce(div_pow2_raw(pruned, rb))
