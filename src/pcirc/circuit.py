"""Power circuits: dags whose vertices denote iterated powers of two.

A vertex v with outgoing edges e (each signed +1 or -1) denotes

    value(v) = 2 ** sum(sign(e) * value(target(e)))

and a leaf denotes 0.  A vertex carrying a variable label denotes
x * 2^(edge sum) instead (so a bare variable leaf denotes x); that one
extension is what lets terms like x * 2^y embed structurally.  The circuit
denotes the signed sum of its marked vertices.  Equal numbers can have wildly
different circuit representations; a tower 2^2^...^2 of height n fits in
n + 1 vertices, which is why none of the structural algorithms here ever
touch integer values.  Evaluation into Python ints exists as an oracle with
an explicit bit budget.

A certificate (value-sorted vertex order plus adjacent-doubling bits) is what
reduced and normal circuits carry so that later passes can compare vertex
values without evaluating them.
"""

from __future__ import annotations

import enum
import json
from dataclasses import dataclass

from .signed_binary import compact_of_integer
from . import terms


class CircuitError(Exception):
    """Base for all circuit-level errors."""


class CircuitInvariantError(CircuitError):
    """Structural invariant broken: cycle, bad edge, empty mark set..."""


class FrozenCircuitError(CircuitError):
    """Mutation attempted on a frozen circuit."""


class VariableCircuitError(CircuitError):
    """A constant-only operation was given a circuit with variable leaves."""


class CertificateError(CircuitError):
    """Missing or inconsistent reduction certificate."""


class _Marker:
    __slots__ = ("_name",)

    def __init__(self, name: str):
        self._name = name

    def __repr__(self) -> str:
        return self._name


#: evaluation hit a vertex whose value is not a natural number
IMPROPER = _Marker("Improper")
#: evaluation would have produced a number beyond the bit budget
BUDGET_EXCEEDED = _Marker("BudgetExceeded")


class CircuitKind(enum.Enum):
    GENERAL = "general"
    STANDARD = "standard"
    REDUCED = "reduced"
    NORMAL = "normal"


@dataclass(frozen=True)
class Certificate:
    """Vertices in strictly increasing value order; doubles[i] says whether
    value(order[i+1]) == 2 * value(order[i]).  order[0] is the zero vertex
    except in the one-vertex trivial circuit, where it is the marked zero."""

    order: tuple
    doubles: tuple

    def rank_map(self) -> dict:
        return {v: i for i, v in enumerate(self.order)}


class PowerCircuit:
    """Mutable until frozen; the public constructors return frozen circuits.

    Vertex ids are stable small ints.  Multiple edges between the same pair
    are rejected; acyclicity is checked by validate() and by every ordering
    pass rather than on each add_edge.
    """

    __slots__ = ("_succ", "_pred", "_marks", "_vars", "_next_id", "_frozen", "kind", "certificate",
                 "seed", "_order")

    def __init__(self):
        self._succ: dict = {}
        self._pred: dict = {}
        self._marks: dict = {}
        self._vars: dict = {}
        self._next_id = 0
        self._frozen = False
        self.kind = CircuitKind.GENERAL
        self.certificate = None
        # certificate of a certified operand that arithmetic appended
        # unchanged, in this circuit's ids; reduce starts its sweep from it.
        # Its order[0] is that operand's zero, which reduce replaces with
        # the one zero standardizing keeps.
        self.seed = None
        # geometric_order of a frozen circuit that from_json_dict ordered
        # while validating it; a copy starts without it
        self._order = None

    # -- basic structure ---------------------------------------------------

    def _check_mutable(self):
        if self._frozen:
            raise FrozenCircuitError("circuit is frozen; copy() it first")

    def add_vertex(self, var: str | None = None) -> int:
        self._check_mutable()
        v = self._next_id
        self._next_id += 1
        self._succ[v] = {}
        self._pred[v] = set()
        if var is not None:
            self._vars[v] = var
        return v

    def add_edge(self, origin: int, target: int, sign: int):
        self._check_mutable()
        if sign not in (1, -1):
            raise CircuitInvariantError(f"edge sign must be +1 or -1, got {sign!r}")
        if origin == target:
            raise CircuitInvariantError("self loops are not allowed")
        if target in self._succ[origin]:
            raise CircuitInvariantError(f"duplicate edge {origin}->{target}")
        self._succ[origin][target] = sign
        self._pred[target].add(origin)

    def remove_edge(self, origin: int, target: int):
        self._check_mutable()
        del self._succ[origin][target]
        self._pred[target].discard(origin)

    def remove_vertex(self, v: int):
        self._check_mutable()
        for t in list(self._succ[v]):
            self._pred[t].discard(v)
        for u in list(self._pred[v]):
            self._succ[u].pop(v, None)
        del self._succ[v]
        del self._pred[v]
        self._marks.pop(v, None)
        self._vars.pop(v, None)

    def set_mark(self, v: int, sign: int):
        self._check_mutable()
        if sign not in (1, -1):
            raise CircuitInvariantError(f"mark sign must be +1 or -1, got {sign!r}")
        self._marks[v] = sign

    def unmark(self, v: int):
        self._check_mutable()
        self._marks.pop(v, None)

    # -- views -------------------------------------------------------------

    def vertices(self):
        return self._succ.keys()

    def __contains__(self, v: int) -> bool:
        return v in self._succ

    def out_edges(self, v: int) -> dict:
        """Live target->sign mapping; treat as read-only."""
        return self._succ[v]

    def in_vertices(self, v: int) -> set:
        return self._pred[v]

    @property
    def marks(self) -> dict:
        return self._marks

    def n_vertices(self) -> int:
        return len(self._succ)

    def n_edges(self) -> int:
        return sum(len(out) for out in self._succ.values())

    def size(self) -> int:
        return self.n_vertices() + self.n_edges()

    def var_of(self, v: int):
        return self._vars.get(v)

    def is_zero_leaf(self, v: int) -> bool:
        return not self._succ[v] and v not in self._vars

    def is_constant(self) -> bool:
        return not self._vars

    def zero_vertices(self) -> list:
        return [v for v in self._succ if not self._succ[v] and v not in self._vars]

    # -- lifecycle ---------------------------------------------------------

    def copy(self) -> "PowerCircuit":
        """Mutable general-kind copy without a certificate or seed.

        A copy can be edited, so it cannot keep a promise about the graph;
        freeze() re-attaches a certificate only when the caller passes one.
        """
        c = PowerCircuit()
        c._succ = {v: dict(out) for v, out in self._succ.items()}
        c._pred = {v: set(p) for v, p in self._pred.items()}
        c._marks = dict(self._marks)
        c._vars = dict(self._vars)
        c._next_id = self._next_id
        return c

    def freeze(self, kind: CircuitKind = None, certificate: Certificate = None) -> "PowerCircuit":
        if kind is not None:
            self.kind = kind
        if certificate is not None:
            self.certificate = certificate
        self._frozen = True
        return self

    def validate(self):
        """Check the representation invariants, raising on violation."""
        self._checked_order()
        return self

    def _checked_order(self) -> list:
        """validate()'s checks; the geometric order they compute."""
        for v, out in self._succ.items():
            for t, s in out.items():
                if t not in self._succ:
                    raise CircuitInvariantError(f"edge {v}->{t} into missing vertex")
                if s not in (1, -1):
                    raise CircuitInvariantError("bad edge sign")
        if not self._marks:
            raise CircuitInvariantError("mark set must not be empty")
        for v in self._marks:
            if v not in self._succ:
                raise CircuitInvariantError("mark on missing vertex")
        return geometric_order(self)  # raises on cycles


# -- ordering and evaluation ----------------------------------------------


def geometric_order(c: PowerCircuit) -> list:
    """Vertices listed so every edge points to an earlier position.

    Deterministic: among ready vertices the smallest id goes first.  Raises
    CircuitInvariantError when the graph has a cycle.  A circuit loaded by
    from_json_dict was ordered while it was validated, and it is frozen, so
    its order is read back rather than computed again.
    """
    import heapq

    if c._order is not None and c._frozen:
        return list(c._order)
    remaining = {v: len(out) for v, out in c._succ.items()}
    ready = [v for v, n in remaining.items() if n == 0]
    heapq.heapify(ready)
    order = []
    while ready:
        v = heapq.heappop(ready)
        order.append(v)
        for u in c._pred[v]:
            remaining[u] -= 1
            if remaining[u] == 0:
                heapq.heappush(ready, u)
    if len(order) != len(c._succ):
        raise CircuitInvariantError("cycle detected")
    return order


def reachable_from_marks(c: PowerCircuit) -> set:
    seen = set(c._marks)
    stack = list(seen)
    while stack:
        for t in c._succ[stack.pop()]:
            if t not in seen:
                seen.add(t)
                stack.append(t)
    return seen


def eval_bignum(c: PowerCircuit, bit_budget: int = 1 << 20, env: dict | None = None):
    """Evaluate the circuit into a Python int.

    Only the part reachable from the marks matters.  Returns IMPROPER when a
    reachable vertex has a negative exponent sum (its value would not be a
    natural number) and BUDGET_EXCEEDED when a value would outgrow the bit
    budget.  Variable vertices take their multiplier from env; a reachable
    variable without a binding raises.
    """
    if not c._marks:
        raise CircuitInvariantError("mark set must not be empty")
    reach = reachable_from_marks(c)
    remaining = {v: len(c._succ[v]) for v in reach}
    stack = [v for v in reach if remaining[v] == 0]
    val = {}
    done = []
    while stack:
        v = stack.pop()
        done.append(v)
        mult = None
        if v in c._vars:
            name = c._vars[v]
            if env is None or name not in env:
                raise VariableCircuitError(f"no binding for variable {name!r}")
            mult = env[name]
        if not c._succ[v]:
            val[v] = 0 if mult is None else mult
        else:
            p = 0
            for t, s in c._succ[v].items():
                p += s * val[t]
            if p > bit_budget:
                return BUDGET_EXCEEDED
            if p >= 0:
                val[v] = (1 if mult is None else mult) << p
            elif mult == 0:
                val[v] = 0
            elif mult is not None and (mult & -mult).bit_length() > -p:
                val[v] = mult >> -p
            else:
                return IMPROPER
        for u in c._pred[v]:
            if u in reach:
                remaining[u] -= 1
                if remaining[u] == 0:
                    stack.append(u)
    if len(done) != len(reach):
        raise CircuitInvariantError("cycle detected")
    return sum(s * val[v] for v, s in c._marks.items())


# -- structural passes -----------------------------------------------------


def trim_inplace(c: PowerCircuit):
    """Drop every vertex not reachable from a marked vertex."""
    keep = reachable_from_marks(c)
    for v in [v for v in c._succ if v not in keep]:
        c.remove_vertex(v)


def make_trivial_inplace(c: PowerCircuit):
    """Rebuild as the one-vertex circuit for 0."""
    for v in list(c._succ):
        c.remove_vertex(v)
    v = c.add_vertex()
    c.set_mark(v, 1)


def is_trivial(c: PowerCircuit) -> bool:
    if c.n_vertices() != 1:
        return False
    v = next(iter(c._succ))
    return c.is_zero_leaf(v) and v in c._marks


def fold_zero_leaves_inplace(c: PowerCircuit):
    """Merge unmarked zero leaves into one; duplicate parent edges drop.

    Value preserving: an edge into a zero leaf contributes nothing either
    way.  Marked zero leaves are summands in their own right and stay.
    """
    zeros = sorted(v for v in c.zero_vertices() if v not in c._marks)
    for z in zeros[1:]:
        keep = zeros[0]
        for u in list(c._pred[z]):
            s = c._succ[u].pop(z)
            c._pred[z].discard(u)
            if keep not in c._succ[u]:
                c._succ[u][keep] = s
                c._pred[keep].add(u)
        c.remove_vertex(z)
    return c


def standardize_inplace(c: PowerCircuit):
    """Single unmarked zero, no redundant zero edges, trimmed.

    Value preserving.  If every marked vertex is a zero leaf the whole
    circuit denotes 0 and collapses to the trivial circuit (which counts as
    standard).  Never increases vertex or edge counts.
    """
    if not c._marks:
        raise CircuitInvariantError("mark set must not be empty")
    if all(c.is_zero_leaf(v) for v in c._marks):
        make_trivial_inplace(c)
        return c
    for v in [v for v in c._marks if c.is_zero_leaf(v)]:
        c.unmark(v)
    fold_zero_leaves_inplace(c)
    zeros = c.zero_vertices()
    if zeros:
        keep = zeros[0]
        for u in list(c._pred[keep]):
            if len(c._succ[u]) > 1:
                c.remove_edge(u, keep)
            else:
                # 2^(-0) == 2^(+0): the sign carries nothing, fix it at +1
                c._succ[u][keep] = 1
    trim_inplace(c)
    return c


def _is_standard(c: PowerCircuit) -> bool:
    """Whether standardize_inplace would leave c as it is, up to the ids of
    the trivial circuit."""
    if is_trivial(c):
        return True
    zeros = c.zero_vertices()
    return (len(zeros) <= 1 and not any(z in c._marks for z in zeros)
            and all(c._succ[u] == {z: 1} for z in zeros for u in c._pred[z])
            and len(reachable_from_marks(c)) == len(c._succ))


def standardize(c: PowerCircuit) -> PowerCircuit:
    w = c.copy()
    standardize_inplace(w)
    return w.freeze(CircuitKind.STANDARD)


def marked_to_sources_inplace(c: PowerCircuit):
    """Move each mark on a vertex with predecessors onto a fresh clone."""
    for v in [v for v in list(c._marks) if c._pred[v]]:
        clone = c.add_vertex(var=c._vars.get(v))
        for t, s in list(c._succ[v].items()):
            c.add_edge(clone, t, s)
        c.set_mark(clone, c._marks[v])
        c.unmark(v)
    return c


def marked_to_sources(c: PowerCircuit) -> PowerCircuit:
    w = c.copy()
    marked_to_sources_inplace(w)
    return w.freeze(CircuitKind.GENERAL)


# -- constructors ----------------------------------------------------------


def zero_circuit() -> PowerCircuit:
    c = PowerCircuit()
    v = c.add_vertex()
    c.set_mark(v, 1)
    return c.freeze(CircuitKind.NORMAL, Certificate((v,), ()))


def one_circuit() -> PowerCircuit:
    return from_integer(1)


def var_circuit(name: str) -> PowerCircuit:
    c = PowerCircuit()
    v = c.add_vertex(var=name)
    c.set_mark(v, 1)
    return c.freeze(CircuitKind.GENERAL)


def from_integer(n: int) -> PowerCircuit:
    """Normal-form circuit for n with at most ceil(log2 |n|) + 2 vertices.

    One vertex 2^e for each exponent e in the compact form of |n| and,
    transitively, in the compact forms of those exponents; each power
    vertex's own exponent is wired as its compact form.
    """
    c = PowerCircuit()
    if n == 0:
        v = c.add_vertex()
        c.set_mark(v, 1)
        return c.freeze(CircuitKind.NORMAL, Certificate((v,), ()))
    sign = 1 if n > 0 else -1
    comp = compact_of_integer(abs(n))
    exps = {}
    todo = list(comp.exponents())
    while todo:
        e = todo.pop()
        if e not in exps:
            exps[e] = compact_of_integer(e)
            todo.extend(exps[e].exponents())
    kept = sorted(exps)
    # the tables are filled directly, in the order add_vertex and add_edge
    # would: vertex 0 is the zero, then one vertex per exponent, ascending;
    # every exponent's compact form is over kept exponents, so no check fails
    z = 0
    power = dict(zip(kept, range(1, len(kept) + 1)))
    c._next_id = len(kept) + 1
    succ = c._succ = {v: {} for v in range(c._next_id)}
    pred = c._pred = {v: set() for v in range(c._next_id)}
    succ[power[0]][z] = 1
    pred[z].add(power[0])
    for e in kept:
        pe = power[e]
        for q, ec in exps[e]:
            succ[pe][power[q]] = ec
            pred[power[q]].add(pe)
    for q, ec in comp:
        c.set_mark(power[q], sign * ec)
    order = (z,) + tuple(power[e] for e in kept)
    doubles = (False,) + tuple(kept[i + 1] == kept[i] + 1 for i in range(len(kept) - 1))
    return c.freeze(CircuitKind.NORMAL, Certificate(order, doubles))


# -- terms ------------------------------------------------------------------


def term_of(c: PowerCircuit) -> terms.Term:
    """Syntax tree the circuit denotes, children in vertex-id order.

    Vertex terms are built children first, in geometric order, so a deep
    circuit needs no interpreter frame per level; a shared vertex's term is
    one object, used by each parent.
    """
    memo = {}
    for v in geometric_order(c):
        base = terms.Var(c._vars[v]) if v in c._vars else None
        if not c._succ[v]:
            memo[v] = base if base is not None else terms.Const(0)
        else:
            exp = _signed_fold(c._succ[v], memo.__getitem__)
            memo[v] = terms.MulPow2(base if base is not None else terms.Const(1), exp)
    return _signed_fold(c._marks, memo.__getitem__)


def _signed_fold(signed: dict, build) -> terms.Term:
    acc = None
    for v in sorted(signed):
        t = build(v)
        s = signed[v]
        if acc is None:
            acc = t if s > 0 else terms.Sub(terms.Const(0), t)
        else:
            acc = terms.Add(acc, t) if s > 0 else terms.Sub(acc, t)
    return acc if acc is not None else terms.Const(0)


# -- serialization ----------------------------------------------------------


def to_json_dict(c: PowerCircuit) -> dict:
    vertices = []
    for v in sorted(c._succ):
        if v in c._vars:
            label = {"var": c._vars[v]}
        elif not c._succ[v]:
            label = "zero"
        else:
            label = None
        vertices.append({"id": v, "label": label})
    edges = [
        {"from": v, "to": t, "sign": s}
        for v in sorted(c._succ)
        for t, s in sorted(c._succ[v].items())
    ]
    marks = [{"vertex": v, "sign": s} for v, s in sorted(c._marks.items())]
    doc = {"kind": c.kind.value, "vertices": vertices, "edges": edges, "marks": marks}
    if c.certificate is not None:
        doc["certificate"] = {
            "order": list(c.certificate.order),
            "doubles": "".join("1" if b else "0" for b in c.certificate.doubles),
        }
    return doc


def to_json(c: PowerCircuit) -> str:
    return json.dumps(to_json_dict(c), indent=2, sort_keys=False) + "\n"


def from_json_dict(doc: dict) -> PowerCircuit:
    c = PowerCircuit()
    try:
        ids = [int(v["id"]) for v in doc["vertices"]]
        if len(set(ids)) != len(ids):
            raise CircuitInvariantError("duplicate vertex ids")
        labels = {}
        for entry in doc["vertices"]:
            v = int(entry["id"])
            label = entry.get("label")
            c._succ[v] = {}
            c._pred[v] = set()
            labels[v] = label
            if isinstance(label, dict) and "var" in label:
                c._vars[v] = str(label["var"])
        c._next_id = max(ids, default=-1) + 1
        # the tables are filled directly, with add_edge's checks; an
        # endpoint that is not a vertex raises KeyError, as in add_edge
        succ, pred = c._succ, c._pred
        for e in doc.get("edges", ()):
            v, t, s = int(e["from"]), int(e["to"]), int(e["sign"])
            out, into = succ[v], pred[t]
            if s != 1 and s != -1:
                raise CircuitInvariantError(f"edge sign must be +1 or -1, got {s!r}")
            if v == t:
                raise CircuitInvariantError("self loops are not allowed")
            if t in out:
                raise CircuitInvariantError(f"duplicate edge {v}->{t}")
            out[t] = s
            into.add(v)
        for m in doc.get("marks", ()):
            c.set_mark(int(m["vertex"]), int(m["sign"]))
        for v, label in labels.items():
            if label == "zero" and c._succ[v]:
                raise CircuitInvariantError(f"zero vertex {v} has edges")
            if label is None and not c._succ[v]:
                raise CircuitInvariantError(f"leaf vertex {v} needs a label")
        # every return below freezes c, so the order cannot go stale
        c._order = tuple(c._checked_order())
        kind = CircuitKind(doc.get("kind", CircuitKind.GENERAL.value))
        cert_doc = doc.get("certificate")
        if (cert_doc is None) == (kind in (CircuitKind.REDUCED, CircuitKind.NORMAL)):
            raise CertificateError("reduced and normal circuits carry a certificate, "
                                   "standard and general ones do not")
        if kind is CircuitKind.STANDARD:
            if not _is_standard(c):
                raise CircuitInvariantError("circuit claims to be standard but is not")
            return c.freeze(kind)
        if cert_doc is None:
            return c.freeze()
        order = tuple(int(v) for v in cert_doc["order"])
        doubles = tuple(ch == "1" for ch in cert_doc["doubles"])
    except (KeyError, TypeError, ValueError, OverflowError) as exc:
        raise CircuitInvariantError(
            f"malformed circuit document: {type(exc).__name__}: {exc}") from exc
    if sorted(order) != sorted(ids) or len(doubles) != max(len(order) - 1, 0):
        raise CertificateError("certificate does not cover the vertex set")
    c.certificate = Certificate(order, doubles)
    # a certified claim is re-checked, not trusted
    from . import reduction

    reduction.verify_certificate(c, require_normal=kind is CircuitKind.NORMAL)
    return c.freeze(kind, c.certificate)


def from_json(text: str) -> PowerCircuit:
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise CircuitInvariantError(f"invalid JSON: {exc}") from exc
    except RecursionError:
        raise CircuitInvariantError("invalid JSON: nested too deeply") from None
    return from_json_dict(doc)


def to_dot(c: PowerCircuit) -> str:
    """Graphviz rendering: marked vertices black (labelled with the mark
    sign), unmarked white, edge signs as labels."""
    lines = ["digraph powercircuit {", "  node [shape=circle];"]
    for v in sorted(c._succ):
        if v in c._vars:
            base = c._vars[v]
        elif not c._succ[v]:
            base = "0"
        else:
            base = f"v{v}"
        if v in c._marks:
            sign = "+" if c._marks[v] > 0 else "-"
            lines.append(
                f'  v{v} [label="{base} ({sign})", style=filled, '
                f"fillcolor=black, fontcolor=white];"
            )
        else:
            lines.append(f'  v{v} [label="{base}"];')
    for v in sorted(c._succ):
        for t, s in sorted(c._succ[v].items()):
            lines.append(f'  v{v} -> v{t} [label="{"+" if s > 0 else "-"}"];')
    lines.append("}")
    return "\n".join(lines) + "\n"


# -- canonical serialization ------------------------------------------------


def _uleb(n: int, out: bytearray):
    while True:
        b = n & 0x7F
        n >>= 7
        if n:
            out.append(b | 0x80)
        else:
            out.append(b)
            return


def canonical_bytes(c: PowerCircuit) -> bytes:
    """Canonical encoding of a normal-form circuit.

    Vertices are listed in certificate (value) order, each as its out-edge
    list sorted by target position plus its mark sign.  Normal circuits are
    equivalent iff their encodings are equal.
    """
    if c.kind is not CircuitKind.NORMAL or c.certificate is None:
        raise CertificateError("canonical_bytes needs a normal circuit with certificate")
    rank = c.certificate.rank_map()
    out = bytearray([1])
    _uleb(len(rank), out)
    for v in c.certificate.order:
        edges = sorted((rank[t], s) for t, s in c._succ[v].items())
        _uleb(len(edges), out)
        for pos, s in edges:
            _uleb(pos, out)
            out.append(1 if s > 0 else 2)
        m = c._marks.get(v)
        out.append(0 if m is None else (1 if m > 0 else 2))
    return bytes(out)


def isomorphic(a: PowerCircuit, b: PowerCircuit) -> bool:
    """Equality of normal forms, decided purely on canonical bytes."""
    return canonical_bytes(a) == canonical_bytes(b)
