"""Circuit families for tests, benchmarks and demos.

The random generator is biased toward proper, evaluable circuits (small
out-degree, mostly positive signs) so that bignum cross-checking stays
affordable; it still produces improper and zero-valued circuits regularly.
"""

from __future__ import annotations

import random

from . import arithmetic
from . import circuit as circ
from .circuit import CircuitKind, PowerCircuit


def random_circuit(rng: random.Random, n_vertices: int) -> PowerCircuit:
    """Random marked dag on n_vertices vertices, later vertices point back."""
    c = PowerCircuit()
    vs = [c.add_vertex()]
    for _ in range(1, n_vertices):
        v = c.add_vertex()
        deg = rng.choice([1, 1, 1, 2, 2, 3])
        for t in rng.sample(vs, min(deg, len(vs))):
            c.add_edge(v, t, 1 if rng.random() < 0.8 else -1)
        vs.append(v)
    for v in rng.sample(vs, rng.randint(1, max(1, n_vertices // 2))):
        c.set_mark(v, 1 if rng.random() < 0.7 else -1)
    return c


def tower_circuit(k: int) -> PowerCircuit:
    """Circuit for the height-k tower 2^2^...^2 (k twos) on k + 2 vertices.

    The same circuit as k exp2 steps from one_circuit(), built directly:
    vertex 0 is the zero, vertex i + 1 points at vertex i, and the top
    vertex carries the one mark.
    """
    if k < 0:
        raise ValueError("tower height must be nonnegative")
    if k == 0:
        return circ.one_circuit()
    c = PowerCircuit()
    for _ in range(k + 2):
        c.add_vertex()
    for v in range(1, k + 2):
        c.add_edge(v, v - 1, 1)
    c.set_mark(k + 1, 1)
    return c.freeze(CircuitKind.GENERAL)


def chain_circuit(n: int) -> PowerCircuit:
    """Path circuit on vertices 0..n denoting tower(n-1) + 1.

    Every edge sign and both marks (vertices 1 and n) are +1.  The running
    product chain_circuit(4) * ... * chain_circuit(n) needs at least 2^(n-3)
    marks in any equivalent circuit, which is the standard witness that
    multiplication can blow up.
    """
    if n < 1:
        raise ValueError("chain needs n >= 1")
    c = PowerCircuit()
    vs = [c.add_vertex() for _ in range(n + 1)]
    for i in range(1, n + 1):
        c.add_edge(vs[i], vs[i - 1], 1)
    c.set_mark(vs[1], 1)
    c.set_mark(vs[n], 1)
    return c.freeze(CircuitKind.GENERAL)


def blowup_product(n: int) -> PowerCircuit:
    """chain_circuit(4) * ... * chain_circuit(n), multiplied structurally."""
    if n < 4:
        raise ValueError("the product family starts at n = 4")
    p = chain_circuit(4)
    for i in range(5, n + 1):
        p = arithmetic.multiply(p, chain_circuit(i))
    return p
