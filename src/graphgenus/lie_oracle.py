"""Weight systems of the built-in Lie algebras: sl2, gl(N) and abelian(d).

A Lie algebra with an invariant nondegenerate symmetric form evaluates a
trivalent graph: put the lowered structure tensor at each vertex in its
cyclic order, the inverse form on each edge, and contract.  Antisymmetry
and invariance respect the AS law, and the Jacobi identity makes the
value vanish on every IHX relation.

Every built-in algebra's weight is the gl(N) ribbon polynomial
``gl_polynomial`` evaluated at its rank N: gl(N) itself; sl2, which
equals gl2 on every graph with vertices (the centre of gl2 drops out of
the structure tensor); and abelian(d), whose weight is gl(1)'s, 0 on
every graph with vertices and 1 on the empty graph.  The tensor
contraction that pins the polynomial lives in the tests as its referee.
"""
from __future__ import annotations

from fractions import Fraction
from functools import cache
from typing import Union

from .graph_core import Graph, OrientedGraph, to_cyclic
from .graph_algebra import GraphVector


class OracleError(ValueError):
    pass


class UnknownName(OracleError):
    pass


class NotTrivalent(OracleError):
    pass


class WeightTooLarge(OracleError):
    """A weight too long to print under Python's int-to-str digit limit."""


def builtin(name: str) -> int:
    """The rank N whose gl(N) polynomial is the named algebra's weight:
    sl2 -> 2, gl(N) -> N, abelian(d) -> 1.  Accepts gl2 / gl(2)
    spellings, in any decimal digits."""
    flat = name.strip().lower().replace(" ", "")
    if flat in ("sl2", "sl(2)"):
        return 2
    for prefix in ("abelian", "gl"):
        if flat.startswith(prefix):
            tail = flat[len(prefix):]
            if tail.startswith("(") and tail.endswith(")"):
                tail = tail[1:-1]
            if not tail.isdecimal():
                break
            try:
                n = int(tail)
            except ValueError:  # more digits than int() converts
                break
            if n >= 1:
                return 1 if prefix == "abelian" else n
    raise UnknownName(f"no built-in algebra named {name!r}")


def weight(N: int, g: Union[Graph, OrientedGraph]) -> Fraction:
    """The gl(N) weight of g: its ribbon polynomial at N, times the
    orientation's sign."""
    if isinstance(g, OrientedGraph):
        if g.sign_state == 0:
            return Fraction(0)
        return g.sign_state * weight(N, g.graph)
    return Fraction(sum(c * N ** f for f, c in gl_polynomial(g).items()))


def weight_vector(N: int, v: GraphVector) -> Fraction:
    total = Fraction(0)
    for g, coeff in v.terms.items():
        total += coeff * weight(N, g)
    return total


@cache
def gl_polynomial(g: Graph) -> dict[int, int]:
    """The gl(N) weight of a trivalent presentation as {f: coefficient of
    N^f}, zero coefficients dropped.  Cached per presentation, like
    canonical_form: callers must not mutate the returned dict.

    With the trace form f_abc = tr(a[b,c]) = tr(abc) - tr(acb), so each
    vertex is the signed sum of its two cyclic orders and the weight is a
    signed sum, over rotation systems, of N^(boundary cycles) (Bar-Natan,
    "On the Vassiliev knot invariants", 1995, section 6).  Dart 2e + end
    is a flag; d ^ 1 is the other end of its edge, and a boundary cycle
    steps from d to rot[d ^ 1].  Reversing every vertex keeps the face
    count and, the vertex count being even, the sign: the last vertex
    keeps its cyclic order and every term counts twice.
    """
    if any(v != 3 for v in g.valences):
        raise NotTrivalent("weights are defined for purely trivalent graphs")
    if g.n == 0:
        return {0: 1}
    cyclic, sign = to_cyclic(g)
    darts = range(2 * len(g.edges))
    fwd, bwd, vertex_bit = [0] * len(darts), [0] * len(darts), [0] * len(darts)
    for v, flags in cyclic.items():
        ds = [2 * e + end for e, end in flags]
        for i in range(3):
            fwd[ds[i]], bwd[ds[i]], vertex_bit[ds[i]] = ds[i - 2], ds[i - 1], 1 << v
    poly: dict[int, int] = {}
    for mask in range(1 << (g.n - 1)):
        rot = [bwd[d] if mask & vertex_bit[d] else fwd[d] for d in darts]
        seen = bytearray(len(darts))
        faces = 0
        for start in darts:
            if not seen[start]:
                faces += 1
                d = start
                while not seen[d]:
                    seen[d] = 1
                    d = rot[d ^ 1]
        term = -2 * sign if mask.bit_count() % 2 else 2 * sign
        poly[faces] = poly.get(faces, 0) + term
    return {f: c for f, c in sorted(poly.items()) if c}
