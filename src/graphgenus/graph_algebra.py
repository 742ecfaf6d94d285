"""Rational linear combinations of oriented graphs modulo AS and IHX.

Vectors are stored on canonical basis graphs; inserting a presentation
runs it through canonical_form, which applies the antisymmetry law and
drops classes with an orientation-reversing automorphism.  The grading
of a purely trivalent graph is half its vertex count; the product is
disjoint union.

IHX relations are generated by contracting every edge of every
trivalent graph of a degree to a four-valent corner and expanding it in
the three pair-splittings of the four gathered flags, each taken in an
even ordering of the contraction's flag sequence.  That convention
makes the three-term sum vanish under every metric Lie algebra weight
system (the Jacobi identity), which the oracle tests pin down.
"""
from __future__ import annotations

import os
from fractions import Fraction
from functools import cache
from itertools import combinations_with_replacement
from types import MappingProxyType
from typing import Iterable

from .graph_core import (
    Graph, GraphParseError, OrientedGraph, _find, _incidence, _parse_error,
    _tokenize, canonical_form, concat, format_graph, from_cyclic,
    graph_sort_key, parse_graph_block, theta,
)
from .scalars import Combination, Echelon, Record, accumulate, parse_rational


class AlgebraError(ValueError):
    pass


class BoundExceeded(AlgebraError):
    pass


class DegreeMismatch(AlgebraError):
    pass


DEFAULT_MAX_K = 3
_ONE = Fraction(1)  # parse_vector's default coefficient


def degree_bound() -> int:
    """Configured half-vertex-count bound for exhaustive enumeration."""
    raw = os.environ.get("GRAPHGENUS_MAX_K")
    if raw is None:
        return DEFAULT_MAX_K
    try:
        return int(raw)
    except ValueError:
        raise BoundExceeded(f"GRAPHGENUS_MAX_K={raw!r} is not an integer") from None


def check_bound(k: int):
    bound = degree_bound()
    if k < 0:
        raise BoundExceeded(f"degree {k} is negative")
    if k > bound:
        raise BoundExceeded(f"degree {k} exceeds the configured bound {bound}")


class GraphVector(Combination):
    """Finite rational combination of canonical oriented graphs."""

    __slots__ = ()

    @staticmethod
    def zero() -> "GraphVector":
        return GraphVector()

    @staticmethod
    def unit() -> "GraphVector":
        """The empty graph with coefficient one."""
        return GraphVector.from_graph(Graph((), ()))

    @staticmethod
    def from_graph(g: Graph, coeff=1) -> "GraphVector":
        v = GraphVector()
        v.add_presentation(g, Fraction(coeff))
        return v

    def add_presentation(self, g: Graph, coeff: Fraction):
        """Insert a presentation; canonical_form supplies the sign."""
        if not coeff:
            return
        og = canonical_form(g)
        if og.sign_state:
            accumulate(self.terms, og.graph, coeff if og.sign_state > 0 else -coeff)

    def items(self) -> list[tuple[Graph, Fraction]]:
        return sorted(self.terms.items(), key=lambda kv: graph_sort_key(kv[0]))

    def coefficient(self, g: Graph) -> Fraction:
        og = canonical_form(g)
        if og.sign_state == 0:
            return Fraction(0)
        return og.sign_state * self.terms.get(og.graph, Fraction(0))

    def __repr__(self):
        if not self.terms:
            return "GraphVector(0)"
        bits = [f"{c}*[{g.valences}|{g.edges}]" for g, c in self.items()]
        return "GraphVector(" + " + ".join(bits) + ")"


def product(v1: GraphVector, v2: GraphVector) -> GraphVector:
    """Bilinear disjoint union."""
    out = GraphVector()
    for g1, c1 in v1.terms.items():
        for g2, c2 in v2.terms.items():
            out.add_presentation(concat(g1, g2), c1 * c2)
    return out


def power(v: GraphVector, m: int) -> GraphVector:
    out = GraphVector.unit()
    for _ in range(m):
        out = product(out, v)
    return out


def trivalent_part(v: GraphVector) -> GraphVector:
    return GraphVector({g: c for g, c in v.terms.items() if g.is_trivalent})


# ---------------------------------------------------------------------------
# enumeration


def enumerate_trivalent(k: int) -> list[OrientedGraph]:
    """All loop-free trivalent multigraphs on 2k vertices up to
    isomorphism, canonical presentations, AS-zero ones flagged by
    sign_state 0 (others +1), sorted by graph key."""
    check_bound(k)
    return sorted(_classes(k), key=lambda og: graph_sort_key(og.graph))


@cache
def _classes(k: int) -> frozenset[OrientedGraph]:
    """Canonical loop-free cubic multigraphs on 2k vertices, sign_state 0
    for a zero class and 1 otherwise, grown from degree k - 1: add a
    theta, or put new points on edges s <= t (both on one edge if s = t,
    doubling the new edge) and join them.

    Complete: with no theta component, some edge uv can be deleted, and
    u and v suppressed, leaving a loop-free cubic graph; insertion is the
    inverse.  In a simple graph any edge works; a double edge x=y with
    outer neighbours a != b loses one copy; if every double edge has
    a = b, a's third edge a-c works (x=y becomes a theta) unless c is on
    a double edge c=d, whose outer neighbours then differ (d's is not a).

    An automorphism of the smaller graph carries an insertion on s, t to
    an isomorphic one on their images, as does swapping parallel edges,
    so one pair s <= t per orbit suffices (McKay, "Isomorph-free
    exhaustive generation", 1998).
    """
    if k == 0:
        return frozenset({OrientedGraph(Graph((), ()), 1)})

    def canonical_class(h: Graph) -> OrientedGraph:
        og = canonical_form(h)
        return OrientedGraph(og.graph, 1 if og.sign_state else 0, og.automorphisms)

    found: set[OrientedGraph] = set()
    for c in _classes(k - 1):
        g = c.graph
        found.add(canonical_class(concat(g, theta())))
        pairs = list(combinations_with_replacement(range(len(g.edges)), 2))
        keys = [(g.edges[s],) if s == t else (g.edges[s], g.edges[t]) for s, t in pairs]
        for i in _orbit_firsts(keys, c.automorphisms):
            s, t = pairs[i]
            edges = list(g.edges)
            for e, new in ((s, g.n), (t, g.n + 1)):
                a, b = edges[e]
                edges[e] = (a, new)
                edges.append((new, b))
            edges.append((g.n, g.n + 1))
            found.add(canonical_class(Graph((3,) * (g.n + 2), tuple(edges))))
    return frozenset(found)


def _orbit_firsts(keys: list[tuple], automorphisms) -> list[int]:
    """Indices of the keys that are the first of their orbit.

    A key is a sorted tuple of edges (low, high) of a canonical graph;
    an automorphism tau maps it to the sorted tuple of image edges.
    Parallel edges share their (low, high), so the orbits are taken
    under the automorphisms and all swaps of parallel edges.
    """
    parent = {x: x for x in keys}
    for tau in automorphisms:
        for x in keys:
            image = tuple(sorted(
                (tau[a], tau[b]) if tau[a] < tau[b] else (tau[b], tau[a]) for a, b in x))
            parent[_find(parent, x)] = _find(parent, image)
    roots: set[tuple] = set()
    firsts = []
    for i, x in enumerate(keys):
        root = _find(parent, x)
        if root not in roots:
            roots.add(root)
            firsts.append(i)
    return firsts


# ---------------------------------------------------------------------------
# IHX relations


def _ihx_relation(g: Graph, t: int) -> GraphVector:
    """The sum of the three expansions of the four-valent corner made by
    contracting edge t of trivalent g; one with a self-loop is zero."""
    at = _incidence(g)
    x, y = g.edges[t]
    i, j = at[x].index((t, 0)), at[y].index((t, 1))
    # the corner's flags: at x, then at y, each in cyclic order after t
    f1, f2, f3, f4 = at[x][i - 2], at[x][i - 1], at[y][j - 2], at[y][j - 1]
    out = GraphVector()
    # even reorderings of (f1 f2 f3 f4); each pair becomes the flags at
    # one end of the re-inserted edge
    for (a1, a2), (b1, b2) in (((f1, f2), (f3, f4)), ((f1, f3), (f4, f2)),
                               ((f1, f4), (f2, f3))):
        ends = [list(e) for e in g.edges]
        for (e, end), v in ((a1, x), (a2, x), (b1, y), (b2, y)):
            ends[e][end] = v
        if any(p == q for p, q in ends):
            continue
        g2 = Graph(g.valences, tuple(map(tuple, ends)))
        # every other vertex keeps its flags in their incidence order
        s = from_cyclic(g2, {x: (a1, a2, (t, 0)), y: (b1, b2, (t, 1))})
        out.add_presentation(g2, Fraction(s))
    return out


def _raw_ihx_relations(classes: list[OrientedGraph]) -> list[GraphVector]:
    """Every relation from contracting an edge of a trivalent graph of
    one degree: the three expansions of the four-valent corner sum to
    zero.  Zero and duplicate relations are dropped; the edges of one
    automorphism orbit give one relation up to sign, so only the least
    edge of each orbit is contracted."""
    seen: set = set()
    out: list[GraphVector] = []
    for og in classes:
        g = og.graph
        for t in _orbit_firsts([(e,) for e in g.edges], og.automorphisms):
            total = _ihx_relation(g, t)
            if not total:
                continue
            normal = total * (1 / total.items()[0][1])
            if normal in seen:
                continue
            seen.add(normal)
            out.append(total)
    return out


class RelationSet:
    """IHX relations of one degree plus a row-reduced basis of their span.
    Cached and shared, so read-only: frozen relations and columns in
    tuples, col_index a read-only mapping, and the echelon kept inside."""

    __slots__ = ("k", "relations", "columns", "col_index", "_echelon")
    __setattr__ = __delattr__ = Record.__setattr__

    def __init__(self, k: int, relations: Iterable[GraphVector], columns: Iterable[Graph]):
        relations = tuple(rel.frozen() for rel in relations)
        columns = tuple(columns)
        col_index = MappingProxyType({g: i for i, g in enumerate(columns)})
        echelon = Echelon()
        for rel in relations:
            echelon.add({col_index[g]: c for g, c in rel.terms.items()})
        for name, value in zip(self.__slots__, (k, relations, columns, col_index, echelon)):
            object.__setattr__(self, name, value)

    @property
    def rank(self) -> int:
        return len(self._echelon.rows)

    def reduce_vector(self, v: GraphVector) -> GraphVector:
        row: dict[int, Fraction] = {}
        for g, c in v.terms.items():
            j = self.col_index.get(g)
            if j is None:
                raise DegreeMismatch(
                    "vector contains a graph outside the degree's trivalent basis")
            row[j] = c
        return GraphVector({self.columns[j]: c for j, c in self._echelon.reduce(row).items()})


def ihx_relations(k: int) -> RelationSet:
    """Relations of degree k, cached, with a deterministic reduced basis."""
    check_bound(k)  # enforced even on cache hits so the knob stays predictable
    return _relation_set(k)


@cache
def _relation_set(k: int) -> RelationSet:
    classes = enumerate_trivalent(k)
    columns = [og.graph for og in classes if og.sign_state != 0]
    return RelationSet(k, _raw_ihx_relations(classes), columns)


def reduce(v: GraphVector, relations: RelationSet | None = None) -> GraphVector:
    """Normal form of a purely trivalent homogeneous vector modulo IHX."""
    if relations is None:
        sizes = {g.n for g, _ in v.items()}
        if not sizes:
            return v
        if len(sizes) != 1:
            raise DegreeMismatch("vector is not homogeneous in vertex count")
        (n,) = sizes
        if n % 2:
            raise DegreeMismatch("odd vertex count")
        relations = ihx_relations(n // 2)
    k = relations.k
    for g, _ in v.items():
        if not g.is_trivalent:
            raise DegreeMismatch("vector has univalent vertices")
        if g.n != 2 * k:
            raise DegreeMismatch(f"graph on {g.n} vertices in degree {k}")
    return relations.reduce_vector(v)


def dimension(k: int) -> int:
    """dim of degree-k trivalent graphs modulo AS and IHX."""
    rs = ihx_relations(k)
    return len(rs.columns) - rs.rank


def theta_vector() -> GraphVector:
    return GraphVector.from_graph(theta())


# ---------------------------------------------------------------------------
# vector text format


def format_vector(v: GraphVector) -> str:
    lines = [f"coeff {c} {format_graph(g)}" for g, c in v.items()]
    if not lines:
        return "coeff 0 graph { vertices 0 ; }"
    return "\n".join(lines)


def parse_vector(text: str) -> GraphVector:
    """Read a vector as written by format_vector.

    Also accepts bare graph blocks (coefficient one) and the
    normalize output (a leading 'sign' line before a block).
    """
    words, lines = _tokenize(text)
    out = GraphVector.zero()
    i = 0
    while i < len(words):
        word = words[i]
        coeff = _ONE
        if word == "coeff" or word == "sign":
            if i + 1 == len(words):
                raise _parse_error(words, lines, i + 1)  # end of input
            raw, lineno = words[i + 1], lines[i + 1]
            i += 2
            if word == "sign" and raw not in ("+1", "-1", "0", "1"):
                raise GraphParseError(f"bad sign {raw!r}", lineno)
            try:
                coeff = parse_rational(raw)
            except ValueError:
                raise GraphParseError(f"bad rational {raw!r}", lineno) from None
        g, i = parse_graph_block(words, lines, i)
        out.add_presentation(g, coeff)  # drops a zero coefficient
    return out
