"""Weight systems from metric Lie algebras, the independent referee.

A finite-dimensional Lie algebra with an invariant nondegenerate
symmetric form evaluates a trivalent graph: put the fully lowered
structure tensor at each vertex in its cyclic order, the inverse form
on each edge, and contract everything.  Bracket antisymmetry plus
invariance make the vertex tensor totally antisymmetric, so the value
respects the AS law, and the Jacobi identity makes it vanish on every
IHX relation.  Agreement of these functionals with the graph algebra
is the strongest internal consistency check the package has.

gl(N) and sl2 (which equals gl2 on every graph with vertices: the centre
of gl2 drops out of the structure tensor) skip the contraction: their
weight is the ribbon-graph polynomial ``gl_polynomial`` evaluated at N.
"""
from __future__ import annotations

from fractions import Fraction
from functools import cache
from typing import Union

from .graph_core import Graph, OrientedGraph, to_cyclic
from .graph_algebra import GraphVector
from .scalars import Echelon, accumulate


class OracleError(ValueError):
    pass


class UnknownName(OracleError):
    pass


class NotTrivalent(OracleError):
    pass


class InvalidAlgebra(OracleError):
    pass


Matrix = tuple[tuple[Fraction, ...], ...]


def _invert(m: Matrix) -> Matrix:
    """Inverse by reducing [m | 1]: m is invertible exactly when every
    pivot lies in the left block, and the right block is then the
    inverse; InvalidAlgebra when singular."""
    d = len(m)
    echelon = Echelon()
    for i, row in enumerate(m):
        echelon.add({**dict(_support(row)), d + i: Fraction(1)})
    if any(pivot >= d for pivot in echelon.rows):
        raise InvalidAlgebra("form is degenerate")
    rows = echelon.rows
    return tuple(tuple(rows[i].get(d + j, Fraction(0)) for j in range(d))
                 for i in range(d))


def _support(vec) -> list[tuple[int, Fraction]]:
    return [(i, x) for i, x in enumerate(vec) if x]


def _validate_tables(d: int, brackets, form):
    if len(brackets) != d or any(
            len(row) != d or any(len(vec) != d for vec in row) for row in brackets):
        raise InvalidAlgebra("bracket table shape does not match the form")
    for i in range(d):
        for j in range(d):
            if form[i][j] != form[j][i]:
                raise InvalidAlgebra("form is not symmetric")
            for x, y in zip(brackets[i][j], brackets[j][i]):
                if x != -y:
                    raise InvalidAlgebra("brackets are not antisymmetric")


def _lower(brackets, form) -> dict[tuple[int, int, int], Fraction]:
    """c_{abc} = B([e_a, e_b], e_c); totally antisymmetric."""
    out: dict[tuple[int, int, int], Fraction] = {}
    form_rows = [_support(row) for row in form]
    for a, row in enumerate(brackets):
        for b, vec in enumerate(row):
            for m, x in _support(vec):
                for c, y in form_rows[m]:
                    accumulate(out, (a, b, c), x * y)
    return out


def _validate_laws(d: int, brackets, lowered):
    nonzero = [[_support(vec) for vec in row] for row in brackets]
    # Jacobi: [[a,b],c] + [[b,c],a] + [[c,a],b] = 0
    for a in range(d):
        for b in range(a + 1, d):
            for c in range(b, d):
                total: dict[int, Fraction] = {}
                for x, y, z in ((a, b, c), (b, c, a), (c, a, b)):
                    for m, coeff in nonzero[x][y]:
                        for t, cv in nonzero[m][z]:
                            accumulate(total, t, coeff * cv)
                if total:
                    raise InvalidAlgebra(f"Jacobi fails at basis ({a},{b},{c})")
    # invariance B([a,b],c) = B(a,[b,c]); the form being symmetric, the
    # right side is B([b,c],a)
    zero = Fraction(0)
    for a in range(d):
        for b in range(d):
            for c in range(d):
                if lowered.get((a, b, c), zero) != lowered.get((b, c, a), zero):
                    raise InvalidAlgebra(f"form not invariant at ({a},{b},{c})")


class MetricLieAlgebra:
    """Structure constants plus an invariant form, validated on build.

    One build reads the sources, checks shape and symmetry, lowers the
    structure tensor, checks Jacobi and invariance, inverts the form,
    and only then publishes ``brackets``, ``form``, ``lowered`` and
    ``form_inv`` together: a failed build leaves none of them behind.
    ``rank`` N marks an algebra whose weight on every graph with vertices
    is the gl(N) ribbon polynomial at N; ``weight`` then evaluates that
    polynomial instead of contracting.  Such an algebra builds when one
    of its tables is first read, and ``brackets`` and ``form`` may then
    be functions returning the tables; a function form needs the
    dimension ``d``.
    """

    def __init__(self, name: str, brackets, form,
                 rank: int | None = None, d: int | None = None):
        self.name = name
        self.rank = rank
        self.d = len(form) if d is None else d
        self._source = (brackets, form)
        if rank is None:
            self._build()

    def __getattr__(self, attr):
        if attr in ("brackets", "form", "lowered", "form_inv") and "_source" in vars(self):
            self._build()
            return getattr(self, attr)
        raise AttributeError(attr)

    def _build(self):
        brackets, form = (src() if callable(src) else src for src in self._source)
        brackets = tuple(tuple(tuple(Fraction(x) for x in vec) for vec in row)
                         for row in brackets)
        form = tuple(tuple(Fraction(x) for x in row) for row in form)
        _validate_tables(self.d, brackets, form)
        lowered = _lower(brackets, form)
        _validate_laws(self.d, brackets, lowered)
        vars(self).update(brackets=brackets, form=form, lowered=lowered,
                          form_inv=_invert(form))
        del self._source

    def bracket(self, a: int, b: int) -> tuple[Fraction, ...]:
        return self.brackets[a][b]

    def with_form_scaled(self, factor) -> "MetricLieAlgebra":
        q = Fraction(factor)
        scaled = [[x * q for x in row] for row in self.form]
        return MetricLieAlgebra(f"{self.name}*{q}", self.brackets, scaled)

    def __repr__(self):
        return f"MetricLieAlgebra({self.name}, d={self.d})"


def abelian(d: int) -> MetricLieAlgebra:
    """Zero brackets and the identity form.  Its weight is gl(1)'s: 0 on
    every graph with vertices (gl(1) is abelian too) and 1 on the empty
    graph, so it is a rank-1 algebra and builds its tables only when
    they are read."""
    return MetricLieAlgebra(
        f"abelian({d})", lambda: [[[0] * d for _ in range(d)] for _ in range(d)],
        lambda: [[int(i == j) for j in range(d)] for i in range(d)], rank=1, d=d)


def sl2() -> MetricLieAlgebra:
    # basis h, e, f; trace form of the defining representation
    d = 3
    table = [[[0] * d for _ in range(d)] for _ in range(d)]

    def put(a, b, vec):
        table[a][b] = list(vec)
        table[b][a] = [-x for x in vec]

    put(0, 1, (0, 2, 0))   # [h,e] = 2e
    put(0, 2, (0, 0, -2))  # [h,f] = -2f
    put(1, 2, (1, 0, 0))   # [e,f] = h
    form = [[2, 0, 0], [0, 0, 1], [0, 1, 0]]
    return MetricLieAlgebra("sl2", table, form, rank=2)


def gl(N: int) -> MetricLieAlgebra:
    """gl(N) on the matrix units E_(a,b) with the trace form."""
    d = N * N

    def idx(a, b):
        return a * N + b

    def table():
        out = [[[0] * d for _ in range(d)] for _ in range(d)]
        for a in range(N):
            for b in range(N):
                for c in range(N):
                    for e in range(N):
                        vec = out[idx(a, b)][idx(c, e)]
                        if b == c:
                            vec[idx(a, e)] += 1
                        if e == a:
                            vec[idx(c, b)] -= 1
        return out

    def form():
        out = [[0] * d for _ in range(d)]
        for a in range(N):
            for b in range(N):
                # tr(E_(a,b) E_(c,e)) = [b==c][e==a]
                out[idx(a, b)][idx(b, a)] = 1
        return out

    return MetricLieAlgebra(f"gl({N})", table, form, rank=N, d=d)


@cache
def builtin(name: str) -> MetricLieAlgebra:
    """abelian(d), sl2, gl(N); accepts gl2 / gl(2) spellings."""
    flat = name.strip().lower().replace(" ", "")
    if flat in ("sl2", "sl(2)"):
        return sl2()
    for prefix, builder in (("abelian", abelian), ("gl", gl)):
        if flat.startswith(prefix):
            tail = flat[len(prefix):]
            if tail.startswith("(") and tail.endswith(")"):
                tail = tail[1:-1]
            if tail.isdigit() and int(tail) >= 1:
                return builder(int(tail))
    raise UnknownName(f"no built-in algebra named {name!r}")


# ---------------------------------------------------------------------------
# graph evaluation


def weight(L: MetricLieAlgebra, g: Union[Graph, OrientedGraph]) -> Fraction:
    """The gl(N) polynomial at N when L has a rank, else the contracted
    tensor network; sign from the orientation."""
    if isinstance(g, OrientedGraph):
        if g.sign_state == 0:
            return Fraction(0)
        return g.sign_state * weight(L, g.graph)
    if L.rank is not None:
        return Fraction(sum(c * L.rank ** f for f, c in gl_polynomial(g).items()))
    cyclic, sign = _trivalent_cyclic(g)
    return sign * _contract(L, g, cyclic)


def _trivalent_cyclic(g: Graph) -> tuple[dict[int, tuple], int]:
    if any(v != 3 for v in g.valences):
        raise NotTrivalent("weights are defined for purely trivalent graphs")
    return to_cyclic(g)


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
    cyclic, sign = _trivalent_cyclic(g)
    if g.n == 0:
        return {0: 1}
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


def _contract(L: MetricLieAlgebra, g: Graph,
              cyclic: dict[int, tuple]) -> Fraction:
    placed: set[int] = set()
    # state: sorted tuple of (flag, index) for flags whose edge partner
    # is not placed yet
    states: dict[tuple, Fraction] = {(): Fraction(1)}
    entries = list(L.lowered.items())
    inv = L.form_inv
    for v in range(g.n):
        flags = cyclic[v]
        closing = []
        opening = []
        for (e, end) in flags:
            a, b = g.edges[e]
            partner = b if end == 0 else a
            if partner in placed:
                closing.append((e, end))
            else:
                opening.append((e, end))
        new_states: dict[tuple, Fraction] = {}
        for key, amp in states.items():
            open_idx = dict(key)
            for (triple, val) in entries:
                idx_at = dict(zip(flags, triple))
                factor = amp * val
                for (e, end) in closing:
                    j = open_idx[(e, 1 - end)]
                    m = inv[j][idx_at[(e, end)]]
                    if not m:
                        factor = Fraction(0)
                        break
                    factor *= m
                if not factor:
                    continue
                nxt = {f: i for f, i in open_idx.items()
                       if (f[0], 1 - f[1]) not in closing}
                for f in opening:
                    nxt[f] = idx_at[f]
                accumulate(new_states, tuple(sorted(nxt.items())), factor)
        states = new_states
        placed.add(v)
        if not states:
            return Fraction(0)
    return states.get((), Fraction(0))


def weight_vector(L: MetricLieAlgebra, v: GraphVector) -> Fraction:
    total = Fraction(0)
    for g, coeff in v.terms.items():
        total += coeff * weight(L, g)
    return total
