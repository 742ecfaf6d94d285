"""Lie algebra weights against a referee that contracts tensors.

lie_oracle weighs every built-in algebra by the gl(N) ribbon polynomial.
The referee here starts from the definition instead: bracket and form
tables, checked law by law, the structure tensor lowered by the form,
the form inverted, and the tensor network contracted, once by a state
sum over the vertices and, on small cases, by blunt enumeration of
index assignments.
"""
from __future__ import annotations

import itertools
import random
from collections import namedtuple
from fractions import Fraction as F

import pytest

from graphgenus.graph_algebra import (
    GraphVector, dimension, enumerate_trivalent, ihx_relations, product,
)
from graphgenus.graph_core import (
    Graph, canonical_form, line, theta, to_cyclic, wheel,
)
from graphgenus.lie_oracle import (
    NotTrivalent, UnknownName, builtin, gl_polynomial, weight, weight_vector,
)
from graphgenus.scalars import accumulate
from conftest import represent

K4 = Graph((3, 3, 3, 3), ((0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3)))
DBL = Graph((3, 3, 3, 3), ((0, 2), (0, 2), (0, 3), (1, 2), (1, 3), (1, 3)))


# ---------------------------------------------------------------------------
# the referee: checked tables, one lowering, the inverse form, and the
# contraction


Algebra = namedtuple("Algebra", "brackets form lowered form_inv")


def antisymmetric(d, entries):
    """The bracket table with [e_a, e_b] = vec for each (a, b, vec), and
    [e_b, e_a] = -vec; every other bracket is zero."""
    brackets = [[[0] * d for _ in range(d)] for _ in range(d)]
    for a, b, vec in entries:
        brackets[a][b] = list(vec)
        brackets[b][a] = [-x for x in vec]
    return brackets


def identity(d):
    return [[int(i == j) for j in range(d)] for i in range(d)]


def tables(name):
    """(brackets, form) of sl2 on h, e, f with the trace form of the
    defining representation; of glN on the matrix units E_(a,b) = e_(aN+b)
    with the trace form; or of abelian(d) with the identity form."""
    if name == "sl2":
        return (antisymmetric(3, [(0, 1, (0, 2, 0)), (0, 2, (0, 0, -2)),
                                  (1, 2, (1, 0, 0))]),
                [[2, 0, 0], [0, 0, 1], [0, 1, 0]])
    if name.startswith("abelian("):
        d = int(name[len("abelian("):-1])
        return antisymmetric(d, []), identity(d)
    N = int(name[len("gl"):])
    brackets, form = antisymmetric(N * N, []), identity(N * N)
    for a, b, c, e in itertools.product(range(N), repeat=4):
        # [E_ab, E_ce] = [b = c] E_ae - [e = a] E_cb;  tr(E_ab E_ce) = [b = c][e = a]
        vec = brackets[a * N + b][c * N + e]
        vec[a * N + e] += b == c
        vec[c * N + b] -= e == a
        form[a * N + b][c * N + e] = int(b == c and e == a)
    return brackets, form


def lower(brackets, form):
    """c_abc = B([e_a, e_b], e_c), nonzero entries only."""
    r = range(len(form))
    out = {}
    for a, b, c in itertools.product(r, repeat=3):
        x = sum(brackets[a][b][m] * form[m][c] for m in r)
        if x:
            out[a, b, c] = x
    return out


def invert(m):
    d = len(m)
    aug = [list(row) + [F(int(i == j)) for j in range(d)]
           for i, row in enumerate(m)]
    for col in range(d):
        piv = next((r for r in range(col, d) if aug[r][col]), None)
        if piv is None:
            raise ValueError("form is degenerate")
        aug[col], aug[piv] = aug[piv], aug[col]
        s = 1 / aug[col][col]
        aug[col] = [x * s for x in aug[col]]
        for r in range(d):
            if r != col and aug[r][col]:
                f = aug[r][col]
                aug[r] = [x - f * y for x, y in zip(aug[r], aug[col])]
    return [row[d:] for row in aug]


def algebra(brackets, form) -> Algebra:
    """The tables checked in order (shape, symmetry, antisymmetry, Jacobi,
    invariance, nondegeneracy), raising ValueError at the first broken
    law; then the lowered structure tensor and the inverse form."""
    form = [[F(x) for x in row] for row in form]
    r = range(len(form))
    if len(brackets) != len(form) or any(
            len(row) != len(form) or any(len(vec) != len(form) for vec in row)
            for row in brackets):
        raise ValueError("bracket table shape does not match the form")
    if any(form[i][j] != form[j][i] for i in r for j in r):
        raise ValueError("form is not symmetric")
    if any(x != -y for i in r for j in r
           for x, y in zip(brackets[i][j], brackets[j][i])):
        raise ValueError("brackets are not antisymmetric")

    def bracket(vec, c):  # [sum_m vec_m e_m, e_c]
        return [sum(x * brackets[m][c][t] for m, x in enumerate(vec) if x)
                for t in r]

    # Jacobi: [[a,b],c] + [[b,c],a] + [[c,a],b] = 0; antisymmetry settles
    # every triple with a repeated index
    for a, b, c in itertools.combinations(r, 3):
        if any(map(sum, zip(bracket(brackets[a][b], c), bracket(brackets[b][c], a),
                            bracket(brackets[c][a], b)))):
            raise ValueError(f"Jacobi fails at basis ({a},{b},{c})")
    # invariance B([a,b],c) = B(a,[b,c]); the form being symmetric, the
    # right side is B([b,c],a)
    lowered = lower(brackets, form)
    for a, b, c in itertools.product(r, repeat=3):
        if lowered.get((a, b, c), 0) != lowered.get((b, c, a), 0):
            raise ValueError(f"form not invariant at ({a},{b},{c})")
    return Algebra(brackets, form, lowered, invert(form))


def referee(name) -> Algebra:
    return algebra(*tables(name))


def contract(L: Algebra, g: Graph) -> F:
    """The state sum: place the vertices in order, keeping the index of
    every flag whose edge partner is not placed yet; a flag whose partner
    is placed closes its edge through the inverse form."""
    cyclic, sign = to_cyclic(g)
    placed: set[int] = set()
    # state: sorted tuple of (flag, index) for the open flags
    states: dict[tuple, F] = {(): F(1)}
    entries, inv = list(L.lowered.items()), L.form_inv
    for v in range(g.n):
        flags = cyclic[v]
        closing, opening = [], []
        for (e, end) in flags:
            a, b = g.edges[e]
            partner = b if end == 0 else a
            (closing if partner in placed else opening).append((e, end))
        new_states: dict[tuple, F] = {}
        for key, amp in states.items():
            open_idx = dict(key)
            for triple, val in entries:
                idx_at = dict(zip(flags, triple))
                factor = amp * val
                for (e, end) in closing:
                    m = inv[open_idx[(e, 1 - end)]][idx_at[(e, end)]]
                    if not m:
                        factor = 0
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
    return sign * states.get((), F(0))


def brute_weight(L: Algebra, g: Graph) -> F:
    """The same network by blunt enumeration of an index pair per edge."""
    d = len(L.form)
    pairs = [(i, j) for i in range(d) for j in range(d) if L.form_inv[i][j]]
    cyclic, sign = to_cyclic(g)
    total = F(0)
    for choice in itertools.product(pairs, repeat=len(g.edges)):
        idx = {}
        amp = F(1)
        for e, (i, j) in enumerate(choice):
            idx[(e, 0)], idx[(e, 1)] = i, j
            amp *= L.form_inv[i][j]
        for v in range(g.n):
            f1, f2, f3 = cyclic[v]
            amp *= L.lowered.get((idx[f1], idx[f2], idx[f3]), 0)
            if not amp:
                break
        total += amp
    return sign * total


@pytest.mark.parametrize("name,g,expected", [
    ("sl2", theta(), 12),
    ("gl2", theta(), 12),
    ("gl3", theta(), 48),
    ("sl2", K4, -24),
    ("sl2", DBL, 48),
    ("abelian(2)", theta(), 0),
])
def test_engine_agrees_with_brute_contraction(name, g, expected):
    L = referee(name)
    assert brute_weight(L, g) == expected
    assert contract(L, g) == expected
    assert weight(builtin(name), g) == expected


def test_engine_agrees_on_random_presentations():
    rng = random.Random(17)
    L = referee("sl2")
    for g in (theta(), K4, DBL):
        for _ in range(4):
            h, _ = represent(rng, g)
            assert weight(builtin("sl2"), h) == contract(L, h) == brute_weight(L, h)


# ---------------------------------------------------------------------------
# names, and the referee's checks


def test_builtin_spellings():
    assert builtin("sl2") == builtin("sl(2)") == 2
    assert builtin("gl(2)") == builtin("gl2") == 2
    assert builtin(" GL3 ") == builtin("gl(٣)") == 3
    assert builtin("abelian(5)") == builtin("abelian1") == 1
    assert builtin("gl(60)") == 60


def test_builtin_unknown():
    # superscripts pass str.isdigit, and 5,000 digits exceed what int() converts
    for name in ("e8", "gl(0)", "abelian(x)", "gl²", "abelian(¹)",
                 "gl(" + "9" * 5000 + ")"):
        with pytest.raises(UnknownName):
            builtin(name)


def test_validation_rejects_broken_tables():
    good = referee("sl2")
    with pytest.raises(ValueError, match="shape does not match"):
        algebra(good.brackets, identity(2))
    table = [[list(vec) for vec in row] for row in good.brackets]
    table[0][1][1] += 1
    with pytest.raises(ValueError, match="brackets are not antisymmetric"):
        algebra(table, good.form)
    # [h,e] = 2e + f keeps a Lie algebra, but not one whose form is invariant
    table = [[list(vec) for vec in row] for row in good.brackets]
    table[0][1] = [0, 2, 1]
    table[1][0] = [0, -2, -1]
    with pytest.raises(ValueError, match="form not invariant"):
        algebra(table, good.form)
    form = [list(row) for row in good.form]
    form[0][1] = 1
    with pytest.raises(ValueError, match="form is not symmetric"):
        algebra(good.brackets, form)
    with pytest.raises(ValueError, match="form is degenerate"):
        algebra(good.brackets, [[0] * 3] * 3)
    with pytest.raises(ValueError, match="form not invariant"):
        algebra(good.brackets, identity(3))


def test_validation_names_the_broken_law():
    # [e0,e1] = e2, [e1,e2] = e1: [[e1,e2],e0] = -e2 is all of the Jacobi sum
    table = antisymmetric(3, [(0, 1, (0, 0, 1)), (1, 2, (0, 1, 0))])
    with pytest.raises(ValueError, match=r"Jacobi fails at basis \(0,1,2\)"):
        algebra(table, identity(3))
    with pytest.raises(ValueError, match="form not invariant"):
        algebra(referee("sl2").brackets, identity(3))


def test_gl_killing_data_is_valid():
    # building checks every law; reaching the end is the assertion
    for name in ("gl1", "gl2", "gl3", "abelian(1)", "abelian(3)"):
        referee(name)
    assert referee("gl2").brackets[0][1] == [0, 1, 0, 0]  # [E_00, E_01] = E_01


# ---------------------------------------------------------------------------
# weight laws


def test_abelian_kills_positive_degree():
    for name in ("abelian(3)", "abelian(40)"):
        for og in enumerate_trivalent(2):
            if og.sign_state:
                assert weight(builtin(name), og) == 0
        assert weight(builtin(name), Graph((), ())) == 1
    # the contracted zero table agrees with gl(1)'s polynomial
    L = referee("abelian(2)")
    for g in (theta(), K4, DBL, Graph((), ())):
        assert contract(L, g) == weight(builtin("abelian(2)"), g) == (0 if g.n else 1)


def test_weight_requires_trivalent():
    with pytest.raises(NotTrivalent):
        weight(builtin("sl2"), line())
    with pytest.raises(NotTrivalent):
        weight(builtin("sl2"), wheel(2))


def test_weight_respects_orientation_sign():
    N = builtin("sl2")
    reversed_theta = Graph((3, 3), ((1, 0), (0, 1), (0, 1)))
    assert weight(N, reversed_theta) == -12
    og = canonical_form(theta())
    assert weight(N, og) == og.sign_state * weight(N, og.graph)
    zero = canonical_form(Graph((3, 1, 1, 1), ((0, 1), (0, 2), (0, 3))))
    assert weight(N, zero) == 0


def test_weight_multiplicative_over_union():
    N = builtin("sl2")
    v = product(GraphVector.from_graph(K4), GraphVector.from_graph(theta()))
    assert weight_vector(N, v) == weight(N, K4) * weight(N, theta())
    w = product(GraphVector.from_graph(DBL), GraphVector.from_graph(DBL))
    assert weight_vector(N, w) == 48 * 48


def test_weight_vector_linearity():
    N = builtin("gl2")
    v = GraphVector.from_graph(K4, F(2, 3)) - GraphVector.from_graph(DBL, F(1, 5))
    assert weight_vector(N, v) == F(2, 3) * weight(N, K4) - F(1, 5) * weight(N, DBL)


def test_metric_rescaling_scales_by_degree():
    L = referee("sl2")
    for lam in (F(3), F(-2), F(5, 7)):
        scaled = algebra(L.brackets, [[lam * x for x in row] for row in L.form])
        assert contract(scaled, theta()) == contract(L, theta()) / lam
        assert contract(scaled, K4) == contract(L, K4) / lam ** 2
        assert contract(scaled, DBL) == contract(L, DBL) / lam ** 2


# ---------------------------------------------------------------------------
# relations annihilated, classes separated


@pytest.mark.parametrize("name,kmax", [
    ("sl2", 3), ("gl2", 3), ("gl3", 2),
])
def test_ihx_relations_annihilated(name, kmax):
    N = builtin(name)
    for k in range(kmax + 1):
        for rel in ihx_relations(k).relations:
            assert weight_vector(N, rel) == 0


def test_weights_invariant_under_reduction():
    from graphgenus.graph_algebra import reduce as ihx_reduce
    rng = random.Random(18)
    N = builtin("gl2")
    basis = [og.graph for og in enumerate_trivalent(2) if og.sign_state]
    for _ in range(10):
        v = GraphVector.zero()
        for g in basis:
            v = v + GraphVector.from_graph(g, F(rng.randint(-5, 5)))
        assert weight_vector(N, v) == weight_vector(N, ihx_reduce(v))


def test_degree_two_evaluation_matrix_has_full_rank():
    basis = [og.graph for og in enumerate_trivalent(2) if og.sign_state]
    rows = [[weight(builtin(name), g) for g in basis]
            for name in ("sl2", "gl2", "gl3")]
    assert exact_rank(rows) == dimension(2) == 2


def test_sl2_row_frozen():
    cols = ihx_relations(2).columns
    assert [weight(builtin("sl2"), g) for g in cols] == [-24, -144, 48]


# ---------------------------------------------------------------------------
# the gl(N) ribbon polynomial against the contraction


def at(poly: dict[int, int], N: int) -> int:
    return sum(c * N ** f for f, c in poly.items())


def vector_polynomial(v: GraphVector) -> dict[int, F]:
    out: dict[int, F] = {}
    for g, coeff in v.items():
        for f, c in gl_polynomial(g).items():
            out[f] = out.get(f, 0) + coeff * c
    return {f: c for f, c in out.items() if c}


def exact_rank(rows) -> int:
    rows = [[F(x) for x in row] for row in rows]
    rank = 0
    for col in range(len(rows[0]) if rows else 0):
        piv = next((r for r in range(rank, len(rows)) if rows[r][col]), None)
        if piv is None:
            continue
        rows[rank], rows[piv] = rows[piv], rows[rank]
        for r in range(rank + 1, len(rows)):
            f = rows[r][col] / rows[rank][col]
            rows[r] = [x - f * y for x, y in zip(rows[r], rows[rank])]
        rank += 1
    return rank


@pytest.mark.parametrize("name,N,k", [
    (name, N, k) for name, N in (("sl2", 2), ("gl2", 2), ("gl3", 3))
    for k in (0, 1, 2)
] + [("sl2", 2, 3), ("gl2", 2, 3)])
def test_gl_polynomial_agrees_with_contraction(name, N, k):
    assert builtin(name) == N
    L = referee(name)
    for g in ihx_relations(k).columns:
        expected = contract(L, g)
        assert at(gl_polynomial(g), N) == expected
        assert weight(N, g) == expected


def test_theta_polynomial():
    assert gl_polynomial(theta()) == {1: -2, 3: 2}
    for N in range(1, 7):
        assert at(gl_polynomial(theta()), N) == 2 * N * (N * N - 1)
    for N in (1, 2, 3, 4):
        assert weight(N, theta()) == 2 * N * (N * N - 1)
        assert contract(referee(f"gl{N}"), theta()) == 2 * N * (N * N - 1)
    assert weight(builtin("gl(60)"), theta()) == 2 * 60 * (60 * 60 - 1)


def test_cached_gl_polynomial_is_read_only():
    with pytest.raises(AttributeError):
        gl_polynomial(theta()).clear()
    with pytest.raises(TypeError):
        gl_polynomial(theta())[1] = 0
    assert gl_polynomial(theta()) == {1: -2, 3: 2}
    assert weight(2, theta()) == 12


def test_gl_polynomial_of_the_empty_graph_and_of_legs():
    assert gl_polynomial(Graph((), ())) == {0: 1}
    with pytest.raises(NotTrivalent):
        gl_polynomial(line())


def test_gl_polynomial_follows_the_presentation_sign():
    rng = random.Random(19)
    for k in (1, 2, 3):
        for g in ihx_relations(k).columns:
            canonical = gl_polynomial(g)
            for _ in range(3):
                h, sign = represent(rng, g)
                assert gl_polynomial(h) == {f: sign * c for f, c in canonical.items()}


# ---------------------------------------------------------------------------
# the polynomial weight system certifies the quotient


@pytest.mark.parametrize("k", [0, 1, 2, 3, 4])
def test_ihx_relations_vanish_as_polynomials(k, monkeypatch):
    monkeypatch.setenv("GRAPHGENUS_MAX_K", "4")
    for rel in ihx_relations(k).relations:
        assert vector_polynomial(rel) == {}


@pytest.mark.parametrize("k", [1, 2, 3])
def test_polynomial_coefficients_separate_the_quotient(k):
    polys = [gl_polynomial(g) for g in ihx_relations(k).columns]
    powers = sorted({f for poly in polys for f in poly})
    rows = [[poly.get(f, 0) for poly in polys] for f in powers]
    assert exact_rank(rows) == dimension(k) == k


def test_repeated_weights_reuse_the_cached_polynomials():
    relations = [rel for k in range(4) for rel in ihx_relations(k).relations]
    ranks = [builtin(name) for name in ("sl2", "gl2", "gl3")]

    def one_pass():
        for N in ranks:
            for rel in relations:
                assert weight_vector(N, rel) == 0

    one_pass()
    before = gl_polynomial.cache_info()
    one_pass()
    after = gl_polynomial.cache_info()
    assert after.misses == before.misses and after.hits > before.hits
