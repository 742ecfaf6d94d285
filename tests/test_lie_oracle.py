"""Metric Lie algebra weights: the analytic referee for the graph side.

brute_weight below contracts the tensor network by blunt enumeration of
index assignments, recomputing the lowered constants and the inverse
form from the raw (brackets, form) data.  The engine must agree with it
everywhere it is feasible to run.
"""
from __future__ import annotations

import itertools
import random
from fractions import Fraction as F

import pytest

from graphgenus.graph_algebra import (
    GraphVector, dimension, enumerate_trivalent, ihx_relations, product,
)
from graphgenus.graph_core import (
    Graph, canonical_form, concat, line, theta, to_cyclic, wheel,
)
from graphgenus import lie_oracle
from graphgenus.lie_oracle import (
    InvalidAlgebra, MetricLieAlgebra, NotTrivalent, UnknownName, abelian,
    builtin, gl, gl_polynomial, sl2, weight, weight_vector,
)
from conftest import represent

K4 = Graph((3, 3, 3, 3), ((0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3)))
DBL = Graph((3, 3, 3, 3), ((0, 2), (0, 2), (0, 3), (1, 2), (1, 3), (1, 3)))


# ---------------------------------------------------------------------------
# blunt reference contraction


def invert(m):
    d = len(m)
    aug = [list(row) + [F(int(i == j)) for j in range(d)]
           for i, row in enumerate(m)]
    for col in range(d):
        piv = next(r for r in range(col, d) if aug[r][col])
        aug[col], aug[piv] = aug[piv], aug[col]
        s = 1 / aug[col][col]
        aug[col] = [x * s for x in aug[col]]
        for r in range(d):
            if r != col and aug[r][col]:
                f = aug[r][col]
                aug[r] = [x - f * y for x, y in zip(aug[r], aug[col])]
    return [row[d:] for row in aug]


def brute_weight(L: MetricLieAlgebra, g: Graph) -> F:
    d = L.d
    lowered = {}
    for a in range(d):
        for b in range(d):
            vec = L.brackets[a][b]
            for c in range(d):
                lowered[(a, b, c)] = sum(
                    vec[m] * L.form[m][c] for m in range(d))
    inv = invert([list(row) for row in L.form])
    pairs = [(i, j) for i in range(d) for j in range(d) if inv[i][j]]
    cyclic, sign = to_cyclic(g)
    total = F(0)
    for choice in itertools.product(pairs, repeat=len(g.edges)):
        idx = {}
        amp = F(1)
        for e, (i, j) in enumerate(choice):
            idx[(e, 0)], idx[(e, 1)] = i, j
            amp *= inv[i][j]
        for v in range(g.n):
            f1, f2, f3 = cyclic[v]
            amp *= lowered[(idx[f1], idx[f2], idx[f3])]
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
    L = builtin(name)
    assert brute_weight(L, g) == expected
    assert weight(L, g) == expected


def test_engine_agrees_on_random_presentations():
    rng = random.Random(17)
    L = sl2()
    for g in (theta(), K4, DBL):
        for _ in range(4):
            h, _ = represent(rng, g)
            assert weight(L, h) == brute_weight(L, h)


# ---------------------------------------------------------------------------
# structure validation


def test_builtin_spellings():
    assert builtin("sl2").d == 3
    assert builtin("gl(2)").d == 4
    assert builtin("gl2").d == 4
    assert builtin("abelian(5)").d == 5
    assert builtin(" GL3 ").d == 9


def test_builtin_unknown():
    with pytest.raises(UnknownName):
        builtin("e8")
    with pytest.raises(UnknownName):
        builtin("gl(0)")
    with pytest.raises(UnknownName):
        builtin("abelian(x)")


def test_validation_rejects_broken_tables():
    good = sl2()
    # break antisymmetry
    table = [[list(vec) for vec in row] for row in good.brackets]
    table[0][1][1] += 1
    with pytest.raises(InvalidAlgebra):
        MetricLieAlgebra("bad", table, good.form)
    # break Jacobi but keep antisymmetry
    table = [[list(vec) for vec in row] for row in good.brackets]
    table[0][1] = [0, 2, 1]
    table[1][0] = [0, -2, -1]
    with pytest.raises(InvalidAlgebra):
        MetricLieAlgebra("bad", table, good.form)
    # break form symmetry
    form = [list(row) for row in good.form]
    form[0][1] = 1
    with pytest.raises(InvalidAlgebra):
        MetricLieAlgebra("bad", good.brackets, form)
    # degenerate form
    with pytest.raises(InvalidAlgebra):
        MetricLieAlgebra("bad", good.brackets,
                         [[0] * 3, [0] * 3, [0] * 3])
    # non-invariant form
    with pytest.raises(InvalidAlgebra):
        MetricLieAlgebra("bad", good.brackets,
                         [[1, 0, 0], [0, 1, 0], [0, 0, 1]])


def test_validation_names_the_broken_law():
    # [e0,e1] = e2, [e1,e2] = e1: [[e1,e2],e0] = -e2 is all of the Jacobi sum
    table = [[[0] * 3 for _ in range(3)] for _ in range(3)]
    for a, b, vec in ((0, 1, (0, 0, 1)), (1, 2, (0, 1, 0))):
        table[a][b] = list(vec)
        table[b][a] = [-x for x in vec]
    identity = [[int(i == j) for j in range(3)] for i in range(3)]
    with pytest.raises(InvalidAlgebra, match=r"Jacobi fails at basis \(0,1,2\)"):
        MetricLieAlgebra("bad", table, identity)
    with pytest.raises(InvalidAlgebra, match="form not invariant"):
        MetricLieAlgebra("bad", sl2().brackets, identity)


def test_gl_killing_data_is_valid():
    # rank algebras validate on the first read of a table; reaching the
    # end is the assertion
    for L in (gl(1), gl(2), gl(3), abelian(1), abelian(3)):
        assert all(L.lowered.values())


# ---------------------------------------------------------------------------
# weight laws


def test_abelian_kills_positive_degree():
    L = abelian(3)
    for og in enumerate_trivalent(2):
        if og.sign_state:
            assert weight(L, og) == 0
    assert weight(L, Graph((), ())) == 1


def test_weight_requires_trivalent():
    with pytest.raises(NotTrivalent):
        weight(sl2(), line())
    with pytest.raises(NotTrivalent):
        weight(sl2(), wheel(2))


def test_weight_respects_orientation_sign():
    L = sl2()
    reversed_theta = Graph((3, 3), ((1, 0), (0, 1), (0, 1)))
    assert weight(L, reversed_theta) == -12
    og = canonical_form(theta())
    assert weight(L, og) == og.sign_state * weight(L, og.graph)
    zero = canonical_form(Graph((3, 1, 1, 1), ((0, 1), (0, 2), (0, 3))))
    assert weight(L, zero) == 0


def test_weight_multiplicative_over_union():
    L = sl2()
    v = product(GraphVector.from_graph(K4), GraphVector.from_graph(theta()))
    assert weight_vector(L, v) == weight(L, K4) * weight(L, theta())
    w = product(GraphVector.from_graph(DBL), GraphVector.from_graph(DBL))
    assert weight_vector(L, w) == 48 * 48


def test_weight_vector_linearity():
    L = builtin("gl2")
    v = GraphVector.from_graph(K4, F(2, 3)) - GraphVector.from_graph(DBL, F(1, 5))
    assert weight_vector(L, v) == F(2, 3) * weight(L, K4) - F(1, 5) * weight(L, DBL)


def test_metric_rescaling_scales_by_degree():
    for lam in (F(3), F(-2), F(5, 7)):
        L = sl2()
        scaled = L.with_form_scaled(lam)
        assert weight(scaled, theta()) == weight(L, theta()) / lam
        assert weight(scaled, K4) == weight(L, K4) / lam ** 2
        assert weight(scaled, DBL) == weight(L, DBL) / lam ** 2


# ---------------------------------------------------------------------------
# relations annihilated, classes separated


@pytest.mark.parametrize("name,kmax", [
    ("sl2", 3), ("gl2", 3), ("gl3", 2),
])
def test_ihx_relations_annihilated(name, kmax):
    L = builtin(name)
    for k in range(kmax + 1):
        for rel in ihx_relations(k).relations:
            assert weight_vector(L, rel) == 0


def test_weights_invariant_under_reduction():
    from graphgenus.graph_algebra import reduce as ihx_reduce
    rng = random.Random(18)
    L = builtin("gl2")
    basis = [og.graph for og in enumerate_trivalent(2) if og.sign_state]
    for _ in range(10):
        v = GraphVector.zero()
        for g in basis:
            v = v + GraphVector.from_graph(g, F(rng.randint(-5, 5)))
        assert weight_vector(L, v) == weight_vector(L, ihx_reduce(v))


def test_degree_two_evaluation_matrix_has_full_rank():
    basis = [og.graph for og in enumerate_trivalent(2) if og.sign_state]
    rows = []
    for name in ("sl2", "gl2", "gl3"):
        L = builtin(name)
        rows.append([weight(L, g) for g in basis])
    # rank by exact elimination
    rank = 0
    for col in range(len(basis)):
        piv = next((r for r in range(rank, len(rows)) if rows[r][col]), None)
        if piv is None:
            continue
        rows[rank], rows[piv] = rows[piv], rows[rank]
        lead = rows[rank][col]
        for r in range(len(rows)):
            if r != rank and rows[r][col]:
                f = rows[r][col] / lead
                rows[r] = [x - f * y for x, y in zip(rows[r], rows[rank])]
        rank += 1
    assert rank == dimension(2) == 2


def test_sl2_row_frozen():
    L = sl2()
    cols = ihx_relations(2).columns
    assert [weight(L, g) for g in cols] == [-24, -144, 48]


# ---------------------------------------------------------------------------
# the gl(N) ribbon polynomial against the contraction


def contracted(L: MetricLieAlgebra, g: Graph) -> F:
    cyclic, sign = to_cyclic(g)
    return sign * lie_oracle._contract(L, g, cyclic)


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
    L = builtin(name)
    assert L.rank == N
    for g in ihx_relations(k).columns:
        expected = contracted(L, g)
        assert at(gl_polynomial(g), N) == expected
        assert weight(L, g) == expected


def test_theta_polynomial():
    assert gl_polynomial(theta()) == {1: -2, 3: 2}
    for N in range(1, 7):
        assert at(gl_polynomial(theta()), N) == 2 * N * (N * N - 1)
    for N in (1, 2, 3, 4):
        assert weight(gl(N), theta()) == 2 * N * (N * N - 1)
        assert contracted(gl(N), theta()) == 2 * N * (N * N - 1)


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


def test_only_rank_algebras_skip_the_contraction(monkeypatch):
    calls = []
    real = lie_oracle._contract

    def spy(L, g, cyclic):
        calls.append(L.name)
        return real(L, g, cyclic)

    monkeypatch.setattr(lie_oracle, "_contract", spy)
    base = sl2()
    custom = MetricLieAlgebra("custom sl2", base.brackets, base.form)
    scaled = base.with_form_scaled(3)
    table = abelian(2).with_form_scaled(1)
    assert custom.rank is None and scaled.rank is None and table.rank is None
    for L in (table, custom, scaled):
        weight(L, K4)
    assert calls == ["abelian(2)*1", "custom sl2", "sl2*3"]
    calls.clear()
    for L in (base, gl(1), builtin("gl2"), builtin("gl3"), abelian(2)):
        weight(L, K4)
    assert calls == []
    # the contracted abelian table agrees with the rank-1 shortcut
    for g in (theta(), K4, DBL, Graph((), ())):
        assert weight(table, g) == weight(abelian(2), g) == (0 if g.n else 1)


# ---------------------------------------------------------------------------
# the polynomial weight system certifies the quotient


@pytest.mark.parametrize("k", [0, 1, 2, 3])
def test_ihx_relations_vanish_as_polynomials(k):
    for rel in ihx_relations(k).relations:
        assert vector_polynomial(rel) == {}


@pytest.mark.parametrize("k", [1, 2, 3])
def test_polynomial_coefficients_separate_the_quotient(k):
    polys = [gl_polynomial(g) for g in ihx_relations(k).columns]
    powers = sorted({f for poly in polys for f in poly})
    rows = [[poly.get(f, 0) for poly in polys] for f in powers]
    assert exact_rank(rows) == dimension(k) == k


# ---------------------------------------------------------------------------
# rank algebras build their tables only when something reads them


def test_rank_algebra_builds_tables_on_first_read():
    L = gl(8)
    assert weight(L, theta()) == 2 * 8 * (8 * 8 - 1)
    assert "brackets" not in vars(L) and "lowered" not in vars(L)
    big = gl(60)
    assert weight(big, theta()) == 2 * 60 * (60 * 60 - 1)
    assert big.d == 3600 and "form" not in vars(big)
    A = abelian(40)
    assert weight(A, theta()) == 0 and weight(A, Graph((), ())) == 1
    assert A.d == 40 and A.rank == 1 and "form" not in vars(A)
    assert abelian(3).form[2] == (0, 0, 1)
    small = gl(2)
    assert small.bracket(0, 1) == (0, 1, 0, 0)  # [E_00, E_01] = E_01
    assert {"brackets", "form", "lowered", "form_inv"} <= set(vars(small))
    assert small.with_form_scaled(2).rank is None


def test_rank_algebra_validates_on_first_read():
    table = [[[0] * 3 for _ in range(3)] for _ in range(3)]
    for a, b, vec in ((0, 1, (0, 0, 1)), (1, 2, (0, 1, 0))):
        table[a][b] = list(vec)
        table[b][a] = [-x for x in vec]
    identity = [[int(i == j) for j in range(3)] for i in range(3)]
    L = MetricLieAlgebra("bad", table, identity, rank=3)
    for _ in range(2):
        with pytest.raises(InvalidAlgebra, match=r"Jacobi fails at basis \(0,1,2\)"):
            L.brackets
    base = sl2()
    lazy = MetricLieAlgebra("lazy", lambda: base.brackets, base.form, rank=2)
    assert lazy.lowered == base.lowered


def test_failed_build_publishes_no_table():
    table = [[[0] * 3 for _ in range(3)] for _ in range(3)]
    for a, b, vec in ((0, 1, (0, 0, 1)), (1, 2, (0, 1, 0))):
        table[a][b] = list(vec)
        table[b][a] = [-x for x in vec]
    identity = [[int(i == j) for j in range(3)] for i in range(3)]
    L = MetricLieAlgebra("bad", table, identity, rank=3)
    with pytest.raises(InvalidAlgebra, match="Jacobi fails"):
        L.lowered
    assert not {"brackets", "form", "lowered", "form_inv"} & set(vars(L))


def test_repeated_weights_reuse_the_cached_polynomials():
    relations = [rel for k in range(4) for rel in ihx_relations(k).relations]
    algebras = [builtin(name) for name in ("sl2", "gl2", "gl3")]

    def one_pass():
        for L in algebras:
            for rel in relations:
                assert weight_vector(L, rel) == 0

    one_pass()
    before = gl_polynomial.cache_info()
    one_pass()
    after = gl_polynomial.cache_info()
    assert after.misses == before.misses and after.hits > before.hits
