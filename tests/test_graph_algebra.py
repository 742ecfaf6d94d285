"""Vector space of oriented graphs: product, IHX reduction, and the
coproduct as a test-only referee."""
from __future__ import annotations

import itertools
import random
from fractions import Fraction as F
from functools import cache

import pytest

from graphgenus.graph_algebra import (
    BoundExceeded, DegreeMismatch, GraphVector, RelationSet, _classes,
    _ihx_relation, _orbit_firsts, _raw_ihx_relations, dimension,
    enumerate_trivalent, format_vector, ihx_relations, parse_vector, product,
    power, reduce, theta_vector, trivalent_part,
)
from graphgenus.graph_core import (
    Graph, GraphParseError, OrientedGraph, _restrict, canonical_form, concat, empty_graph, line,
    perm_sign, theta, wheel,
)
from graphgenus.scalars import accumulate
from conftest import check_automorphisms, represent

K4 = Graph((3, 3, 3, 3), ((0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3)))
DBL = Graph((3, 3, 3, 3), ((0, 2), (0, 2), (0, 3), (1, 2), (1, 3), (1, 3)))
CLAW = Graph((3, 1, 1, 1), ((0, 1), (0, 2), (0, 3)))


def basis_vectors(k: int) -> list[GraphVector]:
    return [GraphVector.from_graph(og.graph)
            for og in enumerate_trivalent(k) if og.sign_state]


def random_vector(rng, k: int) -> GraphVector:
    v = GraphVector.zero()
    for b in basis_vectors(k):
        v = v + b * F(rng.randint(-9, 9), rng.randint(1, 9))
    return v


# ---------------------------------------------------------------------------
# vector arithmetic respects the sign rules


def test_presentations_merge_with_signs():
    rng = random.Random(1)
    v = GraphVector.from_graph(theta(), F(3))
    h, sign = represent(rng, theta())
    w = v + GraphVector.from_graph(h, F(2))
    (g, c), = w.items()
    assert c == 3 + 2 * sign


def test_zero_class_insertion_vanishes():
    assert not GraphVector.from_graph(CLAW)
    assert GraphVector.from_graph(CLAW, F(5)) == GraphVector.zero()


def test_cancellation_prunes_terms():
    v = GraphVector.from_graph(K4) - GraphVector.from_graph(K4)
    assert not v and v.items() == []


def test_scale_and_coefficient():
    v = GraphVector.from_graph(K4, F(1, 2)) * F(4)
    assert v.coefficient(K4) == 2
    assert v.coefficient(theta()) == 0


# ---------------------------------------------------------------------------
# product


def test_unit_and_commutativity():
    one = GraphVector.unit()
    t = theta_vector()
    assert product(one, t) == t
    v = GraphVector.from_graph(K4) + t * F(1, 3)
    w = t - GraphVector.from_graph(DBL, F(2))
    assert product(v, w) == product(w, v)


def test_associativity_and_bilinearity():
    rng = random.Random(2)
    a, b, c = (random_vector(rng, 1), random_vector(rng, 2), random_vector(rng, 1))
    assert product(product(a, b), c) == product(a, product(b, c))
    assert product(a + c, b) == product(a, b) + product(c, b)


def test_square_of_theta_is_signed_canonical_pair():
    t2 = product(theta_vector(), theta_vector())
    (g, coeff), = t2.items()
    # the canonical presentation of the split pair absorbs a sign
    assert sorted(g.valences) == [3, 3, 3, 3]
    assert canonical_form(concat(theta(), theta())).graph == g
    assert coeff * canonical_form(concat(theta(), theta())).sign_state == 1


def test_power_matches_repeated_product():
    t = theta_vector() * F(1, 24)
    assert power(t, 0) == GraphVector.unit()
    assert power(t, 3) == product(t, product(t, t))


# ---------------------------------------------------------------------------
# coproduct: the referee that connected classes are primitive


def coproduct(v: GraphVector) -> dict[tuple[Graph, Graph], F]:
    """Sum over ordered splits of the labeled components.

    Each side inherits the relative vertex order and edge directions;
    the term's sign is the parity of the shuffle that brings the chosen
    components' vertices in front of the rest.  Keys are pairs of
    canonical graphs.
    """
    out: dict[tuple[Graph, Graph], F] = {}
    for g, c in v.terms.items():
        comps = g.components()
        for bits in range(1 << len(comps)):
            chosen = {u for i, comp in enumerate(comps) if bits >> i & 1 for u in comp}
            left = canonical_form(_restrict(g, sorted(chosen))[0])
            right = canonical_form(_restrict(g, sorted(set(range(g.n)) - chosen))[0])
            sign = perm_sign(sorted(range(g.n), key=lambda u: u not in chosen))
            accumulate(out, (left.graph, right.graph),
                       c * sign * left.sign_state * right.sign_state)
    return out


def canon_side(d):
    """Canonicalize a {(Graph, Graph): coeff} dict, folding signs."""
    out = {}
    for (a, b), c in d.items():
        ca, cb = canonical_form(a), canonical_form(b)
        c = c * ca.sign_state * cb.sign_state
        if c:
            key = (ca.graph, cb.graph)
            out[key] = out.get(key, F(0)) + c
    return {k: v for k, v in out.items() if v}


def test_coproduct_of_unit_and_connected():
    assert canon_side(coproduct(GraphVector.unit())) == \
        {(empty_graph(), empty_graph()): 1}
    for k in range(1, 4):
        for og in enumerate_trivalent(k):
            g = og.graph
            if og.sign_state and len(g.components()) == 1:
                assert canon_side(coproduct(GraphVector.from_graph(g))) == \
                    {(empty_graph(), g): 1, (g, empty_graph()): 1}


def test_coproduct_of_theta_square():
    t2 = product(theta_vector(), theta_vector())
    (pair_graph, pair_coeff), = t2.items()
    d = canon_side(coproduct(t2))
    t = theta()
    # group-like on the square: 1 (x) T^2 + 2 T (x) T + T^2 (x) 1
    assert d[(t, t)] == 2
    assert d[(empty_graph(), pair_graph)] == pair_coeff
    assert d[(pair_graph, empty_graph())] == pair_coeff
    assert len(d) == 3


def test_coproduct_counit():
    rng = random.Random(3)
    v = random_vector(rng, 2)
    left = GraphVector.zero()
    for (a, b), c in coproduct(v).items():
        if a.n == 0:
            left = left + GraphVector.from_graph(b, c)
    assert left == v


def canon_triple(d):
    out = {}
    for (a, b, c), q in d.items():
        ca, cb, cc = canonical_form(a), canonical_form(b), canonical_form(c)
        q = q * ca.sign_state * cb.sign_state * cc.sign_state
        if q:
            key = (ca.graph, cb.graph, cc.graph)
            out[key] = out.get(key, F(0)) + q
    return {k: v for k, v in out.items() if v}


def test_coproduct_coassociative_up_to_six_vertices():
    cases = [
        power(theta_vector(), 3),
        product(GraphVector.from_graph(K4), theta_vector()),
        GraphVector.from_graph(DBL) + power(theta_vector(), 2) * F(1, 7),
    ]
    for v in cases:
        lhs, rhs = {}, {}
        for (a, b), c in coproduct(v).items():
            for (a1, a2), c1 in coproduct(GraphVector.from_graph(a)).items():
                key = (a1, a2, b)
                lhs[key] = lhs.get(key, F(0)) + c * c1
            for (b1, b2), c2 in coproduct(GraphVector.from_graph(b)).items():
                key = (a, b1, b2)
                rhs[key] = rhs.get(key, F(0)) + c * c2
        assert canon_triple(lhs) == canon_triple(rhs)


def test_coproduct_multiplicative():
    rng = random.Random(4)
    v = random_vector(rng, 1)
    w = random_vector(rng, 2)
    direct = canon_side(coproduct(product(v, w)))
    conv = {}
    for (a1, b1), c1 in coproduct(v).items():
        for (a2, b2), c2 in coproduct(w).items():
            key = (concat(a1, a2), concat(b1, b2))
            conv[key] = conv.get(key, F(0)) + c1 * c2
    assert direct == canon_side(conv)


# ---------------------------------------------------------------------------
# enumeration


def test_enumeration_counts():
    assert [len(enumerate_trivalent(k)) for k in range(4)] == [1, 1, 3, 9]
    nonzero = [sum(1 for og in enumerate_trivalent(k) if og.sign_state)
               for k in range(4)]
    assert nonzero == [1, 1, 3, 7]


def test_enumeration_contents_small():
    (only,) = enumerate_trivalent(1)
    assert only.graph == theta() and only.sign_state == 1
    graphs = {og.graph for og in enumerate_trivalent(2)}
    assert canonical_form(K4).graph in graphs
    assert canonical_form(DBL).graph in graphs
    assert canonical_form(concat(theta(), theta())).graph in graphs


def test_enumeration_is_canonical_and_deduplicated():
    for k in range(4):
        ogs = enumerate_trivalent(k)
        assert len({og.graph for og in ogs}) == len(ogs)
        for og in ogs:
            assert canonical_form(og.graph).graph == og.graph
            assert all(v == 3 for v in og.graph.valences)
            assert og.graph.n == 2 * k


def test_degree_four_classes(monkeypatch):
    monkeypatch.setenv("GRAPHGENUS_MAX_K", "4")
    ogs = enumerate_trivalent(4)
    assert len(ogs) == 32
    assert sum(1 for og in ogs if og.sign_state) == 24
    connected = [sum(1 for og in enumerate_trivalent(k)
                     if len(og.graph.components()) == 1) for k in range(1, 5)]
    assert connected == [1, 2, 6, 20]  # OEIS A000421
    assert dimension(4) == 6


def _nx_graph(nx, n: int, edges):
    g = nx.MultiGraph()
    g.add_nodes_from(range(n))
    g.add_edges_from(edges)
    return g


def _labelled_cubic(n: int):
    """Every loop-free cubic multigraph on labelled vertices 0..n-1, as an
    edge list choosing a multiplicity for each vertex pair in turn."""
    pairs = list(itertools.combinations(range(n), 2))
    free = [3] * n

    def walk(i, edges):
        if i == len(pairs):
            if not any(free):
                yield edges
            return
        a, b = pairs[i]
        for m in range(min(free[a], free[b]) + 1):
            if b == n - 1 and m != free[a]:
                continue  # (a, n-1) is the last pair that can fill a
            free[a] -= m
            free[b] -= m
            yield from walk(i + 1, edges + [(a, b)] * m)
            free[a] += m
            free[b] += m

    yield from walk(0, [])


def test_networkx_referee_no_two_classes_isomorphic(monkeypatch):
    nx = pytest.importorskip("networkx")
    monkeypatch.setenv("GRAPHGENUS_MAX_K", "4")
    for k in range(5):
        graphs = [_nx_graph(nx, 2 * k, og.graph.edges)
                  for og in enumerate_trivalent(k)]
        for g1, g2 in itertools.combinations(graphs, 2):
            assert not nx.is_isomorphic(g1, g2)


def test_networkx_referee_labelled_walk_finds_the_same_classes():
    nx = pytest.importorskip("networkx")
    for k in range(4):
        found = []
        for edges in _labelled_cubic(2 * k):
            g = _nx_graph(nx, 2 * k, edges)
            if not any(nx.is_isomorphic(g, h) for h in found):
                found.append(g)
        generated = [_nx_graph(nx, 2 * k, og.graph.edges)
                     for og in enumerate_trivalent(k)]
        assert len(found) == len(generated)
        for g in found:
            assert any(nx.is_isomorphic(g, h) for h in generated)


def test_degree_five_classes(monkeypatch):
    monkeypatch.setenv("GRAPHGENUS_MAX_K", "5")
    ogs = enumerate_trivalent(5)
    assert len(ogs) == 135
    assert sum(1 for og in ogs if og.sign_state) == 86
    connected = [sum(1 for og in enumerate_trivalent(k)
                     if len(og.graph.components()) == 1) for k in range(1, 6)]
    assert connected == [1, 2, 6, 20, 91]  # OEIS A000421
    # Sym of the connected quotient, dims 1, 1, 1, 2, 2 (Bar-Natan 1995)
    assert dimension(5) == 9


# ---------------------------------------------------------------------------
# orbit pruning against the unpruned loops


@cache
def unpruned_classes(k: int) -> frozenset[OrientedGraph]:
    """Degree k grown from degree k - 1 on every pair of edges s <= t."""
    if k == 0:
        return frozenset({OrientedGraph(Graph((), ()), 1)})
    found = set()
    for c in unpruned_classes(k - 1):
        g = c.graph
        grown = [concat(g, theta())]
        for s, t in itertools.combinations_with_replacement(range(len(g.edges)), 2):
            edges = list(g.edges)
            for e, new in ((s, g.n), (t, g.n + 1)):
                a, b = edges[e]
                edges[e] = (a, new)
                edges.append((new, b))
            edges.append((g.n, g.n + 1))
            grown.append(Graph((3,) * (g.n + 2), tuple(edges)))
        for h in grown:
            og = canonical_form(h)
            found.add(OrientedGraph(og.graph, 1 if og.sign_state else 0))
    return frozenset(found)


def unpruned_ihx_relations(classes) -> list[GraphVector]:
    """The relation of every edge of every class, zero and repeated
    relations (up to a factor) dropped."""
    seen, out = set(), []
    for og in classes:
        for t in range(len(og.graph.edges)):
            total = _ihx_relation(og.graph, t)
            if not total:
                continue
            items = total.items()
            normal = tuple((g, c / items[0][1]) for g, c in items)
            if normal not in seen:
                seen.add(normal)
                out.append(total)
    return out


def test_pruned_generation_equals_the_unpruned_loops(monkeypatch):
    monkeypatch.setenv("GRAPHGENUS_MAX_K", "4")
    for k in range(5):
        assert _classes(k) == unpruned_classes(k)
        classes = enumerate_trivalent(k)
        assert _raw_ihx_relations(classes) == unpruned_ihx_relations(classes)


def test_classes_carry_genuine_automorphisms(monkeypatch):
    monkeypatch.setenv("GRAPHGENUS_MAX_K", "4")
    ogs = [og for k in range(5) for og in enumerate_trivalent(k)]
    for og in ogs:
        check_automorphisms(og)
    # the corpus meets both verdicts, and the pruning has maps to use
    assert {og.sign_state for og in ogs if og.automorphisms} == {0, 1}


def test_one_edge_and_two_pairs_per_orbit_of_theta():
    og = canonical_form(theta())
    g = og.graph
    assert og.automorphisms
    assert _orbit_firsts([(e,) for e in g.edges], og.automorphisms) == [0]
    pairs = list(itertools.combinations_with_replacement(range(3), 2))
    keys = [(g.edges[s],) if s == t else (g.edges[s], g.edges[t]) for s, t in pairs]
    assert [pairs[i] for i in _orbit_firsts(keys, og.automorphisms)] == [(0, 0), (0, 1)]


# ---------------------------------------------------------------------------
# IHX relations and reduction


def test_degree_one_has_no_relations():
    rs = ihx_relations(1)
    assert rs.relations == () and rs.rank == 0
    assert dimension(1) == 1


def test_degree_two_relation_is_frozen():
    rs = ihx_relations(2)
    assert rs.rank == 1
    rel = rs.relations[0]
    # normalized form of: -2 K4 - DBL = 0
    ratio = rel.coefficient(K4)
    assert ratio != 0
    assert rel.coefficient(DBL) * 2 == ratio
    assert rel.coefficient(canonical_form(concat(theta(), theta())).graph) == 0


def test_dimension_table():
    assert [dimension(k) for k in range(4)] == [1, 1, 2, 3]


def test_cached_relation_set_is_read_only():
    rs = ihx_relations(2)
    assert ihx_relations(2) is rs
    with pytest.raises(AttributeError):
        rs.relations.append(theta_vector())
    with pytest.raises(AttributeError):
        rs.columns.append(theta())
    with pytest.raises(TypeError):
        rs.col_index[theta()] = len(rs.columns)
    assert dimension(2) == 2


@pytest.mark.parametrize("write", [
    lambda: ihx_relations(2).echelon.add({1: 1}),
    lambda: setattr(ihx_relations(2), "k", 3),
    lambda: ihx_relations(3).relations[0].terms.clear(),
    lambda: setattr(ihx_relations(3).relations[0], "terms", {}),
], ids=["echelon", "attribute", "relation-terms", "relation-rebind"])
def test_cached_relation_set_refuses_writes(write):
    emitted = [format_vector(rel) for rel in ihx_relations(3).relations]
    with pytest.raises(AttributeError):
        write()
    assert (ihx_relations(2).k, dimension(2), dimension(3)) == (2, 2, 3)
    assert [format_vector(rel) for rel in ihx_relations(3).relations] == emitted


def test_relations_reduce_to_zero():
    for k in (2, 3):
        rs = ihx_relations(k)
        for rel in rs.relations:
            assert reduce(rel, rs) == GraphVector.zero()


def test_reduce_idempotent_and_linear():
    rng = random.Random(5)
    for k in (2, 3):
        rs = ihx_relations(k)
        for _ in range(10):
            v, w = random_vector(rng, k), random_vector(rng, k)
            rv = reduce(v, rs)
            assert reduce(rv, rs) == rv
            assert reduce(v + w, rs) == reduce(v, rs) + reduce(w, rs)
            assert reduce(v * F(3, 7), rs) == rv * F(3, 7)


def test_reduce_mod_relation_shift():
    rng = random.Random(6)
    rs = ihx_relations(2)
    v = random_vector(rng, 2)
    shifted = v + rs.relations[0] * F(5, 3)
    assert reduce(v, rs) == reduce(shifted, rs)


def test_relation_order_changes_neither_rank_nor_reduction():
    # the echelon keeps its rows fully reduced, so it depends on the span only
    rng = random.Random(8)
    for k in (1, 2, 3):
        rs = ihx_relations(k)
        shuffled = RelationSet(k, [rel * F(rng.choice([-3, -1, 2, 5]), 7) for rel in
                                   rng.sample(rs.relations, len(rs.relations))], rs.columns)
        assert shuffled.rank == rs.rank
        for _ in range(10):
            v = random_vector(rng, k)
            assert shuffled.reduce_vector(v) == rs.reduce_vector(v)


def test_reduce_k4_hits_double_edge_class():
    red = reduce(GraphVector.from_graph(K4))
    assert red == GraphVector.from_graph(DBL, F(-1, 2))


def test_reduce_infers_degree_and_rejects_mixed():
    assert reduce(theta_vector()) == theta_vector()
    mixed = theta_vector() + GraphVector.from_graph(K4)
    with pytest.raises(DegreeMismatch):
        reduce(mixed)


def test_reduce_rejects_non_trivalent():
    with pytest.raises(DegreeMismatch):
        reduce(GraphVector.from_graph(line()))


def test_reduced_coordinates_are_a_section():
    # reduce projects onto span of non-pivot columns: rank + dim = classes
    for k in (2, 3):
        rs = ihx_relations(k)
        assert rs.rank + dimension(k) == len(rs.columns)


# ---------------------------------------------------------------------------
# trivalent part


def test_trivalent_part_filters():
    v = theta_vector() + GraphVector.from_graph(wheel(2), F(2))
    assert trivalent_part(v) == theta_vector()
    assert trivalent_part(GraphVector.unit()) == GraphVector.unit()


# ---------------------------------------------------------------------------
# degree bound


def test_degree_bound_guards_expensive_calls(monkeypatch):
    monkeypatch.delenv("GRAPHGENUS_MAX_K", raising=False)
    with pytest.raises(BoundExceeded):
        ihx_relations(4)
    with pytest.raises(BoundExceeded):
        dimension(5)
    monkeypatch.setenv("GRAPHGENUS_MAX_K", "2")
    with pytest.raises(BoundExceeded):
        dimension(3)
    monkeypatch.setenv("GRAPHGENUS_MAX_K", "4")
    assert dimension(3) == 3  # raised bound admits k=3 again


# ---------------------------------------------------------------------------
# vector text format


def test_format_vector_exact():
    v = GraphVector.from_graph(K4) + GraphVector.from_graph(DBL, F(1, 3))
    assert format_vector(v) == (
        "coeff 1 graph { vertices 4 ; edge 0 1 ; edge 0 2 ; edge 0 3 ; "
        "edge 1 2 ; edge 1 3 ; edge 2 3 ; }\n"
        "coeff 1/3 graph { vertices 4 ; edge 0 2 ; edge 0 2 ; edge 0 3 ; "
        "edge 1 2 ; edge 1 3 ; edge 1 3 ; }")


def test_format_zero_vector():
    assert format_vector(GraphVector.zero()) == "coeff 0 graph { vertices 0 ; }"
    assert parse_vector(format_vector(GraphVector.zero())) == GraphVector.zero()


def test_vector_round_trip():
    rng = random.Random(7)
    for k in (0, 1, 2, 3):
        v = random_vector(rng, k)
        assert parse_vector(format_vector(v)) == v


def test_parse_vector_accepts_sign_lines_and_bare_blocks():
    block = "graph { vertices 2 ; edge 0 1 ; edge 0 1 ; edge 0 1 ; }"
    assert parse_vector(block) == theta_vector()
    assert parse_vector(f"sign -1\n{block}") == -theta_vector()
    assert parse_vector(f"sign 0\n{block}") == GraphVector.zero()


def test_vector_reader_errors():
    block = "graph { vertices 0 ; }"
    cases = [
        (f"sign 2 {block}", "bad sign '2'", 1),
        (f"sign\n +2\n {block}", "bad sign '+2'", 2),
        ("sign", "unexpected end of input", 1),
        ("coeff", "unexpected end of input", 1),
        (f"coeff 1 {block}\ncoeff", "unexpected end of input", 2),
        ("coeff 1\n", "unexpected end of input", 1),
        (f"coeff x {block}", "bad rational 'x'", 1),
        (f"coeff 1 {block}\ncoeff\n 1/0 {block}", "bad rational '1/0'", 3),
        (f"coeff 1 {block} {block} ;", "expected 'graph', found ';'", 1),
    ]
    for text, message, lineno in cases:
        with pytest.raises(GraphParseError) as info:
            parse_vector(text)
        assert (info.value.message, info.value.lineno) == (message, lineno), text


def test_parse_vector_sums_concatenated_streams():
    rs = ihx_relations(2)
    text = "\n".join(format_vector(r) for r in rs.relations)
    total = GraphVector.zero()
    for r in rs.relations:
        total = total + r
    assert parse_vector(text) == total
