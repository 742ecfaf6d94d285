"""Graph presentations, orientation signs, canonical forms, text format.

The exhaustive checks below generate every presentation of a small graph
reachable by relabeling and edge reversal, tracking the sign from first
principles (relabeling parity times -1 per reversal).  That brute walk
is the oracle the canonical form is measured against.
"""
from __future__ import annotations

import itertools
import random

import pytest

from graphgenus.graph_core import (
    BadIndex, Graph, GraphParseError, InvalidOrientation, OddWheel,
    OrientedGraph, SelfLoop, ValenceMismatch, canonical_form, concat,
    empty_graph, format_graph, format_oriented, from_cyclic, is_isomorphic,
    line, make_graph, parse_graph, perm_sign, theta, to_cyclic, weld_all, wheel,
)
from conftest import random_unitrivalent, relabel, represent

K4 = Graph((3, 3, 3, 3), ((0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3)))
# double edges 0-2 and 1-3
DBL = Graph((3, 3, 3, 3), ((0, 2), (0, 2), (0, 3), (1, 2), (1, 3), (1, 3)))
CLAW = Graph((3, 1, 1, 1), ((0, 1), (0, 2), (0, 3)))


# ---------------------------------------------------------------------------
# construction


def test_make_graph_accepts_theta():
    g = make_graph(2, (3, 3), [(0, 1), (0, 1), (0, 1)])
    assert g == theta()
    assert g.is_trivalent and g.n == 2


def test_make_graph_rejects_self_loop():
    with pytest.raises(SelfLoop):
        make_graph(2, (3, 1), [(0, 0), (0, 1)])


def test_make_graph_rejects_bad_index():
    with pytest.raises(BadIndex):
        make_graph(2, (1, 1), [(0, 2)])


def test_make_graph_rejects_valence_mismatch():
    with pytest.raises(ValenceMismatch):
        make_graph(2, (3, 3), [(0, 1), (0, 1)])
    with pytest.raises(ValenceMismatch):
        make_graph(1, (2,), [])
    with pytest.raises(ValenceMismatch):
        make_graph(3, (1, 1), [(0, 1)])


def test_builders():
    assert line().legs() == (0, 1)
    assert theta().legs() == ()
    assert empty_graph().n == 0
    assert CLAW.degree(0) == 3 and CLAW.legs() == (1, 2, 3)


def test_components():
    g = concat(theta(), line())
    assert g.components() == [(0, 1), (2, 3)]
    assert theta().components() == [(0, 1)]
    assert empty_graph().components() == []


# ---------------------------------------------------------------------------
# cyclic data


def test_to_cyclic_reference_has_sorted_triples():
    cyc, sign = to_cyclic(theta())
    assert cyc[0] == ((0, 0), (1, 0), (2, 0))
    assert cyc[1] == ((0, 1), (1, 1), (2, 1))
    # both directions report the same relative sign
    assert from_cyclic(theta(), cyc) == sign


def test_from_cyclic_rotation_invariant():
    g = theta()
    cyc, _ = to_cyclic(g)
    base = from_cyclic(g, cyc)
    rotated = dict(cyc)
    a, b, c = rotated[0]
    rotated[0] = (b, c, a)
    assert from_cyclic(g, rotated) == base
    rotated[0] = (c, a, b)
    assert from_cyclic(g, rotated) == base


def test_from_cyclic_transposition_flips():
    g = theta()
    cyc, _ = to_cyclic(g)
    swapped = dict(cyc)
    a, b, c = swapped[0]
    swapped[0] = (b, a, c)
    assert from_cyclic(g, swapped) == -from_cyclic(g, cyc)


def test_from_cyclic_rejects_a_repeated_flag():
    g = theta()
    cyc, _ = to_cyclic(g)
    a, b, _ = cyc[0]
    with pytest.raises(InvalidOrientation):
        from_cyclic(g, {**cyc, 0: (a, b, a)})


# ---------------------------------------------------------------------------
# canonical form: exhaustive presentation walk as the oracle


def all_presentations(g: Graph):
    """Every (presentation, sign) from relabelings and edge reversals."""
    for sigma in itertools.permutations(range(g.n)):
        base_sign = perm_sign(list(sigma))
        valences = [0] * g.n
        for v, k in enumerate(g.valences):
            valences[sigma[v]] = k
        relabeled = [(sigma[a], sigma[b]) for a, b in g.edges]
        for mask in range(1 << len(relabeled)):
            edges = []
            sign = base_sign
            for i, (a, b) in enumerate(relabeled):
                if mask >> i & 1:
                    edges.append((b, a))
                    sign = -sign
                else:
                    edges.append((a, b))
            yield Graph(tuple(valences), tuple(edges)), sign


def brute_zero(g: Graph) -> bool:
    """True when some presentation recurs with both signs (AS zero).

    Edge list order is not orientation data, so presentations are keyed
    by their sorted edge tuple.
    """
    seen: dict[Graph, int] = {}
    for h, s in all_presentations(g):
        key = Graph(h.valences, tuple(sorted(h.edges)))
        if seen.setdefault(key, s) != s:
            return True
    return False


@pytest.mark.parametrize("g,expect_zero", [
    (theta(), False),
    (line(), False),
    (CLAW, True),
    (wheel(2), False),
    (K4, False),
    (DBL, False),
    (concat(theta(), theta()), False),
])
def test_zero_detection_matches_brute_walk(g, expect_zero):
    assert brute_zero(g) == expect_zero
    og = canonical_form(g)
    assert (og.sign_state == 0) == expect_zero


@pytest.mark.parametrize("g", [theta(), line(), wheel(2), K4, DBL])
def test_canonical_consistent_over_all_presentations(g):
    og = canonical_form(g)
    for h, s in all_presentations(g):
        oh = canonical_form(h)
        assert oh.graph == og.graph
        assert oh.sign_state == s * og.sign_state


def test_canonical_idempotent():
    for g in (theta(), K4, DBL, CLAW, wheel(4), random_unitrivalent(random.Random(3))):
        og = canonical_form(g)
        again = canonical_form(og.graph)
        assert again.graph == og.graph
        assert again.sign_state in (0, 1)
        assert (again.sign_state == 0) == (og.sign_state == 0)


def test_canonical_of_empty():
    og = canonical_form(empty_graph())
    assert og.graph == empty_graph() and og.sign_state == 1


def test_canonical_cache_reports_size_and_clears():
    canonical_form.cache_clear()
    assert canonical_form.cache_info().currsize == 0
    first = canonical_form(K4)
    assert canonical_form(K4) is first
    info = canonical_form.cache_info()
    assert (info.hits, info.misses, info.currsize) == (1, 1, 1)


# ---------------------------------------------------------------------------
# randomized sign laws


def test_random_representations_consistent():
    rng = random.Random(20240416)
    for _ in range(60):
        g = random_unitrivalent(rng, max_vertices=8)
        og = canonical_form(g)
        for _ in range(5):
            h, pred = represent(rng, g)
            oh = canonical_form(h)
            assert oh.graph == og.graph
            assert oh.sign_state == pred * og.sign_state


def test_single_transposition_negates():
    rng = random.Random(99)
    for _ in range(200):
        g = random_unitrivalent(rng, max_vertices=8)
        if g.n < 2:
            continue
        i, j = rng.sample(range(g.n), 2)
        sigma = list(range(g.n))
        sigma[i], sigma[j] = sigma[j], sigma[i]
        valences = [0] * g.n
        for v, k in enumerate(g.valences):
            valences[sigma[v]] = k
        h = Graph(tuple(valences),
                  tuple((sigma[a], sigma[b]) for a, b in g.edges))
        assert is_isomorphic(g, h) in (0, -1)
        assert canonical_form(h).sign_state == -canonical_form(g).sign_state


def test_single_edge_reversal_negates():
    rng = random.Random(100)
    for _ in range(200):
        g = random_unitrivalent(rng, max_vertices=8)
        e = rng.randrange(len(g.edges))
        edges = list(g.edges)
        a, b = edges[e]
        edges[e] = (b, a)
        h = Graph(g.valences, tuple(edges))
        assert canonical_form(h).sign_state == -canonical_form(g).sign_state


# ---------------------------------------------------------------------------
# isomorphism and disjoint union


def test_is_isomorphic_cases():
    assert is_isomorphic(theta(), theta()) == 1
    permuted = Graph((3, 3), ((1, 0), (0, 1), (0, 1)))
    assert is_isomorphic(theta(), permuted) == -1
    assert is_isomorphic(theta(), line()) is None
    assert is_isomorphic(CLAW, CLAW) == 0
    assert is_isomorphic(wheel(4), concat(wheel(2), wheel(2))) is None


def test_disjoint_union_commutes():
    a, b = wheel(2), theta()
    assert canonical_form(concat(a, b)) == canonical_form(concat(b, a))
    g = random_unitrivalent(random.Random(8))
    assert canonical_form(concat(g, empty_graph())) == canonical_form(g)


def test_concat_shifts_labels():
    g = concat(theta(), line())
    assert g.valences == (3, 3, 1, 1)
    assert g.edges == ((0, 1), (0, 1), (0, 1), (2, 3))


# ---------------------------------------------------------------------------
# wheels


def test_wheel_shapes():
    w2 = wheel(2)
    assert sorted(w2.valences) == [1, 1, 3, 3]
    assert len(w2.edges) == 4
    w4 = wheel(4)
    assert sorted(w4.valences) == [1, 1, 1, 1, 3, 3, 3, 3]
    assert len(w4.edges) == 8
    assert canonical_form(w2).sign_state != 0
    assert canonical_form(w4).sign_state != 0


def test_wheel_rejects_odd_or_tiny():
    for n in (1, 3, 5, 0, -2):
        with pytest.raises(OddWheel):
            wheel(n)


def test_wheel_stored_presentation_is_planar():
    # the stored edges realize the anticlockwise cyclic data with sign +1
    for n in (2, 4, 6):
        g = wheel(n)
        cyclic = {}
        for i in range(n):
            hub = {}
            for e, (a, b) in enumerate(g.edges):
                if a == i:
                    hub[e] = hub.get(e, []) + [(e, 0)]
                if b == i:
                    hub[e] = hub.get(e, []) + [(e, 1)]
            prev_e, next_e, spoke_e = (i - 1) % n, i, n + i
            take = lambda e: hub[e].pop(0)
            cyclic[i] = (take(prev_e), take(next_e), take(spoke_e))
        assert from_cyclic(g, cyclic) == 1


# ---------------------------------------------------------------------------
# welding


def test_weld_two_lines_into_one():
    g = concat(line(), line())
    out = weld_all(g, [(1, 2)])
    assert out is not None
    welded, sign = out
    assert sign in (1, -1)
    assert is_isomorphic(welded, line()) is not None


def test_weld_line_onto_itself_gives_circle():
    assert weld_all(line(), [(0, 1)]) is None


def test_weld_claw_legs_makes_self_loop():
    assert weld_all(CLAW, [(1, 2)]) is None


def test_weld_closes_wheel_rim():
    # welding consecutive spoke tips of a 2-wheel yields the theta class
    g = wheel(2)
    legs = g.legs()
    out = weld_all(g, [(legs[0], legs[1])])
    assert out is not None
    welded, _ = out
    assert is_isomorphic(welded, theta()) is not None


@pytest.mark.parametrize("g, pairs, message", [
    (concat(line(), line()), [(1, 1)], "bad weld pair (1, 1)"),
    (concat(line(), line()), [(1, 2), (2, 3)], "bad weld pair (2, 3)"),
    (concat(line(), line()), [(1, 2), (0, 1)], "bad weld pair (0, 1)"),
    (CLAW, [(0, 1)], "weld pair (0, 1) must name univalent vertices"),
    (concat(line(), CLAW), [(1, 3), (2, 4)], "weld pair (2, 4) must name univalent vertices"),
], ids=["repeated-vertex", "welded-leg", "welded-leg-first", "trivalent", "trivalent-later"])
def test_weld_rejects_a_bad_pair(g, pairs, message):
    with pytest.raises(BadIndex) as info:
        weld_all(g, pairs)
    assert str(info.value) == message


def test_welding_commutes_with_re_presentation():
    # a relabelling, edge reversals and an edge shuffle, the pairs mapped
    # along, give the same class and sign as welding first
    rng = random.Random(34)
    welded = 0
    for _ in range(300):
        g = random_unitrivalent(rng, max_vertices=10)
        legs = list(g.legs())
        if len(legs) < 2:
            continue
        rng.shuffle(legs)
        pairs = list(zip(legs[0::2], legs[1::2]))[:rng.randint(1, len(legs) // 2)]
        h, sign, sigma = relabel(rng, g)
        before = weld_all(g, pairs)
        after = weld_all(h, [(sigma[u], sigma[w]) for u, w in pairs])
        assert (before is None) == (after is None)
        if before is None:
            continue
        c1, c2 = canonical_form(before[0]), canonical_form(after[0])
        assert c1.graph == c2.graph
        assert sign * before[1] * c1.sign_state == after[1] * c2.sign_state
        welded += 1
    assert welded > 100


# ---------------------------------------------------------------------------
# text format


def test_format_theta_exact():
    assert format_graph(theta()) == \
        "graph { vertices 2 ; edge 0 1 ; edge 0 1 ; edge 0 1 ; }"


def test_format_declares_leg_valences():
    assert format_graph(line()) == \
        "graph { vertices 2 ; valence 0 1 ; valence 1 1 ; edge 0 1 ; }"


def test_format_oriented_exact():
    assert format_oriented(canonical_form(theta())) == \
        "sign +1\ngraph { vertices 2 ; edge 0 1 ; edge 0 1 ; edge 0 1 ; }"
    assert format_oriented(canonical_form(CLAW)).startswith("sign 0\n")


def test_parse_round_trip():
    rng = random.Random(5)
    graphs = [theta(), line(), K4, DBL, CLAW, wheel(4), empty_graph()]
    graphs += [random_unitrivalent(rng) for _ in range(10)]
    for g in graphs:
        assert parse_graph(format_graph(g)) == g


def test_parse_multiline_with_permuted_statements():
    text = """graph {
      vertices 2 ;
      edge 1 0 ;
      edge 0 1 ;
      edge 0 1 ;
    }"""
    g = parse_graph(text)
    assert g.valences == (3, 3)
    assert g.edges == ((1, 0), (0, 1), (0, 1))


def test_parse_self_loop_reports_line():
    text = "graph {\n vertices 2 ;\n edge 0 0 ;\n edge 0 1 ;\n}"
    with pytest.raises(GraphParseError) as info:
        parse_graph(text)
    assert str(info.value) == "SelfLoop at line 3"
    assert info.value.lineno == 3


def test_parse_bad_index_reports_line():
    text = "graph { vertices 1 ;\n edge 0 4 ; }"
    with pytest.raises(GraphParseError) as info:
        parse_graph(text)
    assert str(info.value) == "BadIndex at line 2"


def test_parse_undeclared_leg_valence_rejected():
    with pytest.raises(GraphParseError) as info:
        parse_graph("graph { vertices 2 ; edge 0 1 ; }")
    assert "valence 1 must be declared" in str(info.value)


def test_parse_valence_mismatch():
    with pytest.raises(GraphParseError) as info:
        parse_graph("graph { vertices 2 ; valence 0 3 ; valence 1 1 ; edge 0 1 ; }")
    assert "ValenceMismatch" in str(info.value)


def test_make_graph_names_the_fault():
    with pytest.raises(SelfLoop) as info:
        make_graph(3, (3, 1, 1), [(0, 1), (0, 0), (0, 2), (1, 9)])
    assert (info.value.edge, info.value.vertex) == (1, None)
    with pytest.raises(ValenceMismatch) as info:
        make_graph(2, (1, 3), [(0, 1)])
    assert (info.value.edge, info.value.vertex) == (None, 1)
    # vertex 1 has too many incidences, vertex 2 a valence of 2: vertex 1 is named
    with pytest.raises(ValenceMismatch) as info:
        make_graph(4, (1, 1, 2, 3), [(0, 1), (1, 2), (2, 3), (3, 1)])
    assert (info.value.edge, info.value.vertex) == (None, 1)
    assert str(info.value) == "vertex 1 has valence 1 but 3 incidences"


def test_parse_declared_valence_mismatch_reports_its_line():
    with pytest.raises(GraphParseError) as info:
        parse_graph("graph { vertices 2 ;\n valence 0 1 ;\n valence 1 3 ;\n edge 0 1 ; }")
    assert info.value.lineno == 3
    assert str(info.value).startswith("ValenceMismatch: vertex 1 ")


def test_parse_vertex_count_bounded_by_edge_ends():
    assert parse_graph("graph { vertices 0 ; }") == empty_graph()
    for count in (-1, 3):
        with pytest.raises(GraphParseError, match="outside 0..2"):
            parse_graph(f"graph {{ vertices {count} ; edge 0 1 ; }}")


def test_parse_structural_errors():
    cases = [
        ("graph { edge 0 1 ; }", "graph block must declare vertices", 1),
        ("graph {\n edge 0 1 ;\n}", "graph block must declare vertices", 1),
        ("graph { vertices 2 ;", "unterminated graph block", 1),
        ("graph {\n vertices 2 ;\n", "unterminated graph block", 2),
        ("graph {", "unterminated graph block", 1),
        ("graph { vertices two ; }", "expected an integer, found 'two'", 1),
        ("graph {\n vertices 2 ;\n edge 0 x ; }", "expected an integer, found 'x'", 3),
        ("graph { vertices 0 ; } trailing", "trailing input 'trailing'", 1),
        ("graph { vertices 0 ; }\n\n more", "trailing input 'more'", 3),
        ("graph { frobnicate 1 ; vertices 0 ; }", "unknown statement 'frobnicate'", 1),
        ("graph { vertices 0 }", "expected ';', found '}'", 1),
        ("graph { vertices 2 ;\n edge 0 1 edge 0 1 ; }", "expected ';', found 'edge'", 2),
        ("graph\n vertices 0 ; }", "expected '{', found 'vertices'", 2),
        ("grph { vertices 0 ; }", "expected 'graph', found 'grph'", 1),
        ("", "unexpected end of input", 1),
        ("graph {\nvertices", "unexpected end of input", 2),
        ("graph { valence 0", "unexpected end of input", 1),
    ]
    for text, message, lineno in cases:
        with pytest.raises(GraphParseError) as info:
            parse_graph(text)
        assert (info.value.message, info.value.lineno) == (message, lineno), text
        assert str(info.value) == f"{message} at line {lineno}"

