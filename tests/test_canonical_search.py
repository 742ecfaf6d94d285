"""The orbit-pruned canonical labelling against the plain search it
replaced, which lives here only as a referee.

The referee walks every label assignment (cut off only by the partial
key), so it visits each optimal labelling and reads the sign of every
one; the pruned search must return the same (graph, sign_state).  Highly
symmetric products that the referee cannot finish are pinned by the
networkx isomorphism referee and the sign predicted by
``conftest.represent``.
"""
from __future__ import annotations

import random
from functools import cache

import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st

from graphgenus.graph_algebra import _classes, enumerate_trivalent
from graphgenus.graph_core import (
    Graph, OrientedGraph, canonical_form, concat, line, perm_sign, theta, wheel,
)
from conftest import check_automorphisms, random_unitrivalent, represent


def referee_canonical_form(g: Graph) -> OrientedGraph:
    """Least relabeled presentation by walking all label assignments,
    pruned level by level on the partial adjacency key; every assignment
    that attains the least key contributes its sign."""
    n = g.n
    base_sign = 1
    norm_edges = []
    for a, b in g.edges:
        if a > b:
            a, b = b, a
            base_sign = -base_sign
        norm_edges.append((a, b))

    neighbors: list[list[int]] = [[] for _ in range(n)]
    for a, b in norm_edges:
        neighbors[a].append(b)
        neighbors[b].append(a)

    univalent = [v for v in range(n) if g.valences[v] == 1]
    trivalent = [v for v in range(n) if g.valences[v] == 3]
    slots = [1] * len(univalent) + [3] * len(trivalent)

    best_key: list[tuple[int, ...]] | None = None
    best_signs: set[int] = set()
    assigned_pos: dict[int, int] = {}
    prefix: list[tuple[int, ...]] = []

    def level_key(v: int) -> tuple[int, ...]:
        return tuple(sorted(assigned_pos[u] for u in neighbors[v] if u in assigned_pos))

    def complete_sign() -> int:
        perm = [assigned_pos[v] for v in range(n)]
        sgn = perm_sign(perm)
        reversals = sum(1 for a, b in norm_edges if assigned_pos[a] > assigned_pos[b])
        return sgn * (-1 if reversals % 2 else 1)

    def prefix_state() -> int:
        """-1 prefix beats best, 0 equal so far, +1 prefix already loses."""
        if best_key is None:
            return -1
        for i, kv in enumerate(prefix):
            if kv < best_key[i]:
                return -1
            if kv > best_key[i]:
                return 1
        return 0

    def descend(depth: int):
        nonlocal best_key, best_signs
        if depth == n:
            key = list(prefix)
            if best_key is None or key < best_key:
                best_key = key
                best_signs = {complete_sign()}
            elif key == best_key:
                best_signs.add(complete_sign())
            return
        state = prefix_state()
        if state == 1:
            return
        want = slots[depth]
        candidates = [v for v in range(n)
                      if v not in assigned_pos and g.valences[v] == want]
        scored = sorted(((level_key(v), v) for v in candidates))
        for key_v, v in scored:
            if state == 0 and best_key is not None and key_v > best_key[depth]:
                break
            assigned_pos[v] = depth
            prefix.append(key_v)
            descend(depth + 1)
            prefix.pop()
            del assigned_pos[v]
            state = prefix_state()
            if state == 1:
                return

    descend(0)
    assert best_key is not None
    canon_edges = sorted((lo, hi) for hi, lows in enumerate(best_key) for lo in lows)
    canon = Graph(tuple(sorted(g.valences)), tuple(canon_edges))
    if len(best_signs) == 2:
        return OrientedGraph(canon, 0)
    return OrientedGraph(canon, base_sign * best_signs.pop())


def product_of(factors) -> Graph:
    g = Graph((), ())
    for f in factors:
        g = concat(g, f)
    return g


@cache
def small_classes() -> list[Graph]:
    return sorted((og.graph for k in range(5) for og in _classes(k)),
                  key=lambda g: (g.n, g.edges))


FACTORS = (theta(), line(), wheel(2), wheel(4))
rngs = st.integers(0, 2 ** 32).map(random.Random)


@st.composite
def presentations(draw):
    """A random unitrivalent graph on up to 10 vertices, a re-presented
    trivalent class of degree <= 4, or a re-presented product of thetas,
    lines and wheels on up to 10 vertices."""
    rng = draw(rngs)
    family = draw(st.sampled_from(("random", "class", "product")))
    if family == "random":
        return random_unitrivalent(rng, max_vertices=10)
    if family == "class":
        g = draw(st.sampled_from(small_classes()))
    else:
        factors = draw(st.lists(st.sampled_from(FACTORS), min_size=1, max_size=6))
        g = product_of(factors)
        while g.n > 10:
            factors.pop()
            g = product_of(factors)
    return represent(rng, g)[0]


@settings(deadline=None, max_examples=300)
@given(presentations())
def test_pruned_search_matches_the_referee(g):
    assert canonical_form.__wrapped__(g) == referee_canonical_form(g)


PARTITIONS = ((1,), (2,), (1, 1), (3,), (2, 1), (1, 1, 1),
              (4,), (3, 1), (2, 2), (2, 1, 1), (1, 1, 1, 1))
FAMILIES = (
    [(f"w{''.join(map(str, lam))}", [wheel(2 * l) for l in lam]) for lam in PARTITIONS]
    + [(f"line^{m}.w{l}", [line()] * m + [wheel(2 * l)]) for m in (1, 2) for l in (1, 2)]
    + [(f"theta^{m}", [theta()] * m) for m in range(1, 6)])


@pytest.mark.parametrize("factors", [f for _, f in FAMILIES], ids=[i for i, _ in FAMILIES])
def test_lazy_numbering_matches_the_referee_on_products(factors):
    # wheel products w_2lambda with |lambda| <= 4, lines joined to wheels
    # and theta powers: runs of many untouched vertices and large groups
    h = represent(random.Random(len(factors)), product_of(factors))[0]
    og = canonical_form.__wrapped__(h)
    assert og == referee_canonical_form(h)
    check_automorphisms(og)


def test_lazy_numbering_matches_the_referee_with_up_to_eight_legs():
    rng = random.Random(31)
    seen = set()
    while len(seen) < 40:
        g = random_unitrivalent(rng, max_vertices=12)
        if not 5 <= len(g.legs()) <= 8:
            continue
        seen.add(g)
        og = canonical_form.__wrapped__(g)
        assert og == referee_canonical_form(g), g
        check_automorphisms(og)


@settings(deadline=None, max_examples=200)
@given(presentations())
def test_recorded_automorphisms_are_automorphisms(g):
    check_automorphisms(canonical_form.__wrapped__(g))


def test_class_corpus_has_zero_and_nonzero_classes():
    # the property above must meet both verdicts among the classes
    assert {referee_canonical_form(g).sign_state for g in small_classes()} == {0, 1}


def _nx_isomorphic(g: Graph, h: Graph) -> bool:
    nx = pytest.importorskip("networkx")
    graphs = []
    for x in (g, h):
        m = nx.MultiGraph()
        m.add_nodes_from(range(x.n))
        m.add_edges_from(x.edges)
        graphs.append(m)
    return nx.is_isomorphic(*graphs)


@pytest.mark.parametrize("m", [6, 8])
def test_theta_powers_reach_their_canonical_presentation(m):
    # edge (i, i + m) three times: one vertex of every theta, then the
    # partners in the same order
    canon = Graph((3,) * (2 * m), tuple((i, i + m) for i in range(m) for _ in range(3)))
    assert canonical_form(canon) == OrientedGraph(canon, 1)
    power = product_of([theta()] * m)
    base = canonical_form(power).sign_state
    rng = random.Random(m)
    for _ in range(3):
        h, pred = represent(rng, power)
        og = canonical_form(h)
        assert og == OrientedGraph(canon, pred * base)
        assert _nx_isomorphic(og.graph, h)
        h2, pred2 = represent(rng, canon)
        assert canonical_form(h2) == OrientedGraph(canon, pred2)


def test_wheel_product_with_many_leg_orders():
    # ten legs with equal level keys: the unpruned search walks 10! leg
    # orders times every tie below them
    g = product_of([wheel(2), wheel(2), wheel(2), wheel(4)])
    og = canonical_form(g)
    assert og.sign_state != 0
    check_automorphisms(og)
    assert _nx_isomorphic(og.graph, g)
    assert canonical_form(og.graph) == OrientedGraph(og.graph, 1)
    h, pred = represent(random.Random(7), g)
    assert canonical_form(h) == OrientedGraph(og.graph, pred * og.sign_state)


def test_enumeration_reads_sign_states_without_canonicalizing_again():
    _classes(3)
    canonical_form.cache_clear()
    ogs = enumerate_trivalent(3)
    assert canonical_form.cache_info().misses == 0
    for og in ogs:
        assert og.sign_state == (1 if canonical_form(og.graph).sign_state else 0)
