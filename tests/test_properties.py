"""Property tests: GraphVector linearity and canonical-form invariance."""
from __future__ import annotations

import random
from fractions import Fraction as F

import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st

from graphgenus.graph_algebra import GraphVector, add, scale
from graphgenus.graph_core import canonical_form
from conftest import random_unitrivalent, represent

# a seeded Random keeps hypothesis' own draws small: it shrinks the seed
rngs = st.integers(0, 2 ** 32).map(random.Random)
fractions = st.fractions(min_value=-20, max_value=20, max_denominator=12)


@st.composite
def vectors(draw):
    """A sum of random presentations; shares graphs often enough that
    terms merge and cancel."""
    rng = draw(rngs)
    v = GraphVector.zero()
    for c in draw(st.lists(fractions, max_size=8)):
        v = v + GraphVector.from_graph(random_unitrivalent(rng, max_vertices=6), c)
    return v


@settings(deadline=None)
@given(rngs)
def test_canonical_form_invariant_under_representation(rng):
    g = random_unitrivalent(rng, max_vertices=8)
    h, pred = represent(rng, g)
    og, oh = canonical_form(g), canonical_form(h)
    assert oh.graph == og.graph
    assert oh.sign_state == pred * og.sign_state


@settings(deadline=None)
@given(vectors(), vectors(), fractions, fractions)
def test_vector_operations_are_linear(u, v, a, b):
    assert add(u, v) == add(v, u)
    assert scale(a, add(u, v)) == add(scale(a, u), scale(a, v))
    assert scale(a + b, u) == add(scale(a, u), scale(b, u))
    assert scale(a, scale(b, u)) == scale(a * b, u)
    assert not add(u, scale(-1, u))
    w = add(scale(a, u), scale(b, v))
    for g, _ in add(u, v).items():
        assert w.coefficient(g) == a * u.coefficient(g) + b * v.coefficient(g)


@settings(deadline=None)
@given(rngs, fractions)
def test_insertion_is_linear_in_the_presentation_sign(rng, c):
    g = random_unitrivalent(rng, max_vertices=8)
    h, pred = represent(rng, g)
    assert GraphVector.from_graph(h, c) == GraphVector.from_graph(g, c * pred)
    assert GraphVector.from_graph(h, c).coefficient(g) == \
        (c * pred if canonical_form(g).sign_state else F(0))
