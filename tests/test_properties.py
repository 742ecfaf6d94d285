"""Property tests: GraphVector linearity, canonical-form invariance,
record hashing and the CLI's error contract."""
from __future__ import annotations

import io
import random
from contextlib import redirect_stderr, redirect_stdout
from fractions import Fraction as F
from pathlib import Path

import pytest

pytest.importorskip("hypothesis")
from hypothesis import example, given, settings, strategies as st

from graphgenus.cli import CHERN_FLAGS, main as cli_main
from graphgenus.genus import CharPowerSeries, ChernData
from graphgenus.graph_algebra import GraphVector, enumerate_trivalent
from graphgenus.graph_core import canonical_form
from graphgenus.hk_analysis import ManifoldData
from graphgenus.lie_oracle import weight, weight_vector
from graphgenus.scalars import PiScalar
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
    assert u + v == v + u
    assert (u + v) * a == u * a + v * a
    assert u * (a + b) == u * a + u * b
    assert (u * b) * a == u * (a * b)
    assert not u + u * -1
    w = u * a + v * b
    for g, _ in (u + v).items():
        assert w.coefficient(g) == a * u.coefficient(g) + b * v.coefficient(g)


@settings(deadline=None)
@given(rngs, fractions)
def test_insertion_is_linear_in_the_presentation_sign(rng, c):
    g = random_unitrivalent(rng, max_vertices=8)
    h, pred = represent(rng, g)
    assert GraphVector.from_graph(h, c) == GraphVector.from_graph(g, c * pred)
    assert GraphVector.from_graph(h, c).coefficient(g) == \
        (c * pred if canonical_form(g).sign_state else F(0))


CLASSES = [og.graph for k in range(4) for og in enumerate_trivalent(k) if og.sign_state]


@settings(deadline=None)
@given(st.lists(st.tuples(st.sampled_from(CLASSES), fractions), max_size=10),
       st.integers(1, 4))
def test_weight_vector_is_the_sum_of_the_weights(terms, N):
    v = GraphVector.zero()
    for g, c in terms:
        v = v + GraphVector.from_graph(g, c)
    w = weight_vector(N, v)
    assert isinstance(w, F)
    assert w == sum((c * weight(N, g) for g, c in terms), F(0))


@settings(deadline=None)
@given(fractions, st.integers(-3, 3), st.integers(-3, 3), st.integers(1, 4))
def test_equal_records_and_numbers_hash_equal(coef, pi2, grade, k):
    positive = PiScalar(abs(coef) + 1, pi2)
    pairs = [
        (PiScalar(coef, pi2), PiScalar.of(coef, pi2)),
        (PiScalar(coef), coef),
        (PiScalar(coef.numerator), coef.numerator),
        (PiScalar(0, pi2), PiScalar(0, grade)),
        (PiScalar(0, pi2), 0),
        (positive.root(k), (positive ** 2).root(2 * k)),
        (CharPowerSeries([coef, 1], 2), CharPowerSeries([coef, F(1), 0], 2)),
        (ManifoldData(1, ChernData(1, {(2,): 24}), positive, PiScalar(coef ** 2)),
         ManifoldData(1, ChernData(1, {(2,): F(24)}), PiScalar.of(positive.coef, pi2),
                      PiScalar.of(coef ** 2))),
    ]
    for x, y in pairs:
        assert x == y and hash(x) == hash(y)


# ---------------------------------------------------------------------------
# error contract: exit 0, 1 or 2 and never a traceback, whatever the scalars

ints = st.integers(-10 ** 6, 10 ** 6)
literals = st.one_of(
    st.builds("{}/{}".format, ints, st.integers(0, 1000)),
    st.builds("{}/{}*pi^{}".format, ints, st.integers(1, 1000),
              st.integers(-6, 6).map(lambda m: 2 * m)),
    st.builds("{}e{}".format, ints, st.integers(-800, 800)),
)
# K3 and its Hilbert schemes pass every verdict, so exit 0 is reachable
HILBERT_CHERN = {1: ("24",), 2: ("828", "324"), 3: ("36800", "14720", "3200")}


@st.composite
def analyze_argv(draw):
    k = draw(st.integers(1, 3))
    argv = ["analyze", f"--k={k}", f"--vol={draw(literals)}"]
    known = draw(st.booleans())
    for (name, _), value in zip(CHERN_FLAGS[k], HILBERT_CHERN[k]):
        argv.append(f"--{name}={value if known else draw(literals)}")
    if draw(st.booleans()):
        argv.append(f"--normRsq={draw(literals)}")
    if draw(st.booleans()):
        argv.append("--float")
    return argv


@settings(deadline=None, max_examples=200)
@given(analyze_argv())
def test_analyze_exits_0_1_or_2_and_never_raises(argv):
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = cli_main(argv)
    assert code in (0, 1, 2)
    if code == 2:
        assert out.getvalue() == ""
        assert err.getvalue().count("\n") == 1


# any digit-like character in an algebra name, superscripts included
names = st.one_of(
    st.text(max_size=12),
    st.builds("{}{}{}{}".format, st.sampled_from(["gl", "GL ", "sl", "abelian"]),
              st.sampled_from(["", "("]),
              st.text(st.characters(categories=("Nd", "No")), max_size=4),
              st.sampled_from(["", ")"])),
)
THETA_VECTOR = str(Path(__file__).resolve().parent / "data" / "theta_vector.txt")


@settings(deadline=None, max_examples=200)
@example("gl²")
@given(names)
def test_oracle_algebra_exits_0_or_2_and_never_raises(name):
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = cli_main(["oracle", f"--algebra={name}", THETA_VECTOR])
    assert code in (0, 2)
    if code == 0:
        assert err.getvalue() == ""
    else:
        # the vector is valid, so the one failure is the typed unknown name
        assert out.getvalue() == ""
        assert err.getvalue().startswith("UnknownName: ")
        assert err.getvalue().count("\n") == 1
