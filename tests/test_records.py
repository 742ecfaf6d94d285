"""The package's records: immutable, equal and hashed by their fields,
and tuples only where a tuple's order, length and iteration do no harm."""

import copy
import pickle
from fractions import Fraction as F

import pytest

from graphgenus import (
    ChernData, Genus, ManifoldData, OrientedGraph, PiScalar, bridge_identity,
    builtin_genera, canonical_form, omega, theta, validate, wheel,
    wheeling_check,
)


def _manifold(**changes):
    fields = dict(k=1, chern=ChernData.for_k1(24), volume=PiScalar.of(1))
    return ManifoldData(**{**fields, **changes})


def test_graph_hashes_as_its_fields():
    for g in (theta(), wheel(4)):
        assert hash(g) == hash((g.valences, g.edges))


def test_oriented_graph_ignores_its_automorphisms():
    og = canonical_form(wheel(4))
    assert og.automorphisms
    bare = OrientedGraph(og.graph, og.sign_state)
    assert hash(og) == hash((og.graph, og.sign_state)) == hash(bare)
    assert og == bare and not bare.automorphisms
    assert og != OrientedGraph(og.graph, -og.sign_state)
    assert repr(og) == f"OrientedGraph(graph={og.graph!r}, sign_state={og.sign_state})"


def test_equal_genera_share_the_polynomial_cache():
    first, second = builtin_genera()["todd"], builtin_genera()["todd"]
    assert first is not second and first == second
    assert hash(first) == hash(second)
    poly = first.polynomial(4)
    hits = Genus.polynomial.cache_info().hits
    assert second.polynomial(4) is poly
    assert Genus.polynomial.cache_info().hits == hits + 1


def test_manifold_data_keywords_and_defaults():
    d = _manifold()
    assert (d.k, d.norm_R_sq, d.irreducible) == (1, None, True)
    assert d == _manifold() != _manifold(irreducible=False)


@pytest.mark.parametrize("changes, message", [
    (dict(k=2), "Chern data is degree 1, manifold has k=2"),
    (dict(volume=PiScalar.of(0)), "volume must be positive"),
    (dict(norm_R_sq=PiScalar.of(-1)), "curvature norm must not be negative"),
])
def test_manifold_data_validates_on_construction(changes, message):
    with pytest.raises(ValueError, match=message):
        _manifold(**changes)


def test_every_record_is_immutable():
    g = wheel(2)
    d = _manifold()
    fields = [(g, "edges"), (canonical_form(g), "sign_state"),
              (PiScalar.of(3, 1), "coef"), (PiScalar.of(2).root(2), "power"),
              (builtin_genera()["ahat"], "series"),
              (omega(2), "b_table"), (wheeling_check(1), "passed"),
              (bridge_identity(2), "equal"), (d, "volume"), (validate(d), "verdicts")]
    for record, name in fields:
        with pytest.raises(AttributeError):
            setattr(record, name, None)
        with pytest.raises(AttributeError):
            delattr(record, name)
        with pytest.raises(AttributeError):
            record.extra = None


def test_slotted_records_copy_and_pickle():
    og = canonical_form(wheel(4))
    for record in (og, PiScalar.of(F(1, 3), 2), PiScalar.of(F(1, 3), 1).root(2),
                   _manifold(norm_R_sq=PiScalar.of(2))):
        for clone in (copy.copy(record), copy.deepcopy(record),
                      pickle.loads(pickle.dumps(record))):
            assert clone == record and repr(clone) == repr(record)
    assert pickle.loads(pickle.dumps(og)).automorphisms == og.automorphisms


def test_pi_scalar_is_not_a_tuple():
    x, y = PiScalar.of(1), PiScalar.of(2)
    r = y.root(2)
    assert not isinstance(x, tuple) and not isinstance(r, tuple)
    for op in (lambda: x < y, lambda: len(x), lambda: iter(x),
               lambda: r < r, lambda: len(r), lambda: iter(r)):
        with pytest.raises(TypeError):
            op()
