"""Wheeled exponential, leg gluing, spoke pairing, genus bridge.

The even-log coefficients are re-derived here with bare Fraction
recurrences so the module's table is checked against independent
arithmetic, not against itself.
"""
from __future__ import annotations

import math
import random
from collections import Counter
from fractions import Fraction as F

import pytest

from graphgenus.graph_algebra import (
    BoundExceeded, GraphVector, ihx_relations, product, power, reduce as ihx_reduce,
    theta_vector, trivalent_part,
)
from graphgenus.graph_core import Graph, canonical_form, concat, line, theta, wheel
from graphgenus.genus import (
    ChernPolynomial, genus_in_power_sums, log_coefficients,
    sqrt_ahat_series,
)
from graphgenus.scalars import PiScalar
from graphgenus.wheeling import (
    BadPartition, OddLegCount, b_coefficients, bridge_identity, glue_hat,
    _pair_presentations, _wheel_product, line_power, line_vector, omega,
    pair_spokes, wheel_char_weight, wheeling_check,
)
from conftest import represent

# nonzero class with an odd leg count (found by randomized search)
ODD_LEG = Graph((3,) * 7 + (1,),
                ((4, 1), (5, 1), (5, 0), (7, 3), (6, 3), (2, 0),
                 (1, 0), (2, 5), (3, 2), (6, 4), (4, 6)))


# ---------------------------------------------------------------------------
# the even-log coefficient table


def independent_b(n_max: int) -> dict[int, F]:
    """(1/2) log(sinh(x/2)/(x/2)) via plain series recurrences."""
    order = 2 * n_max
    f = [F(0)] * (order + 1)
    for m in range(0, order // 2 + 1):
        f[2 * m] = F(1, 4 ** m * math.factorial(2 * m + 1))
    # log through l_n = f_n - (1/n) sum_{j<n} j l_j f_{n-j}
    l = [F(0)] * (order + 1)
    for n in range(1, order + 1):
        acc = f[n]
        for j in range(1, n):
            acc -= F(j, n) * l[j] * f[n - j]
        l[n] = acc
    return {2 * m: l[2 * m] / 2 for m in range(1, n_max + 1)}


def test_b_table_matches_independent_recurrence():
    assert b_coefficients(8) == independent_b(8)


def test_b_table_leading_values():
    b = b_coefficients(3)
    assert b == {2: F(1, 48), 4: F(-1, 5760), 6: F(1, 362880)}


def test_b_matches_sqrt_ahat_logarithm():
    # the square-root series is exp of minus these coefficients
    logs = log_coefficients(sqrt_ahat_series(8))
    b = b_coefficients(4)
    for n in (2, 4, 6, 8):
        assert logs[n - 1] == -b[n]
    assert all(logs[j - 1] == 0 for j in (1, 3, 5, 7))


# ---------------------------------------------------------------------------
# the wheeled exponential


def test_omega_partition_tables():
    assert omega(0).partition_terms == (((), F(1)),)
    assert omega(1).partition_terms == (((), F(1)), ((1,), F(1, 48)))
    assert omega(2).partition_terms == (
        ((), F(1)),
        ((1,), F(1, 48)),
        ((1, 1), F(1, 4608)),
        ((2,), F(-1, 5760)),
    )


def test_omega_three_extends_table():
    terms = dict(omega(3).partition_terms)
    assert terms[(1, 1, 1)] == F(1, 48) ** 3 / 6
    assert terms[(1, 2)] == F(1, 48) * F(-1, 5760)
    assert terms[(3,)] == F(1, 362880)


def test_cached_omega_is_read_only_and_still_bounded(monkeypatch):
    om = omega(2)
    assert omega(2) is om
    with pytest.raises(TypeError):
        om.b_table[2] = F(0)
    with pytest.raises(TypeError):
        del om.b_table[2]
    assert omega(2).b_table == b_coefficients(2)
    monkeypatch.setenv("GRAPHGENUS_MAX_K", "1")
    with pytest.raises(BoundExceeded):
        omega(2)
    assert omega(1).k == 1


def omega_vector(k: int) -> GraphVector:
    """omega(k) as a canonical graph vector, built from its table: the
    canonicalizing route that omega itself does not take."""
    v = GraphVector.zero()
    for parts, coeff in omega(k).partition_terms:
        v.add_presentation(_wheel_product(parts), coeff)
    return v


def ascending_partitions(n: int, smallest: int = 1):
    """Ascending partitions of n with parts >= smallest, in lexicographic order."""
    if n == 0:
        yield ()
        return
    for first in range(smallest, n + 1):
        for rest in ascending_partitions(n - first, first):
            yield (first,) + rest


def test_omega_table_matches_closed_form(monkeypatch):
    # the coefficient of prod_n w_2n^(m_n) is prod_n b_2n^(m_n) / m_n!,
    # and the rows run by total weight, then by partition
    monkeypatch.setenv("GRAPHGENUS_MAX_K", "6")
    b = independent_b(6)
    for k in range(7):
        expected = []
        for w in range(k + 1):
            for parts in ascending_partitions(w):
                coeff = F(1)
                for n, m in Counter(parts).items():
                    coeff *= b[2 * n] ** m / math.factorial(m)
                expected.append((parts, coeff))
        assert omega(k).partition_terms == tuple(expected)


def test_omega_vector_realizes_partitions():
    v = omega_vector(2)
    assert v.coefficient(Graph((), ())) == 1
    assert v.coefficient(wheel(2)) == F(1, 48)
    assert v.coefficient(wheel(4)) == F(-1, 5760)
    pair = canonical_form(concat(wheel(2), wheel(2)))
    assert v.coefficient(pair.graph) * pair.sign_state == F(1, 4608)


def test_omega_truncation_is_nested():
    v2, v3 = omega_vector(2), omega_vector(3)
    for g, c in v2.items():
        assert v3.coefficient(g) == c


# ---------------------------------------------------------------------------
# gluing anchors


def test_spoke_pairing_of_smallest_wheel_is_theta():
    assert pair_spokes(wheel_vector_2()) == theta_vector()


def wheel_vector_2() -> GraphVector:
    return GraphVector.from_graph(wheel(2))


def test_spoke_pairing_without_legs_is_identity():
    assert pair_spokes(theta_vector()) == theta_vector()
    assert pair_spokes(GraphVector.unit()) == GraphVector.unit()


def test_spoke_pairing_rejects_odd_legs():
    v = GraphVector.from_graph(ODD_LEG)
    assert v  # really a nonzero class
    with pytest.raises(OddLegCount):
        pair_spokes(v)


def test_glue_wheel_into_line():
    assert glue_hat(wheel_vector_2(), line_vector()) == theta_vector() * 2


def test_glue_skips_oversized_inputs():
    # four legs cannot inject into two
    assert glue_hat(GraphVector.from_graph(wheel(4)), line_vector()) == \
        GraphVector.zero()


def test_glue_omega_into_single_line():
    got = glue_hat(omega_vector(1), line_vector())
    assert got == line_vector() + theta_vector() * F(1, 24)


def test_glue_respects_linearity_and_signs():
    rng = random.Random(16)
    h, sign = represent(rng, wheel(2))
    v = GraphVector.from_graph(h, F(3))
    assert glue_hat(v, line_vector()) == theta_vector() * (6 * sign)
    two = wheel_vector_2() + wheel_vector_2()
    assert glue_hat(two, line_vector()) == theta_vector() * 4


def test_hat_equals_scaled_spoke_pairing():
    # welding 2k legs into k lines realizes every spoke matching
    # 2^k k! times over
    for k in (1, 2, 3):
        lhs = glue_hat(GraphVector.from_graph(wheel(2 * k)), line_power(k))
        rhs = pair_spokes(GraphVector.from_graph(wheel(2 * k))) \
            * F(2 ** k * math.factorial(k))
        assert lhs == rhs


def test_line_power_counts():
    assert line_power(0) == GraphVector.unit()
    assert line_power(1) == line_vector()
    sq = line_power(2)
    (g, c), = sq.items()
    assert sorted(g.valences) == [1, 1, 1, 1]
    assert c * canonical_form(concat(line(), line())).sign_state == 1


# ---------------------------------------------------------------------------
# the degree-k identity


def test_wheeling_trivial_degrees_exact():
    rep = wheeling_check(0)
    assert rep.passed and rep.exact and not rep.residual
    rep = wheeling_check(1)
    assert rep.passed and rep.exact and not rep.residual


def test_wheeling_degree_two_needs_reduction():
    rep = wheeling_check(2)
    assert rep.passed
    assert not rep.exact  # relations genuinely used
    assert rep.residual == GraphVector.zero()


def test_wheeling_lhs_matches_direct_computation():
    # reassemble the degree-2 left side by hand
    lhs = trivalent_part(glue_hat(omega_vector(2), line_power(2)))
    rhs = power(theta_vector() * F(1, 24), 2)
    diff = lhs - rhs
    assert diff  # nonzero before reduction
    assert ihx_reduce(diff, ihx_relations(2)) == GraphVector.zero()


def test_presented_wheel_products_pair_like_their_canonical_forms(monkeypatch):
    # wheeling_check pairs the weight-k products as built, omega_vector
    # holds their canonical presentations
    monkeypatch.setenv("GRAPHGENUS_MAX_K", "4")
    for k in range(5):
        canonical = GraphVector({g: c for g, c in omega_vector(k).items()
                                 if len(g.legs()) == 2 * k})
        presented = [(_wheel_product(parts), c) for parts, c in omega(k).partition_terms
                     if sum(parts) == k]
        assert len(presented) == len(canonical.items())
        assert _pair_presentations(presented) == pair_spokes(canonical)


# ---------------------------------------------------------------------------
# analytic wheel weights


def test_wheel_char_weight_values():
    c, p = wheel_char_weight(())
    assert c == PiScalar.of(1, 0) and p == ChernPolynomial.one("s")
    c, p = wheel_char_weight((1,))
    assert c == PiScalar.of(F(-1, 8), -1)
    assert p == ChernPolynomial("s", {(2,): F(1)})
    c, p = wheel_char_weight((1, 1))
    assert c == PiScalar.of(F(1, 128), -2)
    assert p == ChernPolynomial("s", {(2, 2): F(1)})
    c, p = wheel_char_weight((2,))
    assert c == PiScalar.of(F(-1, 128), -2)
    assert p == ChernPolynomial("s", {(4,): F(1)})


def test_wheel_char_weight_sorts_partition():
    _, p = wheel_char_weight((2, 1))
    assert p == ChernPolynomial("s", {(2, 4): F(1)})


def test_wheel_char_weight_rejects_bad_parts():
    for bad in ((0,), (-1,), (1, 0), ("x",), (F(3, 2),)):
        with pytest.raises(BadPartition):
            wheel_char_weight(bad)


# ---------------------------------------------------------------------------
# bridge to the square-root genus


def test_bridge_identity_holds():
    for k in (0, 1, 2, 3):
        rep = bridge_identity(k)
        assert rep.equal
        assert rep.lhs == rep.rhs


def test_bridge_identity_canonicalizes_nothing():
    canonical_form.cache_clear()
    for k in (0, 1, 2, 3):
        bridge_identity(k)
        omega(k)
    assert canonical_form.cache_info().misses == 0


def test_bridge_sides_frozen():
    rep = bridge_identity(1)
    assert rep.lhs == ChernPolynomial("s", {(2,): F(-1, 48)})
    rep = bridge_identity(2)
    assert rep.lhs == ChernPolynomial("s", {(2, 2): F(1, 4608),
                                            (4,): F(1, 5760)})


def test_bridge_rhs_is_the_genus_side():
    for k in (1, 2):
        rep = bridge_identity(k)
        assert rep.rhs == genus_in_power_sums(
            sqrt_ahat_series(max(8, 2 * k)), k)
