"""Characteristic power series, Chern polynomials, genus tables.

The genus coefficients below are frozen against the classical tables:
the degree triple (-31 p1^3 + 44 p1 p2 - 16 p3)/967680 for the square
root tests was expanded by hand through the standard p-to-c rules.
"""
from __future__ import annotations

import random
from fractions import Fraction as F

import pytest

from graphgenus.genus import (
    BadConstantTerm, CharPowerSeries, ChernData, ChernPolynomial,
    DegreeMismatch, MissingMonomial, OrderMismatch, SeriesError, ahat_series,
    builtin_genera, even_monomials, evaluate, genus_in_power_sums,
    genus_polynomial, log_coefficients, power_sum_in_chern,
    sinh_half_over_half, sqrt_ahat_series, todd_series,
)
from graphgenus.hk_analysis import ManifoldData, euler_number
from graphgenus.scalars import PiScalar


def poly(symbol: str, table) -> ChernPolynomial:
    return ChernPolynomial(symbol, {m: F(c) for m, c in table.items()})


def random_series(rng, order: int, constant=1) -> CharPowerSeries:
    coeffs = [F(constant)]
    coeffs += [F(rng.randint(-30, 30), rng.randint(1, 12)) for _ in range(order)]
    return CharPowerSeries(coeffs, order)


# ---------------------------------------------------------------------------
# power series arithmetic


def test_sinh_over_x_coefficients():
    # undoing the half argument gives sinh(x)/x = sum x^2m / (2m+1)!
    s = sinh_half_over_half(6)
    assert [s[j] * 2 ** j for j in range(7)] == \
        [1, 0, F(1, 6), 0, F(1, 120), 0, F(1, 5040)]


def test_half_argument_scaling():
    # 1/(4^m (2m+1)!): the x^2m coefficient of sinh(x)/x at x/2
    s = sinh_half_over_half(6)
    assert [s[j] for j in range(7)] == \
        [1, 0, F(1, 24), 0, F(1, 1920), 0, F(1, 322560)]


def test_ahat_series_frozen():
    a = ahat_series(6)
    assert [a[j] for j in range(7)] == \
        [1, 0, F(-1, 24), 0, F(7, 5760), 0, F(-31, 967680)]
    assert a * sinh_half_over_half(6) == CharPowerSeries([1] + [0] * 6, 6)


def test_todd_series_frozen():
    t = todd_series(6)
    assert [t[j] for j in range(7)] == \
        [1, F(1, 2), F(1, 12), 0, F(-1, 720), 0, F(1, 30240)]


def test_sqrt_squares_back():
    assert sqrt_ahat_series(8) * sqrt_ahat_series(8) == ahat_series(8)
    rng = random.Random(10)
    for _ in range(8):
        f = random_series(rng, 7)
        assert f.sqrt() * f.sqrt() == f


def test_exp_log_round_trip():
    rng = random.Random(11)
    for _ in range(8):
        f = random_series(rng, 7)
        assert f.log().exp() == f
        g = random_series(rng, 7, constant=0)
        assert g.exp().log() == g


def test_log_exp_and_inverse_stay_exact():
    # an empty sum is the int 0 and 0 / w a float; neither may become a coefficient
    for f in (sqrt_ahat_series(10), todd_series(10), sinh_half_over_half(10)):
        for g in (f.log(), f.log().exp(), f.inverse(), f.sqrt()):
            assert all(type(c) is F for c in g.coeffs)
    assert CharPowerSeries([1], 4).log() == CharPowerSeries([0], 4)


def test_inverse():
    rng = random.Random(12)
    one = CharPowerSeries([1] + [0] * 7, 7)
    for _ in range(8):
        f = random_series(rng, 7)
        assert f * f.inverse() == one


def test_constant_term_guards():
    bad = CharPowerSeries([2, 1, 1], 2)
    with pytest.raises(BadConstantTerm):
        bad.log()
    with pytest.raises(BadConstantTerm):
        bad.sqrt()
    with pytest.raises(BadConstantTerm):
        CharPowerSeries([1, 1, 1], 2).exp()
    with pytest.raises(BadConstantTerm):
        CharPowerSeries([0, 1, 1], 2).inverse()


def test_order_discipline():
    a = CharPowerSeries([1, 2, 3], 2)
    b = CharPowerSeries([1, 2], 1)
    with pytest.raises(OrderMismatch):
        a + b
    with pytest.raises(OrderMismatch):
        a * b
    with pytest.raises(SeriesError):
        a[3]


# ---------------------------------------------------------------------------
# polynomial ring


def test_polynomial_arithmetic_and_render():
    a = poly("c", {(2,): F(1, 12)})
    b = poly("c", {(2, 2): 1, (4,): -1})
    assert (a * a).items() == [((2, 2), F(1, 144))]
    assert (a + a).coefficient((2,)) == F(1, 6)
    assert b.render() == "(1)c2^2 + (-1)c4"
    assert ChernPolynomial.one("c").render() == "1"
    assert ChernPolynomial.zero("c").render() == "0"
    assert poly("c", {(2, 2, 4): F(-7, 5)}).render() == "(-7/5)c2^2*c4"


def test_polynomial_symbol_discipline():
    with pytest.raises(ValueError, match="mixed symbols 'c' and 's'"):
        poly("c", {(2,): 1}) + poly("s", {(2,): 1})
    with pytest.raises(ValueError, match="mixed symbols 's' and 'c'"):
        poly("s", {(2,): 1}) - poly("c", {(2,): 1})
    with pytest.raises(ValueError, match="mixed symbols 'c' and 's'"):
        poly("c", {(2,): 1}) * poly("s", {(1,): 1})
    with pytest.raises(ValueError, match="unknown symbol 'p'"):
        poly("p", {(1,): 1})


def test_truncate_and_homogeneous():
    b = poly("c", {(2,): 2, (2, 2): 1, (4,): -1, (2, 4): 5})
    assert b.truncate(4).items() == poly(
        "c", {(2,): 2, (2, 2): 1, (4,): -1}).items()
    assert b.homogeneous(6).items() == [((2, 4), F(5))]


def test_exp_truncated_matches_series():
    x = poly("c", {(2,): F(1, 3), (4,): -2})
    e = x.exp_truncated(8)
    expected = ChernPolynomial.one("c")
    term = ChernPolynomial.one("c")
    for n in range(1, 5):
        term = (term * x).truncate(8) * F(1, n)
        expected = expected + term
    assert e == expected.truncate(8)


# ---------------------------------------------------------------------------
# Newton conversion, checked against explicit roots


def ev(p: ChernPolynomial, vals: dict[int, F]) -> F:
    total = F(0)
    for mono, c in p.items():
        prod = c
        for i in mono:
            prod *= vals[i]
        total += prod
    return total


def elementary(roots: list[F]) -> dict[int, F]:
    coeffs = [F(1)]
    for r in roots:
        coeffs = [a + (coeffs[i - 1] * r if i else 0)
                  for i, a in enumerate(coeffs)] + [coeffs[-1] * r]
    return {i: coeffs[i] for i in range(len(coeffs))}


def test_power_sums_match_roots():
    # roots in opposite pairs, so the odd classes vanish
    rng = random.Random(13)
    for _ in range(10):
        half = [F(rng.randint(-6, 6), rng.randint(1, 4)) for _ in range(3)]
        roots = half + [-r for r in half]
        e = elementary(roots)
        for j in range(1, 7):
            expected = sum(r ** j for r in roots)
            assert ev(power_sum_in_chern(j), e) == expected


def test_power_sum_frozen_forms():
    assert power_sum_in_chern(2) == poly("c", {(2,): -2})
    assert power_sum_in_chern(3) == ChernPolynomial.zero("c")
    assert power_sum_in_chern(4) == poly("c", {(2, 2): 2, (4,): -4})


def test_cached_polynomials_are_read_only():
    todd = builtin_genera()["todd"]
    for cached in (todd.polynomial(1), power_sum_in_chern(2)):
        with pytest.raises(AttributeError):
            cached.terms.clear()
        with pytest.raises(TypeError):
            cached.terms[(2,)] = F(0)
    assert todd.polynomial(1).render() == "(1/12)c2"
    assert power_sum_in_chern(2) == poly("c", {(2,): -2})


# ---------------------------------------------------------------------------
# genus polynomials


def test_builtin_tables_frozen():
    g = builtin_genera()
    assert set(g) == {"ahat", "todd", "sqrt_ahat"}
    a, t, s = g["ahat"], g["todd"], g["sqrt_ahat"]
    assert a.polynomial(0) == ChernPolynomial.one("c")
    assert a.polynomial(1) == poly("c", {(2,): F(1, 12)})
    assert a.polynomial(2) == poly("c", {(2, 2): F(1, 240), (4,): F(-1, 720)})
    assert a.polynomial(3) == poly("c", {(2, 2, 2): F(1, 6048),
                                         (2, 4): F(-1, 6720),
                                         (6,): F(1, 30240)})
    assert s.polynomial(1) == poly("c", {(2,): F(1, 24)})
    assert s.polynomial(2) == poly("c", {(2, 2): F(7, 5760), (4,): F(-1, 1440)})
    assert s.polynomial(3) == poly("c", {(2, 2, 2): F(31, 967680),
                                         (2, 4): F(-11, 241920),
                                         (6,): F(1, 60480)})


def test_todd_equals_ahat_without_odd_classes():
    # Todd and the A-roof differ by exp(c1/2); killing odd classes kills it
    g = builtin_genera()
    for k in range(4):
        assert g["todd"].polynomial(k) == g["ahat"].polynomial(k)


def test_sqrt_genus_squares_to_ahat():
    g = builtin_genera()
    for k in range(4):
        total = ChernPolynomial.zero("c")
        for i in range(k + 1):
            total = total + g["sqrt_ahat"].polynomial(i) * \
                g["sqrt_ahat"].polynomial(k - i)
        assert total.homogeneous(2 * k) == g["ahat"].polynomial(k)


def test_render_matches_cli_contract():
    g = builtin_genera()
    assert g["sqrt_ahat"].polynomial(2).render() == \
        "(7/5760)c2^2 + (-1/1440)c4"
    assert g["ahat"].polynomial(1).render() == "(1/12)c2"
    assert g["todd"].polynomial(0).render() == "1"


def test_genus_multiplicative_on_root_unions():
    # Whitney sums: the weight-2k value over a union of symmetric root
    # sets is the convolution of the factors' values
    rng = random.Random(15)
    Q = ahat_series(8)
    for _ in range(6):
        xs = [F(rng.randint(1, 5), rng.randint(1, 3)) for _ in range(2)]
        ys = [F(rng.randint(1, 5), rng.randint(1, 3)) for _ in range(2)]

        def data(roots):
            # symmetric sets {+-r}: odd cherns vanish, evens from pairs
            full = [r for r in roots] + [-r for r in roots]
            return elementary(full)

        def value(roots, k):
            e = data(roots)
            e = {i: e.get(i, F(0)) for i in range(0, 13)}
            return ev(genus_polynomial(Q, k), e)

        for k in range(3):
            lhs = value(xs + ys, k)
            rhs = sum(value(xs, i) * value(ys, k - i) for i in range(k + 1))
            assert lhs == rhs


def power_sums_in_chern(p: ChernPolynomial) -> ChernPolynomial:
    """Substitute s_j = power_sum_in_chern(j), a ring map."""
    out = ChernPolynomial.zero("c")
    for mono, coeff in p.items():
        term = ChernPolynomial.one("c") * coeff
        for j in mono:
            term = term * power_sum_in_chern(j)
        out = out + term
    return out


def test_genus_in_power_sums_consistent():
    # Newton substitution is a ring map, so it commutes with the
    # exponential: the s-route lands on the c-route's polynomial
    Q = sqrt_ahat_series(8)
    for k in (1, 2, 3):
        s_form = genus_in_power_sums(Q, k)
        assert s_form.symbol == "s"
        assert power_sums_in_chern(s_form) == genus_polynomial(Q, k)


def test_log_coefficients_recover_series():
    Q = ahat_series(8)
    logs = log_coefficients(Q)
    rebuilt = CharPowerSeries([F(0)] + logs, Q.order).exp()
    assert rebuilt == Q


# ---------------------------------------------------------------------------
# referee at k = 4..8: sympy series against explicit symmetric roots

SYMPY_SERIES = {
    "ahat": "(x/2)/sinh(x/2)",
    "sqrt_ahat": "sqrt((x/2)/sinh(x/2))",
    "todd": "x/(1 - exp(-x))",
}


@pytest.mark.parametrize("name", sorted(SYMPY_SERIES))
def test_genus_matches_sympy_series_on_roots(name):
    # prod_i Q(y_i t) Q(-y_i t) has t^{2k} coefficient equal to the genus
    # evaluated at c_{2i} = e_{2i}(+-y); Todd coincides with A-hat there
    sympy = pytest.importorskip("sympy")
    x = sympy.Symbol("x")
    top = 16
    expansion = sympy.series(sympy.sympify(SYMPY_SERIES[name], locals={"x": x}),
                             x, 0, top + 1).removeO()
    q = [F(int(c.p), int(c.q)) for c in (expansion.coeff(x, n) for n in range(top + 1))]
    genus = builtin_genera()[name]
    rng = random.Random(16)
    for _ in range(3):
        ys = [F(rng.randint(1, 7), rng.randint(1, 5)) for _ in range(8)]
        product = [F(1)] + [F(0)] * top
        for r in ys + [-y for y in ys]:
            factor = [q[n] * r ** n for n in range(top + 1)]
            product = [sum(product[i] * factor[n - i] for i in range(n + 1))
                       for n in range(top + 1)]
        e = elementary(ys + [-y for y in ys])
        for k in range(4, 9):
            values = {}
            for mono in even_monomials(k):
                values[mono] = F(1)
                for i in mono:
                    values[mono] *= e[i]
            assert evaluate(genus.polynomial(k), ChernData(k, values)) == product[2 * k]


def test_shared_exponential_does_not_depend_on_request_order():
    # fresh genera (new names), asked for k = 1..8 in a shuffled order; each
    # answer against exp of the whole exponent truncated at its own weight
    rng = random.Random(31)
    for name, genus in builtin_genera().items():
        fresh = genus._replace(name=f"{name}-shuffled")
        order = list(range(1, 9))
        rng.shuffle(order)
        for k in order:
            q = log_coefficients(genus.series(2 * k))
            exponent = ChernPolynomial.zero("c")
            for j in range(1, 2 * k + 1):
                exponent = exponent + q[j - 1] * power_sum_in_chern(j)
            referee = exponent.exp_truncated(2 * k).homogeneous(2 * k)
            assert fresh.polynomial(k) == referee, (name, k)


# ---------------------------------------------------------------------------
# evaluation against manifold data


def test_even_monomials_sorted():
    assert even_monomials(0) == [()]
    assert even_monomials(1) == [(2,)]
    assert even_monomials(2) == [(2, 2), (4,)]
    assert even_monomials(3) == [(2, 2, 2), (2, 4), (6,)]


def test_chern_data_constructors_and_euler():
    for chern, euler in ((ChernData(1, {(2,): F(24)}), 24),
                         (ChernData(2, {(2, 2): F(100), (4,): F(40)}), 40),
                         (ChernData(3, {(2, 2, 2): F(8), (2, 4): F(4), (6,): F(2)}), 2)):
        assert euler_number(ManifoldData(chern.k, chern, PiScalar.of(1))) == euler


def test_chern_data_requires_all_monomials():
    with pytest.raises(MissingMonomial):
        ChernData(2, {(2, 2): F(1)})


def test_evaluate_k3_surface():
    data = ChernData(1, {(2,): F(24)})
    g = builtin_genera()
    assert evaluate(g["ahat"].polynomial(1), data) == 2
    assert evaluate(g["sqrt_ahat"].polynomial(1), data) == 1


def test_evaluate_rejects_mixed_degree():
    data = ChernData(2, {(2, 2): F(100), (4,): F(40)})
    with pytest.raises(DegreeMismatch):
        evaluate(builtin_genera()["ahat"].polynomial(1), data)


def test_evaluate_rejects_wrong_symbol():
    data = ChernData(1, {(2,): F(24)})
    s_form = genus_in_power_sums(ahat_series(8), 1)
    with pytest.raises(ValueError, match="evaluation needs the c presentation"):
        evaluate(s_form, data)
