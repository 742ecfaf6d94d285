"""Exact pi^2-graded scalar arithmetic."""
from fractions import Fraction
import math

import pytest

from graphgenus.scalars import (
    Echelon, PiScalar, Root, nth_root_fraction, nth_root_int, parse_pi_scalar,
    parse_rational, to_float,
)


# ---------------------------------------------------------------------------
# integer and fraction roots


def test_nth_root_fraction_exact():
    assert nth_root_fraction(Fraction(8, 27), 3) == Fraction(2, 3)
    assert nth_root_fraction(Fraction(1), 5) == 1
    assert nth_root_fraction(Fraction(49, 4), 2) == Fraction(7, 2)


def test_nth_root_fraction_inexact_is_none():
    assert nth_root_fraction(Fraction(2), 2) is None
    assert nth_root_fraction(Fraction(8, 9), 3) is None


def test_nth_root_int_beyond_float_range():
    # a float first guess misses these roots and overflows above 1e308
    assert nth_root_int(10 ** 80, 2) == 10 ** 40
    assert nth_root_int(10 ** 80 + 1, 2) is None
    assert nth_root_int(7 ** 900, 3) == 7 ** 300
    assert nth_root_int(7 ** 900 - 1, 3) is None


def test_float_root_of_radicand_beyond_float_range():
    r = PiScalar.of(10 ** 400 * 2).root(2)
    assert float(r) == pytest.approx(2 ** 0.5 * 1e200)
    r = PiScalar.of(Fraction(2, 10 ** 400)).root(2)
    assert float(r) == pytest.approx(2 ** 0.5 * 1e-200)
    # the root is exact; only its double overflows or underflows
    r = PiScalar.of(10 ** 1000 * 2).root(2)
    assert r ** 2 == PiScalar.of(10 ** 1000 * 2)
    with pytest.raises(ValueError):
        float(r)
    with pytest.raises(ValueError):  # the root underflows
        float(PiScalar.of(Fraction(2, 10 ** 700)).root(2))
    # a subnormal radicand still has a full-precision root
    assert float(PiScalar.of(Fraction(2, 10 ** 320)).root(2)) == \
        pytest.approx(2 ** 0.5 * 1e-160, rel=1e-14)


# ---------------------------------------------------------------------------
# the exact boundary: typed text in, doubles out


def test_parse_rational_reads_exact_literals():
    assert parse_rational("7/3") == Fraction(7, 3)
    assert parse_rational(" -2 ") == -2
    assert parse_rational("1.5e-400") == Fraction(3, 2 * 10 ** 400)


@pytest.mark.parametrize("text", ["1/0", "-3/0", "nan", "inf", "-inf", "banana", ""])
def test_parse_rational_rejects_with_value_error(text):
    with pytest.raises(ValueError):
        parse_rational(text)


@pytest.mark.parametrize("text", ["1e4300", "1e-4300", "0.5e-4299", "1.5e4299",
                                  "1e10000000", "-1e-10000000", "1e" + "9" * 4000])
def test_parse_rational_bounds_digits_before_building(text):
    # Fraction('1e10000000') alone takes seconds; the text is refused first
    with pytest.raises(ValueError, match="more than 4300 digits"):
        parse_rational(text)


def test_parse_rational_reads_up_to_the_digit_bound():
    assert parse_rational("1e4299") == 10 ** 4299
    assert parse_rational("1e-4299") == Fraction(1, 10 ** 4299)
    assert parse_rational("-2.5e330") == Fraction(-25 * 10 ** 329)


@pytest.mark.parametrize("value", [Fraction(0), Fraction(1, 3), Fraction(-7, 2),
                                   Fraction(10 ** 308), Fraction(1, 10 ** 308),
                                   Fraction(5, 10 ** 324), 2.5, 0.0])
def test_to_float_equals_float_in_range(value):
    assert to_float(value) == float(value)


@pytest.mark.parametrize("value", [Fraction(10 ** 309), Fraction(-(10 ** 400)),
                                   Fraction(1, 10 ** 400), Fraction(-1, 10 ** 330)])
def test_to_float_refuses_overflow_and_underflow(value):
    with pytest.raises(ValueError):
        to_float(value)


def test_pi_scalar_float_is_guarded():
    assert float(PiScalar.of(Fraction(1, 2), 1)) == 0.5 * 3.141592653589793 ** 2
    for bad in (PiScalar.of(10 ** 400), PiScalar.of(Fraction(1, 10 ** 400)),
                PiScalar.of(1, 400), PiScalar.of(1, -400)):
        with pytest.raises(ValueError):
            float(bad)
        with pytest.raises(ValueError):
            bad.render(use_float=True)


def test_pi_scalar_float_when_only_a_factor_leaves_the_double_range():
    # 10^400 * pi^-800 and 10^-400 * pi^800 are normal doubles; a
    # subnormal coefficient without a pi power rounds as float() does
    for coef, pi2 in ((Fraction(10 ** 400), -400), (Fraction(1, 10 ** 400), 400),
                      (Fraction(-3, 10 ** 310), 0)):
        value = PiScalar.of(coef, pi2)
        if pi2:
            assert float(value) == pytest.approx(
                float(coef * Fraction(3.141592653589793) ** (2 * pi2)), rel=1e-12)
        else:
            assert float(value) == float(coef)
    assert float(PiScalar.of(0, 400)) == 0.0


# ---------------------------------------------------------------------------
# graded arithmetic


def test_add_same_grade():
    a = PiScalar.of(Fraction(1, 3), 2)
    b = PiScalar.of(Fraction(1, 6), 2)
    assert a + b == PiScalar.of(Fraction(1, 2), 2)


def test_add_mixed_grade_rejected():
    a = PiScalar.of(1, 1)
    b = PiScalar.of(1, 2)
    with pytest.raises(ValueError):
        a + b


def test_mul_adds_grades():
    a = PiScalar.of(Fraction(3, 2), 1)
    b = PiScalar.of(4, -2)
    assert a * b == PiScalar.of(6, -1)


def test_div_and_pow():
    a = PiScalar.of(Fraction(192), 1)
    assert a / PiScalar.of(2, 1) == PiScalar.of(96, 0)
    assert a ** 2 == PiScalar.of(192 * 192, 2)
    assert a ** 0 == PiScalar.of(1, 0)
    with pytest.raises(ValueError):
        a ** -1


def test_plain_numbers_coerce_at_grade_zero():
    a = PiScalar.of(Fraction(1, 2), 0)
    assert a + Fraction(1, 2) == PiScalar.of(1, 0)
    assert 3 * PiScalar.of(2, 1) == PiScalar.of(6, 1)


def test_constructor_converts_an_int_and_refuses_a_float():
    x = PiScalar(3, 1)
    assert type(x.coef) is Fraction and x == PiScalar.of(3, 1)
    with pytest.raises(ValueError, match="not float"):
        PiScalar(2.0)
    with pytest.raises(ValueError):
        PiScalar(2.0) * PiScalar.of(3)
    # the explicit converter still reads a float exactly
    assert PiScalar.of(0.5) == PiScalar(Fraction(1, 2))


# ---------------------------------------------------------------------------
# roots stay exact when they can


def test_root_exact_when_grade_divides():
    a = PiScalar.of(Fraction(9, 16), 2)
    assert a.root(2) == PiScalar.of(Fraction(3, 4), 1)
    assert PiScalar.of(Fraction(1, 8), 3).root(3) == PiScalar.of(Fraction(1, 2), 1)


def test_root_falls_back_to_float():
    # no rational root: a Root keeps the exact radicand, and float() rounds
    r = PiScalar.of(2, 2).root(2)
    assert r == Root(PiScalar.of(2, 2), 2)
    assert float(r) == pytest.approx(float(2 ** 0.5 * 3.141592653589793 ** 2))
    assert r.render() == r.render(use_float=True) == f"{float(r):.12g}"


def test_root_of_odd_grade_is_float():
    # pi^2 has no exact square root in this grading
    r = PiScalar.of(1, 1).root(2)
    assert r == Root(PiScalar.of(1, 1), 2)
    assert float(r) == pytest.approx(3.141592653589793)


def test_root_float_when_only_a_factor_leaves_the_double_range():
    # sqrt(3e-700 pi^1302) is about 2e-27, though pi^1302 alone is about 1e647
    r = PiScalar.of(Fraction(3, 10 ** 700), 651).root(2)
    ln = math.log(3) - 700 * math.log(10) + 1302 * math.log(math.pi)
    assert float(r) == pytest.approx(math.exp(ln / 2), rel=1e-12)


def test_root_takes_the_least_index():
    # a 4th root of a square is a square root, and of a 4th power exact
    assert PiScalar.of(4).root(4) == Root(PiScalar.of(2), 2)
    assert PiScalar.of(9, 2).root(4) == Root(PiScalar.of(3, 1), 2)
    assert PiScalar.of(16, 4).root(4) == PiScalar.of(2, 1)
    assert PiScalar.of(9, 1).root(4) == Root(PiScalar.of(9, 1), 4)
    assert PiScalar.of(4).root(4) == PiScalar.of(2).root(2)
    assert hash(PiScalar.of(4).root(4)) == hash(PiScalar.of(2).root(2))
    assert PiScalar.of(2).root(2) != PiScalar.of(2).root(3)


def test_root_powers_are_exact():
    r = PiScalar.of(Fraction(7, 3), 1).root(3)
    assert r ** 3 == PiScalar.of(Fraction(7, 3), 1)
    assert r ** 6 == PiScalar.of(Fraction(49, 9), 2)
    assert r ** 2 == Root(PiScalar.of(Fraction(49, 9), 2), 3)
    assert r ** 0 == PiScalar.of(1)


def test_root_of_a_negative_scalar_is_a_value_error():
    # not a complex coefficient that fails later in render
    for k in (2, 3):
        with pytest.raises(ValueError, match="negative"):
            PiScalar.of(-2).root(k)
    # zero is exact at any grade, even one k does not divide
    assert PiScalar.of(0).root(2) == PiScalar.of(0, 1).root(2) == 0


# ---------------------------------------------------------------------------
# textual round trip


def test_render_forms():
    assert PiScalar.of(Fraction(192), 1).render() == "192*pi^2"
    assert PiScalar.of(Fraction(-7, 3), 0).render() == "-7/3"
    assert PiScalar.of(Fraction(1, 2), -1).render() == "1/2*pi^-2"
    assert PiScalar.of(0, 0).render() == "0"


def test_render_float_mode():
    s = PiScalar.of(Fraction(1, 2), 1).render(use_float=True)
    assert s == "%.12g" % (0.5 * 3.141592653589793 ** 2)


def test_parse_round_trip():
    for text in ("192*pi^2", "-7/3", "1/2*pi^-2", "5", "3/4*pi^4"):
        assert parse_pi_scalar(text).render() == text


def test_parse_rejects_odd_pi_power():
    with pytest.raises(ValueError):
        parse_pi_scalar("2*pi^3")


def test_parse_rejects_garbage():
    with pytest.raises(ValueError):
        parse_pi_scalar("two*pi^2")


# ---------------------------------------------------------------------------
# the sparse linear-algebra core


def test_echelon_depends_on_the_span_only():
    rows = [{0: 2, 2: 4}, {1: 1, 2: -1}, {0: 1, 1: 1, 2: 1}, {0: 3, 1: 1, 2: 5}]
    forward, backward = Echelon(), Echelon()
    for row in rows:
        forward.add(row)
    for row in reversed(rows):
        backward.add(row)
    assert forward.rows == backward.rows == {0: {0: 1, 2: 2}, 1: {1: 1, 2: -1}}
    assert all(type(c) is Fraction for row in forward.rows.values() for c in row.values())
    assert forward.reduce({0: 1, 1: 1, 2: 7}) == {2: 6}
    assert forward.reduce({0: 1, 2: 2}) == {}

