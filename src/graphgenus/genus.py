"""Exact power-series and symmetric-function engine for genera.

A genus is generated by a one-variable series Q with Q(0) = 1: take
formal roots x_1, ..., splitting the total Chern class, and expand
prod_i Q(x_i) into symmetric functions.  With q = log Q,
sum_i log Q(x_i) = sum_j q_j s_j in the power sums s_j, and the genus
is the top-weight part of its exponential.  One ``_Exponential`` builds
it, in the s_j or in Chern classes through Newton's identities, with
the odd classes set to zero; the genera and the wheeled exponential
(``wheeling.omega``, series sqrt(sinh(x/2)/(x/2))) all read it.  The
exact core in ``scalars`` supplies the rest: ChernPolynomial takes its
module arithmetic from ``Combination``, and one recurrence,
w E_w = sum_j j L_j E_{w-j} (``extend_exp`` and, solved for L,
``graded_log``), builds every exponential and log weight by weight: of
a series (and so its inverse and square root), of that exponential,
and of the total class in Newton's identities.  All coefficients are
Fractions; series carry an explicit truncation order and refuse
mixed-order arithmetic.

Weights are complex degrees: c_i and s_i have weight i, so the
real-degree-4k piece of a genus is the weight-2k homogeneous component
in c or s.
"""
from __future__ import annotations

import itertools
import math
from fractions import Fraction
from functools import cache
from types import MappingProxyType
from typing import Callable, Iterable, Mapping, NamedTuple, Optional

from .graph_algebra import DegreeMismatch
from .scalars import Combination, Record, accumulate, extend_exp, graded_log

Monomial = tuple[int, ...]


class SeriesError(ValueError):
    pass


class BadConstantTerm(SeriesError):
    pass


class OrderMismatch(SeriesError):
    pass


class MissingMonomial(ValueError):
    pass


class CharPowerSeries(Record):
    """One-variable series truncated after x^order, exact coefficients."""

    __slots__ = ("coeffs", "order")

    def __init__(self, coeffs: Iterable, order: int):
        cs = [Fraction(c) for c in coeffs]
        if len(cs) > order + 1:
            raise SeriesError(f"{len(cs)} coefficients exceed order {order}")
        cs += [Fraction(0)] * (order + 1 - len(cs))
        object.__setattr__(self, "coeffs", tuple(cs))
        object.__setattr__(self, "order", order)

    def __getitem__(self, j: int) -> Fraction:
        if j < 0:
            return Fraction(0)
        if j > self.order:
            raise SeriesError(f"coefficient {j} beyond truncation order {self.order}")
        return self.coeffs[j]

    def _match(self, other: "CharPowerSeries"):
        if self.order != other.order:
            raise OrderMismatch(f"orders {self.order} and {other.order} differ")

    def __add__(self, other: "CharPowerSeries") -> "CharPowerSeries":
        self._match(other)
        return CharPowerSeries(
            [a + b for a, b in zip(self.coeffs, other.coeffs)], self.order)

    def __sub__(self, other: "CharPowerSeries") -> "CharPowerSeries":
        return self + other * -1

    def __mul__(self, other) -> "CharPowerSeries":
        if not isinstance(other, CharPowerSeries):
            q = Fraction(other)
            return CharPowerSeries([c * q for c in self.coeffs], self.order)
        self._match(other)
        out = [Fraction(0)] * (self.order + 1)
        for i, a in enumerate(self.coeffs):
            if not a:
                continue
            for j in range(self.order + 1 - i):
                b = other.coeffs[j]
                if b:
                    out[i + j] += a * b
        return CharPowerSeries(out, self.order)

    __rmul__ = __mul__

    def inverse(self) -> "CharPowerSeries":
        c0 = self.coeffs[0]
        if not c0:
            raise BadConstantTerm("inverse needs a nonzero constant term")
        # 1/Q = exp(-log(Q/c0)) / c0
        return ((self * (1 / c0)).log() * -1).exp() * (1 / c0)

    def log(self) -> "CharPowerSeries":
        if self.coeffs[0] != 1:
            raise BadConstantTerm("log needs constant term 1")
        return CharPowerSeries(graded_log(self.coeffs, Fraction(0)), self.order)

    def exp(self) -> "CharPowerSeries":
        if self.coeffs[0]:
            raise BadConstantTerm("exp needs constant term 0")
        return CharPowerSeries(
            extend_exp(self.coeffs, [Fraction(1)], Fraction(0)), self.order)

    def sqrt(self) -> "CharPowerSeries":
        if self.coeffs[0] != 1:
            raise BadConstantTerm("sqrt needs constant term 1")
        return (self.log() * Fraction(1, 2)).exp()


def sinh_half_over_half(order: int) -> CharPowerSeries:
    """sinh(x/2)/(x/2) = sum x^{2m}/(4^m (2m+1)!) = 1 + x^2/24 + x^4/1920 + ..."""
    return CharPowerSeries([0 if j % 2 else Fraction(1, 2 ** j * math.factorial(j + 1))
                            for j in range(order + 1)], order)


def ahat_series(order: int) -> CharPowerSeries:
    """(x/2)/sinh(x/2)."""
    return sinh_half_over_half(order).inverse()


def sqrt_ahat_series(order: int) -> CharPowerSeries:
    """((x/2)/sinh(x/2))^{1/2}."""
    return ahat_series(order).sqrt()


def todd_series(order: int) -> CharPowerSeries:
    """x/(1 - e^{-x}), via inverting (1-e^{-x})/x = sum (-x)^n/(n+1)!."""
    coeffs = [Fraction((-1) ** n, math.factorial(n + 1)) for n in range(order + 1)]
    return CharPowerSeries(coeffs, order).inverse()


# ---------------------------------------------------------------------------
# graded polynomials in c_i / s_i


class ChernPolynomial(Combination):
    """Polynomial in indexed classes; monomial key = ascending index tuple."""

    __slots__ = ()

    def __init__(self, symbol: str, terms: Optional[Mapping[Monomial, Fraction]] = None):
        if symbol not in ("c", "s"):
            raise ValueError(f"unknown symbol {symbol!r}")
        super().__init__(terms, symbol)

    def _key(self, mono: Monomial) -> Monomial:
        mono = tuple(sorted(mono))
        if any(i < 1 for i in mono):
            raise ValueError(f"bad index in monomial {mono}")
        return mono

    @staticmethod
    def zero(symbol: str) -> "ChernPolynomial":
        return ChernPolynomial(symbol)

    @staticmethod
    def one(symbol: str) -> "ChernPolynomial":
        return ChernPolynomial(symbol, {(): Fraction(1)})

    @staticmethod
    def variable(symbol: str, index: int) -> "ChernPolynomial":
        return ChernPolynomial(symbol, {(index,): Fraction(1)})

    def __mul__(self, other) -> "ChernPolynomial":
        if not isinstance(other, ChernPolynomial):
            return super().__mul__(other)
        self._match(other)
        out: dict[Monomial, Fraction] = {}
        for m1, c1 in self.terms.items():
            for m2, c2 in other.terms.items():
                accumulate(out, tuple(sorted(m1 + m2)), c1 * c2)
        return self._new(out)

    def coefficient(self, mono: Monomial) -> Fraction:
        return self.terms.get(tuple(sorted(mono)), Fraction(0))

    def items(self) -> list[tuple[Monomial, Fraction]]:
        return sorted(self.terms.items(), key=lambda kv: kv[0])

    def render(self) -> str:
        if not self.terms:
            return "0"
        return " + ".join(
            f"({coeff})" + _power_product(f"{self.symbol}{i}" for i in mono)
            if mono else str(coeff) for mono, coeff in self.items())

    def __repr__(self):
        return f"ChernPolynomial({self.render()!r})"


def _power_product(names: Iterable[str]) -> str:
    """'s2^2*s4' from the sorted factor names s2, s2, s4."""
    factors = []
    for name, run in itertools.groupby(names):
        power = len(list(run))
        factors.append(name if power == 1 else f"{name}^{power}")
    return "*".join(factors)


# ---------------------------------------------------------------------------
# Newton's identities


@cache
def power_sum_in_chern(j: int) -> ChernPolynomial:
    """s_j as a polynomial in c_2, c_4, ..., c_j, the odd classes set to
    zero (eigenvalues in opposite pairs kill them).

    Newton's identities: the total class prod_i (1 + x_i) has the log
    sum_j (-1)^(j-1) s_j / j, which graded_log reads off weight by weight;
    setting classes to zero commutes with it.
    """
    if j < 1:
        raise ValueError("power sums are indexed from 1")
    zero = ChernPolynomial.zero("c")
    total = [ChernPolynomial.one("c")] + [
        zero if i % 2 else ChernPolynomial.variable("c", i) for i in range(1, j + 1)]
    return (graded_log(total, zero)[j] * ((-1) ** (j - 1) * j)).frozen()


# ---------------------------------------------------------------------------
# genus polynomials


def log_coefficients(Q: CharPowerSeries) -> list[Fraction]:
    """Coefficients q_1.. of log Q; q_0 dropped."""
    return list(Q.log().coeffs[1:])


class _Exponential:
    """exp(sum_j q_j s_j), q = log Q, kept weight by weight, each weight
    frozen: in the power sums s_j (``symbol`` "s", the odd ones zero) or
    in Chern classes through Newton's identities (``symbol`` "c").

    Q comes from ``series(order)``, truncated after x^order.  A series
    truncated at a higher order has the same coefficients below it, so
    every weight computed stays valid, and a higher one only extends the
    list."""

    __slots__ = ("series", "zero", "parts", "graded")

    def __init__(self, series: Callable[[int], CharPowerSeries], symbol: str):
        if series(0).coeffs[0] != 1:
            raise BadConstantTerm("a genus series needs constant term 1")
        self.series = series
        self.zero = ChernPolynomial.zero(symbol)
        self.parts = [self.zero]
        self.graded = [ChernPolynomial.one(symbol).frozen()]

    def _power_sum(self, j: int) -> ChernPolynomial:
        if self.zero.symbol == "c":
            return power_sum_in_chern(j)
        return self.zero if j % 2 else ChernPolynomial.variable("s", j)

    def weight(self, w: int) -> ChernPolynomial:
        if w >= len(self.graded):
            q = log_coefficients(self.series(w))
            self.parts += [q[j - 1] * self._power_sum(j) if q[j - 1] else self.zero
                           for j in range(len(self.parts), w + 1)]
            known = len(self.graded)
            extend_exp(self.parts, self.graded, self.zero)
            self.graded[known:] = [e.frozen() for e in self.graded[known:]]
        return self.graded[w]


def _genus(Q: CharPowerSeries, k: int, symbol: str) -> ChernPolynomial:
    """Weight-2k part of exp(sum_j q_j s_j), q = log Q, in ``symbol``."""
    if k < 0:
        raise DegreeMismatch(f"degree {k} is negative")
    if Q.order < 2 * k:
        raise OrderMismatch(f"series order {Q.order} below required {2 * k}")
    return _Exponential(lambda order: Q, symbol).weight(2 * k)


def genus_in_power_sums(Q: CharPowerSeries, k: int) -> ChernPolynomial:
    """Weight-2k part of exp(sum_j q_j s_j), kept in the s variables,
    with the odd power sums set to zero."""
    return _genus(Q, k, "s")


def genus_polynomial(Q: CharPowerSeries, k: int) -> ChernPolynomial:
    """The real-degree-4k genus polynomial in Chern classes, with the odd
    classes set to zero."""
    return _genus(Q, k, "c")


class Genus(NamedTuple):
    """A named genus; equal genera share one exponential, grown to the
    highest degree asked for so far, and so the same polynomials."""

    name: str
    series: Callable[[int], CharPowerSeries]

    def polynomial(self, k: int) -> ChernPolynomial:
        if k < 0:
            raise DegreeMismatch(f"degree {k} is negative")
        return _exponential(self).weight(2 * k)


@cache
def _exponential(genus: Genus) -> _Exponential:
    return _Exponential(genus.series, "c")


def builtin_genera() -> dict[str, Genus]:
    return {
        "ahat": Genus("ahat", ahat_series),
        "todd": Genus("todd", todd_series),
        "sqrt_ahat": Genus("sqrt_ahat", sqrt_ahat_series),
    }


# ---------------------------------------------------------------------------
# evaluation against manifold data


def even_monomials(k: int) -> list[Monomial]:
    """All weight-2k monomials in even-index classes, sorted."""
    out: list[Monomial] = []

    def build(prefix: list[int], small: int, left: int):
        if left == 0:
            out.append(tuple(prefix))
            return
        i = small
        while i <= left:
            build(prefix + [i], i, left - i)
            i += 2
        return

    build([], 2, 2 * k)
    return sorted(out)


class ChernData(Record):
    """Exact values of all degree-4k monomials in even Chern classes;
    immutable, with the values behind a read-only mapping."""

    __slots__ = ("k", "values")

    def __init__(self, k: int, values: Mapping[Monomial, Fraction]):
        if k < 1:
            raise ValueError("k must be positive")
        vals = {tuple(sorted(m)): Fraction(v) for m, v in values.items()}
        needed = even_monomials(k)
        for mono in vals:
            if any(i % 2 for i in mono):
                raise ValueError(f"odd class in monomial {mono}")
            if sum(mono) != 2 * k:
                raise DegreeMismatch(f"monomial {mono} is not of weight {2 * k}")
        for mono in needed:
            if mono not in vals:
                raise MissingMonomial(f"missing value for monomial {mono}")
        object.__setattr__(self, "k", k)
        object.__setattr__(self, "values", MappingProxyType(vals))

    def __hash__(self):
        return hash((self.k, frozenset(self.values.items())))

    def __reduce__(self):
        return ChernData, (self.k, dict(self.values))


def evaluate(p: ChernPolynomial, data: ChernData) -> Fraction:
    """Pair a degree-4k Chern polynomial with the fundamental class."""
    if p.symbol != "c":
        raise ValueError("evaluation needs the c presentation")
    total = Fraction(0)
    for mono, coeff in p.terms.items():
        if sum(mono) != 2 * data.k:
            raise DegreeMismatch(
                f"monomial {mono} has weight {sum(mono)}, data is degree {2 * data.k}")
        if mono not in data.values:
            raise MissingMonomial(f"no value for monomial {mono}")
        total += coeff * data.values[mono]
    return total
