"""The package's exact core: scalars graded by powers of pi^2, and the
one copy of its sparse linear algebra.

The core has four parts, each used everywhere it applies: ``accumulate``
is the only zero-dropping add; ``Combination`` is the module arithmetic
of graph vectors and Chern polynomials; ``Echelon`` is the only
elimination (IHX relations and inverse forms); and ``graded_exp`` /
``graded_log`` run the one recurrence w E_w = sum_j j L_j E_{w-j} of an
exponential, for power series and Chern polynomials alike.  This module
imports nothing from the package.

Curvature norms and wheel weights are rational multiples of powers of
pi^2, so they are kept symbolic: a value is ``coef * (pi^2)**pi2``.
The coefficient stays a Fraction as long as every operation is exact;
a root that does not exist in the rationals degrades the coefficient
to a float (double precision, relative error a few ulps).
Typed text enters only through ``parse_rational`` and doubles leave
only through ``to_float``, which refuses to round a nonzero value to 0
or +-inf.
"""
from __future__ import annotations

from fractions import Fraction
import math
import operator
import reprlib
import sys
from typing import Callable, Sequence


def nth_root_int(value: int, k: int) -> int | None:
    """Exact integer k-th root of a nonnegative integer, or None."""
    if value < 0:
        return None
    if value in (0, 1):
        return value
    # integer Newton from above: 2^ceil(bits/k) >= the root, and each
    # step decreases until it reaches floor(value^(1/k))
    root = 1 << -(-value.bit_length() // k)
    while True:
        step = ((k - 1) * root + value // root ** (k - 1)) // k
        if step >= root:
            break
        root = step
    return root if root ** k == value else None


def nth_root_fraction(value: Fraction, k: int) -> Fraction | None:
    """Exact rational k-th root, or None when no such rational exists."""
    if value < 0:
        return None
    num = nth_root_int(value.numerator, k)
    den = nth_root_int(value.denominator, k)
    if num is None or den is None:
        return None
    return Fraction(num, den)


def parse_rational(text: str) -> Fraction:
    """Typed text as an exact rational: '7/3', '-2', '1.5e-400'; '1/0',
    'nan', 'inf' and literals of more digits than Python's int<->str bound
    (sys.get_int_max_str_digits()) are a ValueError like any other
    malformed literal."""
    _check_digits(text)
    try:
        return Fraction(text)
    except ZeroDivisionError:
        raise ValueError(f"zero denominator in {text!r}") from None


def _check_digits(text: str) -> None:
    """Bound mantissa digits plus decimal exponent before Fraction computes
    10**exponent (Fraction('1e10000000') alone takes seconds); without an
    exponent, the int() inside Fraction applies the bound itself."""
    mantissa, e, exponent = text.lower().partition("e")
    try:
        exp = abs(int(exponent)) if e else 0
    except ValueError:
        return  # malformed: Fraction refuses it
    # 0 switches Python's own bound off; this one stays at the default
    limit = sys.get_int_max_str_digits() or sys.int_info.default_max_str_digits
    if exp and exp + sum(c.isdigit() for c in mantissa) > limit:
        raise ValueError(f"{reprlib.repr(text)} needs more than {limit} digits")


def to_float(value: Fraction | float,
             convert: Callable[[Fraction | float], float] = float) -> float:
    """convert(value) as a double (convert rounds: float() by default, a
    pi power or a root in logs for PiScalar); a nonzero value whose
    double comes out 0 or +-inf is a ValueError, never a silent 0 or inf."""
    try:
        out = convert(value)
    except OverflowError:
        out = math.inf
    if value and (out == 0 or math.isinf(out)):
        side = "above" if out else "below"
        raise ValueError(f"a nonzero value lies {side} the double range")
    return out


def _mixed(op, a: Fraction | float, b: Fraction | float) -> Fraction | float:
    """op(a, b); a float with a Fraction is computed on exact Fractions and
    rounded once, so no exact operand is rounded out of the double range."""
    if isinstance(a, float) == isinstance(b, float):
        return op(a, b)
    return to_float(op(Fraction(a), Fraction(b)))


# natural logs of the least normal and the greatest double
_LN_NORMAL = (math.log(sys.float_info.min), math.log(sys.float_info.max))


def read_only(self, name, *value):
    """``__setattr__`` and ``__delattr__`` of the immutable slotted classes."""
    raise AttributeError(f"{type(self).__name__}.{name} is read-only")


class PiScalar:
    """A number coef * (pi^2)**pi2; exact when coef is a Fraction.

    Immutable, and not a tuple: scalars have no order, length or
    iteration."""

    __slots__ = ("coef", "pi2")
    __setattr__ = __delattr__ = read_only

    def __init__(self, coef: Fraction | float, pi2: int = 0):
        object.__setattr__(self, "coef", coef)
        object.__setattr__(self, "pi2", pi2)

    def __repr__(self):
        return f"PiScalar(coef={self.coef!r}, pi2={self.pi2!r})"

    def __reduce__(self):
        return PiScalar, (self.coef, self.pi2)

    @staticmethod
    def of(value, pi2: int = 0) -> "PiScalar":
        return PiScalar(Fraction(value), pi2)

    @property
    def exact(self) -> bool:
        return isinstance(self.coef, Fraction)

    def __bool__(self) -> bool:
        return bool(self.coef)

    def __neg__(self) -> "PiScalar":
        return PiScalar(-self.coef, self.pi2)

    def _coerce(self, other) -> "PiScalar":
        if isinstance(other, PiScalar):
            return other
        if isinstance(other, (int, Fraction)):
            return PiScalar(Fraction(other), 0)
        if isinstance(other, float):
            return PiScalar(other, 0)
        raise TypeError(f"cannot combine PiScalar with {type(other)!r}")

    def __add__(self, other) -> "PiScalar":
        other = self._coerce(other)
        if self.coef == 0:
            return other
        if other.coef == 0:
            return self
        if self.pi2 != other.pi2:
            raise ValueError("cannot add scalars of different pi^2 grade exactly")
        return PiScalar(self.coef + other.coef, self.pi2)

    def __radd__(self, other) -> "PiScalar":
        return self.__add__(other)

    def __sub__(self, other) -> "PiScalar":
        return self.__add__(-self._coerce(other))

    def __mul__(self, other) -> "PiScalar":
        other = self._coerce(other)
        return PiScalar(_mixed(operator.mul, self.coef, other.coef),
                        self.pi2 + other.pi2)

    def __rmul__(self, other) -> "PiScalar":
        return self.__mul__(other)

    def __truediv__(self, other) -> "PiScalar":
        other = self._coerce(other)
        return PiScalar(_mixed(operator.truediv, self.coef, other.coef),
                        self.pi2 - other.pi2)

    def __pow__(self, k: int) -> "PiScalar":
        if not isinstance(k, int) or k < 0:
            raise ValueError("PiScalar powers must be nonnegative integers")
        return PiScalar(self.coef ** k, self.pi2 * k)

    def __eq__(self, other) -> bool:
        if isinstance(other, (int, Fraction, float)):
            other = self._coerce(other)
        if not isinstance(other, PiScalar):
            return NotImplemented
        if self.coef == 0 and other.coef == 0:
            return True
        return self.coef == other.coef and self.pi2 == other.pi2

    def __hash__(self):
        if self.coef == 0:
            return hash(0)
        return hash((self.coef, self.pi2))

    def root(self, k: int) -> "PiScalar":
        """k-th root; exact when the grade divides and the coef has one,
        else a double."""
        if k == 1:
            return self
        if self.exact and self.pi2 % k == 0:
            exact = nth_root_fraction(self.coef, k)
            if exact is not None:
                return PiScalar(exact, self.pi2 // k)
        if self.coef > 0:
            ln = self._ln_abs()
            if not _LN_NORMAL[0] <= ln <= _LN_NORMAL[1]:
                # the radicand's double is 0, subnormal or inf, but its
                # root may be a normal double: take the root in logs
                return PiScalar(to_float(self.coef, lambda _: math.exp(ln / k)), 0)
        return PiScalar(float(self) ** (1.0 / k), 0)

    def __float__(self) -> float:
        def convert(coef: Fraction | float) -> float:
            if not coef or not self.pi2:
                return float(coef)
            try:
                head, scale = float(coef), math.pi ** (2 * self.pi2)
            except OverflowError:
                head = scale = 0.0
            if min(abs(head), scale) >= sys.float_info.min:
                return head * scale
            # a factor alone leaves the double range: multiply in logs
            return (1 if coef > 0 else -1) * math.exp(self._ln_abs())

        return to_float(self.coef, convert)

    def _ln_abs(self) -> float:
        """log|coef * pi^(2 pi2)| for a nonzero coef of any size."""
        coef = abs(Fraction(self.coef))
        return (math.log(coef.numerator) - math.log(coef.denominator)
                + 2 * self.pi2 * math.log(math.pi))

    def render(self, use_float: bool = False) -> str:
        """Deterministic text form: '48', '192*pi^2', '-1/5760*pi^4'."""
        if use_float or not self.exact:
            return f"{float(self):.12g}"
        if self.pi2 == 0:
            return str(self.coef)
        power = "pi^2" if self.pi2 == 1 else f"pi^{2 * self.pi2}"
        return f"{self.coef}*{power}"


def parse_pi_scalar(text: str) -> PiScalar:
    """Parse 'p/q', 'p/q*pi^2', 'p/q*pi^4', ... (inverse of render)."""
    text = text.strip()
    if "*" in text:
        head, tail = text.split("*", 1)
        if not tail.startswith("pi^"):
            raise ValueError(f"bad scalar literal {text!r}")
        power = int(tail[3:])
        if power % 2 != 0:
            raise ValueError("only even powers of pi are representable")
        return PiScalar(parse_rational(head), power // 2)
    return PiScalar(parse_rational(text), 0)


# ---------------------------------------------------------------------------
# sparse exact linear algebra

_ZERO = Fraction(0)


def accumulate(terms: dict, key, value) -> None:
    """terms[key] += value, dropping the key when the sum is zero."""
    new = terms.get(key, _ZERO) + value
    if new:
        terms[key] = new
    else:
        terms.pop(key, None)


class Combination:
    """A finite combination {key: nonzero Fraction} over one symbol (None
    for graphs): the module arithmetic shared by its subclasses, which
    normalize (``_key``) and multiply their own keys."""

    __slots__ = ("symbol", "terms")

    def __init__(self, terms=None, symbol=None):
        self.symbol = symbol
        self.terms = {}
        for key, coeff in (terms or {}).items():
            coeff = Fraction(coeff)
            if coeff:
                accumulate(self.terms, self._key(key), coeff)

    def _key(self, key):
        return key

    def _new(self, terms: dict):
        """A combination of this kind and symbol on zero-free terms."""
        out = object.__new__(type(self))
        out.symbol, out.terms = self.symbol, terms
        return out

    def _match(self, other: "Combination"):
        if self.symbol != other.symbol:
            raise ValueError(f"mixed symbols {self.symbol!r} and {other.symbol!r}")

    def __bool__(self) -> bool:
        return bool(self.terms)

    def __eq__(self, other) -> bool:
        return (type(other) is type(self) and self.symbol == other.symbol
                and self.terms == other.terms)

    def __hash__(self):
        return hash((self.symbol, frozenset(self.terms.items())))

    def __add__(self, other):
        self._match(other)
        out = dict(self.terms)
        for key, coeff in other.terms.items():
            accumulate(out, key, coeff)
        return self._new(out)

    def __neg__(self):
        return self._new({key: -c for key, c in self.terms.items()})

    def __sub__(self, other):
        return self + (-other)

    def __mul__(self, scalar):
        scalar = Fraction(scalar)
        if not scalar:
            return self._new({})
        return self._new({key: c * scalar for key, c in self.terms.items()})

    __rmul__ = __mul__


class Echelon:
    """Sparse rows {column: Fraction}, fully reduced and keyed by pivot:
    a row's pivot is its least column, with entry 1, and no other row
    has an entry there.  So the rows, and the reduction of a vector, do
    not depend on the order in which rows were added."""

    __slots__ = ("rows",)

    def __init__(self):
        self.rows: dict[int, dict[int, Fraction]] = {}

    def reduce(self, row: dict[int, Fraction]) -> dict[int, Fraction]:
        """row minus its part in the span: zero at every pivot."""
        row = dict(row)
        # a basis row is zero at the other pivots, so the pivots present
        # now are all that ever need clearing
        for pivot in [j for j in row if j in self.rows]:
            factor = -row[pivot]
            for j, c in self.rows[pivot].items():
                accumulate(row, j, factor * c)
        return row

    def add(self, row: dict[int, Fraction]) -> None:
        """Add row to the span, keeping every row fully reduced."""
        row = self.reduce(row)
        if not row:
            return
        pivot = min(row)
        inv = 1 / Fraction(row[pivot])
        row = {j: c * inv for j, c in row.items()}
        for other in self.rows.values():
            if pivot in other:
                factor = -other[pivot]
                for j, c in row.items():
                    accumulate(other, j, factor * c)
        self.rows[pivot] = row


def _graded_sum(parts: Sequence, graded: Sequence, w: int, zero):
    """sum_j j L_j E_{w-j} over 1 <= j <= w with L_j in parts."""
    acc = zero
    for j in range(1, min(w, len(parts) - 1) + 1):
        if parts[j] and graded[w - j]:
            acc = acc + parts[j] * graded[w - j] * j
    return acc


def graded_exp(parts: Sequence, zero, one) -> list:
    """[E_0, ..., E_n] for E = exp(L), L = parts[1] + ... + parts[n] graded
    by weight: the grading is a derivation, so w E_w = sum_j j L_j E_{w-j}."""
    graded = [one]
    for w in range(1, len(parts)):
        graded.append(_graded_sum(parts, graded, w, zero) * Fraction(1, w))
    return graded


def graded_log(graded: Sequence, zero) -> list:
    """[0, L_1, ..., L_n] for L = log(E), E_0 = 1: the recurrence of
    graded_exp solved for L_w."""
    parts = [zero]
    for w in range(1, len(graded)):
        parts.append(graded[w] - _graded_sum(parts, graded, w, zero) * Fraction(1, w))
    return parts
