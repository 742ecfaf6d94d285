"""The package's exact core: scalars graded by powers of pi^2, and the
one copy of its sparse linear algebra.

The core has four parts, each used everywhere it applies: ``accumulate``
is the only zero-dropping add; ``Combination`` is the module arithmetic
of graph vectors and Chern polynomials; ``Echelon`` is the only
elimination (of the IHX relations); and ``extend_exp`` / ``graded_log``
run the one recurrence w E_w = sum_j j L_j E_{w-j} of an exponential,
for power series and Chern polynomials alike.  This module imports
nothing from the package.

Curvature norms and wheel weights are rational multiples of powers of
pi^2, so they are kept symbolic: a ``PiScalar`` is ``coef * (pi^2)**pi2``
with a Fraction coef.  A k-th root with no such value is a ``Root``: the
exact k-th power and the least index k, so every value stays exact.
Typed text enters only through ``parse_rational`` and doubles leave
only through ``to_float``, when a scalar is rounded or rendered; it
refuses to round a nonzero value to 0 or +-inf.
"""
from __future__ import annotations

from fractions import Fraction
import math
import reprlib
import sys
from operator import attrgetter
from types import MappingProxyType
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
    except ValueError:
        raise ValueError(f"bad rational {reprlib.repr(text)}: expected an integer, "
                         "p/q or a decimal") from None


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
    pi power for PiScalar, a root in logs for Root); a nonzero value whose
    double comes out 0 or +-inf is a ValueError, never a silent 0 or inf."""
    try:
        out = convert(value)
    except OverflowError:
        out = math.inf
    if value and (out == 0 or math.isinf(out)):
        side = "above" if out else "below"
        raise ValueError(f"a nonzero value lies {side} the double range")
    return out


class Record:
    """Base of the immutable slotted classes: ``__init__`` sets each field
    once, and equality, hashing, repr and pickling follow ``__slots__``."""

    __slots__ = ()

    def __setattr__(self, name, *value):
        raise AttributeError(f"{type(self).__name__}.{name} is read-only")

    __delattr__ = __setattr__

    def _values(self) -> tuple:
        return tuple(getattr(self, name) for name in self.__slots__)

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._values() == other._values()

    def __hash__(self):
        return hash(self._values())

    def __repr__(self):
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self.__slots__)
        return f"{type(self).__name__}({fields})"

    def __reduce__(self):
        return type(self), self._values()


class PiScalar(Record):
    """A number coef * (pi^2)**pi2 with a Fraction coef.

    Immutable, and not a tuple: scalars have no order, length or
    iteration."""

    __slots__ = ("coef", "pi2")

    def __init__(self, coef: Fraction | int, pi2: int = 0):
        if not isinstance(coef, Fraction):
            if not isinstance(coef, int):
                raise ValueError(f"a PiScalar coefficient is a Fraction or an int, "
                                 f"not {type(coef).__name__}")
            coef = Fraction(coef)
        object.__setattr__(self, "coef", coef)
        object.__setattr__(self, "pi2", pi2)

    @staticmethod
    def of(value, pi2: int = 0) -> "PiScalar":
        return PiScalar(Fraction(value), pi2)

    def __bool__(self) -> bool:
        return bool(self.coef)

    def __neg__(self) -> "PiScalar":
        return PiScalar(-self.coef, self.pi2)

    def _coerce(self, other) -> "PiScalar":
        if isinstance(other, PiScalar):
            return other
        if isinstance(other, (int, Fraction)):
            return PiScalar(Fraction(other), 0)
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

    __radd__ = __add__

    def __sub__(self, other) -> "PiScalar":
        return self.__add__(-self._coerce(other))

    def __mul__(self, other) -> "PiScalar":
        other = self._coerce(other)
        return PiScalar(self.coef * other.coef, self.pi2 + other.pi2)

    __rmul__ = __mul__

    def __truediv__(self, other) -> "PiScalar":
        other = self._coerce(other)
        return PiScalar(self.coef / other.coef, self.pi2 - other.pi2)

    def __pow__(self, k: int) -> "PiScalar":
        if not isinstance(k, int) or k < 0:
            raise ValueError("PiScalar powers must be nonnegative integers")
        return PiScalar(self.coef ** k, self.pi2 * k)

    def __eq__(self, other) -> bool:
        if isinstance(other, (int, Fraction)):
            other = self._coerce(other)
        if not isinstance(other, PiScalar):
            return NotImplemented
        if self.coef == 0 and other.coef == 0:
            return True
        return self.coef == other.coef and self.pi2 == other.pi2

    def __hash__(self):
        # a zero or grade-0 scalar equals its coefficient, so hashes as it
        if not self.coef or not self.pi2:
            return hash(self.coef)
        return hash((self.coef, self.pi2))

    def root(self, k: int) -> "PiScalar | Root":
        """The k-th root: a PiScalar if one exists, else a Root of least index."""
        if self.coef < 0:
            raise ValueError(f"cannot take a root of index {k} of a negative scalar")
        for q in range(k, 1, -1):  # the index k // q ascends
            if k % q == 0 and self.pi2 % q == 0:
                exact = nth_root_fraction(self.coef, q)
                if exact is not None:
                    base = PiScalar(exact, self.pi2 // q)
                    return base if q == k else Root(base, k // q)
        return Root(self, k) if self.coef and k > 1 else self

    def __float__(self) -> float:
        def convert(coef: Fraction) -> float:
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
        return (math.log(abs(self.coef.numerator)) - math.log(self.coef.denominator)
                + 2 * self.pi2 * math.log(math.pi))

    def render(self, use_float: bool = False) -> str:
        """Deterministic text form: '48', '192*pi^2', '-1/5760*pi^4'."""
        if use_float:
            return f"{float(self):.12g}"
        if self.pi2 == 0:
            return str(self.coef)
        power = "pi^2" if self.pi2 == 1 else f"pi^{2 * self.pi2}"
        return f"{self.coef}*{power}"


class Root(Record):
    """The k-th root of a positive PiScalar ``power`` that has none, at the
    least index k (the least whose power is a PiScalar): so ``==`` and
    ``hash`` on (power, k) are equality of values."""

    __slots__ = ("power", "k")

    def __init__(self, power: PiScalar, k: int):
        object.__setattr__(self, "power", power)
        object.__setattr__(self, "k", k)

    def __pow__(self, n: int) -> "PiScalar | Root":
        return (self.power ** n).root(self.k)

    def __float__(self) -> float:
        # (n/d pi^(2p))^(1/k) = (n/(d 2^(k q)))^(1/k) 2^(q + t), t = 2p/k log2(pi):
        # the root is taken near 1, and 2^q enters exactly, at any size
        num, den, k = self.power.coef.numerator, self.power.coef.denominator, self.k
        q = (num.bit_length() - den.bit_length()) // k
        head = num / (den << k * q) if q >= 0 else (num << -k * q) / den
        t = 2 * self.power.pi2 / k * math.log2(math.pi)
        return to_float(self.power.coef, lambda _: math.ldexp(
            head ** (1 / k) * 2 ** (t % 1), q + math.floor(t)))

    def render(self, use_float: bool = False) -> str:
        return f"{float(self):.12g}"


def parse_pi_scalar(text: str) -> PiScalar:
    """Parse 'p/q', 'p/q*pi^2', 'p/q*pi^-4', ... (inverse of render); any
    other text is a ValueError with a one-line message that names it."""
    head, star, tail = text.strip().partition("*")
    if not head:
        raise ValueError(f"no coefficient in the scalar {reprlib.repr(text)}")
    if not star:
        return PiScalar(parse_rational(head), 0)
    if not (tail.startswith("pi^") and tail.isascii() and tail[3:].removeprefix("-").isdigit()):
        raise ValueError(f"bad factor {reprlib.repr(tail)} in the scalar "
                         f"{reprlib.repr(text)}: expected pi^<even power>")
    try:
        power = int(tail[3:])
    except ValueError:  # only the digit bound: the characters are digits
        raise ValueError(f"the power of pi in {reprlib.repr(text)} has more than "
                         f"{sys.get_int_max_str_digits()} digits") from None
    if power % 2 != 0:
        raise ValueError(f"the power of pi in {reprlib.repr(text)} is odd")
    return PiScalar(parse_rational(head), power // 2)


# ---------------------------------------------------------------------------
# sparse exact linear algebra

def accumulate(terms: dict, key, value) -> None:
    """terms[key] += value, dropping the key when the sum is zero."""
    old = terms.get(key)
    new = value if old is None else old + value
    if new:
        terms[key] = new
    elif old is not None:
        del terms[key]


class Combination:
    """A finite combination ``terms`` {key: nonzero Fraction} over one
    ``symbol`` (None for graphs), neither rebindable: the module arithmetic
    shared by its subclasses, which normalize (``_key``) and multiply keys."""

    __slots__ = ("_symbol", "_terms")
    symbol, terms = property(attrgetter("_symbol")), property(attrgetter("_terms"))

    def __init__(self, terms=None, symbol=None):
        self._symbol, self._terms = symbol, {}
        for key, coeff in (terms or {}).items():
            coeff = Fraction(coeff)
            if coeff:
                accumulate(self._terms, self._key(key), coeff)

    def _key(self, key):
        return key

    def _new(self, terms: dict):
        """A combination of this kind and symbol on zero-free terms."""
        out = object.__new__(type(self))
        out._symbol, out._terms = self._symbol, terms
        return out

    def frozen(self):
        """A copy with read-only terms, for a value that a cache shares."""
        return self._new(MappingProxyType(dict(self.terms)))

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
            acc = acc + parts[j] * j * graded[w - j]
    return acc


def extend_exp(parts: Sequence, graded: list, zero) -> list:
    """Extend the weights [E_0, ..., E_m] of exp(L), L = parts[1] + ... graded
    by weight, in place through weight n = len(parts) - 1: the grading is a
    derivation, so w E_w = sum_j j L_j E_{w-j}; graded = [1] gives all of exp(L)."""
    for w in range(len(graded), len(parts)):
        graded.append(_graded_sum(parts, graded, w, zero) * Fraction(1, w))
    return graded


def graded_log(graded: Sequence, zero) -> list:
    """[0, L_1, ..., L_n] for L = log(E), E_0 = 1: the recurrence of
    extend_exp solved for L_w."""
    parts = [zero]
    for w in range(1, len(graded)):
        parts.append(graded[w] - _graded_sum(parts, graded, w, zero) * Fraction(1, w))
    return parts
