"""Scalar identities for compact irreducible hyperkähler manifolds.

Inputs are exact: degree k (real dimension 4k), the degree-4k Chern
numbers (odd classes vanish), a volume, optionally a measured L^2
curvature norm.  The central identity evaluated here is

    ||R||^(2k) / ((192 pi^2 k)^k vol^(k-1)) = sqrtAhat[M],

together with the derived constants: the coefficient of the k-fold
double-edge graph b = 48^k k! sqrtAhat[M], the sectional constant
c = ||R||^2 / (2k vol), and the closed loop b = k!/(2 pi^2)^k c^k vol.
All arithmetic stays in exact rationals times powers of pi^2.  Every
exact factor is multiplied into the radicand before the k-th root is
taken, so a norm with no exact value is one Root of an exact number, a
power of it is exact again, and the two routes to the norm are equal.

The identities assume irreducible holonomy; for reducible input the
report carries a note saying they are not asserted.
"""
from __future__ import annotations

import math
from fractions import Fraction
from typing import NamedTuple, Optional

from .scalars import PiScalar, Record, Root
from .genus import ChernData, builtin_genera, evaluate


class AnalysisError(ValueError):
    pass


class NonpositiveSqrtAhat(AnalysisError):
    pass


class MissingNorm(AnalysisError):
    pass


class ManifoldData(Record):
    """The inputs of an analysis, checked on construction; immutable."""

    __slots__ = ("k", "chern", "volume", "norm_R_sq", "irreducible")

    def __init__(self, k: int, chern: ChernData, volume: PiScalar,
                 norm_R_sq: Optional[PiScalar] = None, irreducible: bool = True):
        # ChernData refuses k < 1, so this also refuses a k below 1
        if chern.k != k:
            raise ValueError(f"Chern data is degree {chern.k}, manifold has k={k}")
        if volume.coef <= 0:
            raise ValueError("volume must be positive")
        if norm_R_sq is not None and norm_R_sq.coef < 0:
            raise ValueError("curvature norm must not be negative")
        for name, value in zip(self.__slots__, (k, chern, volume, norm_R_sq, irreducible)):
            object.__setattr__(self, name, value)


def sqrt_ahat_number(d: ManifoldData) -> Fraction:
    return evaluate(builtin_genera()["sqrt_ahat"].polynomial(d.k), d.chern)


def ahat_number(d: ManifoldData) -> Fraction:
    return evaluate(builtin_genera()["ahat"].polynomial(d.k), d.chern)


def euler_number(d: ManifoldData) -> Fraction:
    """Value of the top class c_{2k}."""
    return d.chern.values[(2 * d.k,)]


def curvature_norm(d: ManifoldData, sqrt_ahat: Fraction | None = None) -> PiScalar | Root:
    """||R||^2 = 192 pi^2 k (vol^(k-1) sqrtAhat[M])^(1/k)
    = ((192 pi^2 k)^k vol^(k-1) sqrtAhat[M])^(1/k)."""
    s = sqrt_ahat_number(d) if sqrt_ahat is None else sqrt_ahat
    if s <= 0:
        raise NonpositiveSqrtAhat(
            f"sqrtAhat[M] = {s} is not positive; the norm identity fails")
    k = d.k
    return (PiScalar.of(192 * k, 1) ** k * d.volume ** (k - 1) * s).root(k)


def b_theta_k(d: ManifoldData, sqrt_ahat: Fraction | None = None) -> Fraction:
    """Coefficient of the k-fold double-edge graph: 48^k k! sqrtAhat[M]."""
    s = sqrt_ahat_number(d) if sqrt_ahat is None else sqrt_ahat
    return Fraction(48 ** d.k * math.factorial(d.k)) * s


def curvature_norm_via_b(d: ManifoldData) -> PiScalar | Root:
    """Second route: invert b = k!/(4 pi^2 k)^k ||R||^(2k)/vol^(k-1)."""
    b = b_theta_k(d)
    if b <= 0:
        raise NonpositiveSqrtAhat(
            f"b coefficient {b} is not positive; the norm identity fails")
    k = d.k
    return (PiScalar.of(Fraction(b, math.factorial(k)) * (4 * k) ** k, k)
            * d.volume ** (k - 1)).root(k)


def c_theta(d: ManifoldData, norm: PiScalar | Root | None = None) -> PiScalar | Root:
    """c = ||R||^2 / (2k vol) = (||R||^(2k) / (2k vol)^k)^(1/k), for the
    norm given, else the measured one, else the computed one."""
    norm = d.norm_R_sq if norm is None else norm
    if norm is None:
        try:
            norm = curvature_norm(d)
        except NonpositiveSqrtAhat as exc:
            raise MissingNorm(
                "no measured norm was given and none is computable: "
                + str(exc)) from exc
    k = d.k
    return (norm ** k / (PiScalar.of(2 * k) * d.volume) ** k).root(k)


def b_theta_via_c(d: ManifoldData) -> PiScalar:
    """Closed loop: b = k!/(2 pi^2)^k c^k vol; equals b_theta_k exactly."""
    c = c_theta(d)
    k = d.k
    return PiScalar.of(math.factorial(k)) / PiScalar.of(2 ** k, k) * c ** k * d.volume


# ---------------------------------------------------------------------------
# the report


REPORT_KEYS = ("sqrt_ahat", "ahat", "euler", "b_theta_k", "c_theta", "norm_R_sq")


class AnalysisReport(NamedTuple):
    k: int
    sqrt_ahat: Fraction
    ahat: Fraction
    euler: Fraction
    b_theta_k: Fraction
    c_theta: Optional[PiScalar | Root]
    norm_R_sq: Optional[PiScalar | Root]
    verdicts: tuple[tuple[str, str], ...]
    notes: tuple[str, ...] = ()

    def verdict(self, name: str) -> str:
        for key, value in self.verdicts:
            if key == name:
                return value
        raise KeyError(name)

    @property
    def all_pass(self) -> bool:
        return all(v != "fail" for _, v in self.verdicts)

    def render(self, use_float: bool = False) -> str:
        def scalar(x):
            if x is None:
                return "none"
            x = x if isinstance(x, (PiScalar, Root)) else PiScalar.of(x)
            return x.render(use_float)

        lines = [f"{key} {scalar(getattr(self, key))}" for key in REPORT_KEYS]
        lines += [f"verdicts.{key} {value}" for key, value in self.verdicts]
        lines += [f"note {note}" for note in self.notes]
        return "\n".join(lines)


def validate(d: ManifoldData) -> AnalysisReport:
    """Evaluate every identity and constraint; verdicts, not exceptions."""
    sqrt_a = sqrt_ahat_number(d)
    ahat = ahat_number(d)
    euler = euler_number(d)
    b = b_theta_k(d, sqrt_a)

    verdicts: list[tuple[str, str]] = []
    # ChernData admits only even classes, so the vanishing is structural
    verdicts.append(("odd_chern_vanish", "pass"))
    verdicts.append(("ahat_equals_k_plus_1",
                     "pass" if ahat == d.k + 1 else "fail"))
    verdicts.append(("sqrt_ahat_positive", "pass" if sqrt_a > 0 else "fail"))

    norm = d.norm_R_sq
    if norm is None and sqrt_a > 0:
        norm = curvature_norm(d, sqrt_a)
    c = None if norm is None else c_theta(d, norm)

    if d.k == 2:
        # the two forms of the same constraint, computed independently
        a1_sq = Fraction(d.chern.values[(2, 2)], 144)
        verdicts.append(("a1_squared_below_12",
                         "pass" if a1_sq < 12 else "fail"))
        verdicts.append(("euler_below_3024",
                         "pass" if euler < 3024 else "fail"))
        verdicts.append(("beauville_euler_at_most_324",
                         "info-yes" if euler <= 324 else "info-no"))

    notes: list[str] = []
    if not d.irreducible:
        notes.append("input marked reducible: the identities above assume "
                     "irreducible holonomy and are not asserted here")

    return AnalysisReport(
        k=d.k,
        sqrt_ahat=sqrt_a,
        ahat=ahat,
        euler=euler,
        b_theta_k=b,
        c_theta=c,
        norm_R_sq=norm,
        verdicts=tuple(verdicts),
        notes=tuple(notes),
    )
