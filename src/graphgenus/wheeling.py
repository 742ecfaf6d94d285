"""Wheels, the wheeled exponential, and leg-gluing operators.

The element treated here is the disjoint-union exponential of
sum_n b_{2n} w_{2n}, where w_{2n} is the 2n-wheel with its planar
orientation and the b coefficients come from the series
(1/2) log(sinh(x/2)/(x/2)).  A term's weight is the total wheel weight
sum n_i (half its leg count), and the truncation at weight k keeps
exactly the terms that can glue onto k lines.

Gluing conventions.  Joining two legs merges their pendant edges into
one edge; the cyclic data at every surviving vertex is preserved, which
fixes all signs.  A join that closes an edge into a circle, or welds an
edge into a self-loop, contributes zero.  The per-wheel factor (-1)
from the analytic weight of a wheel is NOT part of the combinatorial
pairing map: it sits in wheel_char_weight together with the (8 pi^2)^-k
normalization, so pairing and gluing stay purely graphical.
"""
from __future__ import annotations

import functools
import itertools
import math
from fractions import Fraction
from types import MappingProxyType
from typing import Iterable, Mapping, NamedTuple

from .scalars import PiScalar
from .graph_core import Graph, concat, line, weld_all, wheel
from .graph_algebra import (
    GraphVector, check_bound, ihx_relations, power, reduce as ihx_reduce,
    theta_vector,
)
from .genus import (
    ChernPolynomial, genus_in_power_sums, sinh_half_over_half, sqrt_ahat_series,
)


class WheelingError(ValueError):
    pass


class OddLegCount(WheelingError):
    pass


class BadPartition(WheelingError):
    pass


def b_coefficients(n_max: int) -> dict[int, Fraction]:
    """{2n: b_2n for n <= n_max} from (1/2)log(sinh(x/2)/(x/2))."""
    if n_max < 1:
        return {}
    order = 2 * n_max
    series = sinh_half_over_half(order).log() * Fraction(1, 2)
    return {2 * n: series[2 * n] for n in range(1, n_max + 1)}


class OmegaTruncation(NamedTuple):
    """Wheeled exponential cut at total wheel weight k."""
    k: int
    b_table: Mapping[int, Fraction]
    # (ascending wheel-weight partition, exact coefficient), sorted by
    # (total weight, partition); () is the empty-graph term
    partition_terms: tuple[tuple[tuple[int, ...], Fraction], ...]


def omega(k: int) -> OmegaTruncation:
    """The terms of exp(sum_n b_2n s_2n) through weight 2k, where the
    commuting s_2n stand for the wheels w_2n: one exponential, and no
    wheel product is built or canonicalized.  Cached per k and shared,
    so b_table is read-only."""
    check_bound(k)  # enforced even on cache hits, as in ihx_relations
    return _omega(k)


@functools.cache
def _omega(k: int) -> OmegaTruncation:
    b = b_coefficients(max(k, 1))
    exponent = ChernPolynomial("s", {(n,): c for n, c in b.items()})
    terms = [(tuple(n // 2 for n in mono), coeff)
             for mono, coeff in exponent.exp_truncated(2 * k).items()]
    terms.sort(key=lambda term: (sum(term[0]), term[0]))
    return OmegaTruncation(k, MappingProxyType(b), tuple(terms))


def _wheel_product(parts) -> Graph:
    """The disjoint union of the wheels w_2n, n in parts, as presented."""
    return functools.reduce(concat, (wheel(2 * n) for n in parts), Graph((), ()))


# ---------------------------------------------------------------------------
# leg gluing


def glue_hat(C: GraphVector, G: GraphVector) -> GraphVector:
    """Sum over all ways of joining every leg of C onto a leg of G.

    Bilinear; a basis term with more legs in C than in G is zero; joins
    producing a circle or a self-loop are zero.
    """
    out = GraphVector.zero()
    for cg, cc in C.items():
        c_legs, shift = cg.legs(), cg.n
        for gg, gc in G.items():
            _add_welds(out, concat(cg, gg), cc * gc, (
                [(lc, lg + shift) for lc, lg in zip(c_legs, target)]
                for target in itertools.permutations(gg.legs(), len(c_legs))))
    return out


def _add_welds(out: GraphVector, g: Graph, coeff: Fraction, pairings) -> None:
    """Add coeff times each welding of g along one list of leg pairs to out."""
    for pairs in pairings:
        res = weld_all(g, pairs)
        if res is not None:
            out.add_presentation(res[0], coeff * res[1])


def _matchings(items: list[int]):
    if not items:
        yield []
        return
    first, rest = items[0], items[1:]
    for i, partner in enumerate(rest):
        for tail in _matchings(rest[:i] + rest[i + 1:]):
            yield [(first, partner)] + tail


def pair_spokes(C: GraphVector) -> GraphVector:
    """Sum over perfect matchings of each term's legs, welding each pair."""
    return _pair_presentations(C.items())


def _pair_presentations(terms: Iterable[tuple[Graph, Fraction]]) -> GraphVector:
    """pair_spokes over (presentation, coefficient) terms, which need not
    be canonical: only the welded graphs are canonicalized."""
    out = GraphVector.zero()
    for g, coeff in terms:
        legs = g.legs()
        if len(legs) % 2:
            raise OddLegCount(f"{len(legs)} legs cannot be matched in pairs")
        _add_welds(out, g, coeff, _matchings(legs))
    return out


def line_vector() -> GraphVector:
    return GraphVector.from_graph(line())


def line_power(k: int) -> GraphVector:
    """k disjoint lines."""
    return power(line_vector(), k)


def wheel_vector(n: int) -> GraphVector:
    return GraphVector.from_graph(wheel(n))


# ---------------------------------------------------------------------------
# the main combinatorial check


class WheelingReport(NamedTuple):
    k: int
    passed: bool
    exact: bool  # difference vanished before any IHX reduction
    residual: GraphVector


def wheeling_check(k: int) -> WheelingReport:
    """Compare the trivalent part of gluing omega into k lines with the
    k-th power of (1/24) theta; for k >= 2 the comparison is modulo IHX.

    Terms of weight below k leave line legs open, so only the weight-k
    part glues to a trivalent graph, and every matching of its spokes
    arises from 2^k k! gluings (order of the lines, ends of each line):
    the glued side is 2^k k! times pair_spokes of that part.  The wheel
    products are paired as presented, never canonicalized.
    """
    spokes = ((_wheel_product(parts), c) for parts, c in omega(k).partition_terms
              if sum(parts) == k)
    lhs = _pair_presentations(spokes) * (2 ** k * math.factorial(k))
    rhs = power(theta_vector() * Fraction(1, 24), k)
    diff = lhs - rhs
    exact = not diff
    if k <= 1:
        return WheelingReport(k, exact, exact, diff)
    residual = ihx_reduce(diff, ihx_relations(k))
    return WheelingReport(k, not residual, exact, residual)


# ---------------------------------------------------------------------------
# characteristic-number weights of paired wheels


def wheel_char_weight(partition) -> tuple[PiScalar, ChernPolynomial]:
    """Declared analytic weight of the paired union of wheels w_{2k_i}.

    Returns ((-1)^m / ((8 pi^2)^k k!), s_{2k_1} ... s_{2k_m}) for a
    partition (k_1, ..., k_m) of k; the empty partition gives (1, 1).
    """
    parts = tuple(partition)
    for n in parts:
        if not isinstance(n, int) or n < 1:
            raise BadPartition(f"partition parts must be positive integers: {parts}")
    k = sum(parts)
    m = len(parts)
    coeff = PiScalar.of(Fraction((-1) ** m, 8 ** k * math.factorial(k)), -k)
    mono = tuple(sorted(2 * n for n in parts))
    return coeff, ChernPolynomial("s", {mono: Fraction(1)})


class BridgeReport(NamedTuple):
    k: int
    lhs: ChernPolynomial  # wheel-sum side, s variables
    rhs: ChernPolynomial  # genus side, s variables
    equal: bool


def bridge_identity(k: int) -> BridgeReport:
    """Wheel coefficients against the even-log-exponential genus side.

    Both sides are stated with the common factor (8 pi^2)^-k / k! of
    wheel_char_weight divided out, which leaves its sign (-1)^m: the
    left side sums, over the weight-k wheel partitions (k_1, ..., k_m),
    (-1)^m times the wheeled-exponential coefficient times
    s_{2k_1} ... s_{2k_m}; the right side is the weight-2k part of
    exp(-sum b_{2n} s_{2n}).
    """
    lhs = ChernPolynomial("s", {tuple(2 * n for n in parts): (-1) ** len(parts) * coeff
                                for parts, coeff in omega(k).partition_terms
                                if sum(parts) == k})
    rhs = genus_in_power_sums(sqrt_ahat_series(2 * k), k)
    return BridgeReport(k, lhs, rhs, lhs == rhs)
