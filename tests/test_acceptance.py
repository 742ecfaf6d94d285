"""Acceptance gate: twelve end-to-end checks, one verdict line each.

Each test emits a single PASS/FAIL verdict line that is printed outside
pytest's capture so it is always visible.  Checks marked exact use
rational or symbolic pi^2 arithmetic throughout: an irrational
curvature norm is an exact Root, so even the curvature-norm routes are
compared with ==.
"""
from __future__ import annotations

import random
import time
from contextlib import contextmanager
from fractions import Fraction as F

import pytest

from graphgenus.genus import (
    ChernData,
    ChernPolynomial,
    ahat_series,
    genus_polynomial,
    power_sum_in_chern,
    sqrt_ahat_series,
    todd_series,
)
from graphgenus.graph_algebra import (
    GraphVector,
    dimension,
    ihx_relations,
    trivalent_part,
)
from graphgenus.graph_core import Graph, canonical_form, theta
from graphgenus.hk_analysis import (
    ManifoldData,
    ahat_number,
    b_theta_k,
    b_theta_via_c,
    c_theta,
    curvature_norm,
    curvature_norm_via_b,
    euler_number,
    sqrt_ahat_number,
    validate,
)
from graphgenus.lie_oracle import builtin, weight, weight_vector
from graphgenus.scalars import PiScalar
from graphgenus.wheeling import (
    b_coefficients,
    bridge_identity,
    glue_hat,
    line_power,
    omega,
    pair_spokes,
    wheel_vector,
    wheeling_check,
)

from conftest import random_unitrivalent, represent, run_cli


_PENDING: list[str] = []


@pytest.fixture(autouse=True)
def _emit_verdicts(capfd):
    """Print each verdict line outside pytest's capture."""
    yield
    with capfd.disabled():
        for line in _PENDING:
            print(line, flush=True)
    _PENDING.clear()


def _line(num: int, status: str, label: str, elapsed, limit) -> None:
    timing = ""
    if limit is not None and elapsed is not None:
        timing = f" ({elapsed:.2f}s, limit {limit:g}s)"
    _PENDING.append(f"[criterion {num:02d}] {status} {label}{timing}")


@contextmanager
def criterion(num: int, label: str, limit: float | None = None):
    t0 = time.monotonic()
    try:
        yield
    except BaseException:
        _line(num, "FAIL", label, time.monotonic() - t0, limit)
        raise
    elapsed = time.monotonic() - t0
    ok = limit is None or elapsed < limit
    _line(num, "PASS" if ok else "FAIL", label, elapsed, limit)
    assert ok, f"criterion {num} exceeded its {limit}s budget: {elapsed:.2f}s"


def test_c01_omega_weight_two_table():
    with criterion(1, "wheeled exponential truncated at weight 2", limit=1.0):
        om = omega(2)
        b = b_coefficients(2)
        assert b == {2: F(1, 48), 4: F(-1, 5760)}
        # 1 + (1/48) w2 + (1/(2*48^2)) (w2^2 - (4/5) w4), keyed by half-sizes
        table = dict(om.partition_terms)
        assert table == {
            (): F(1),
            (1,): F(1, 48),
            (1, 1): F(1, 2 * 48 ** 2),
            (2,): F(1, 2 * 48 ** 2) * F(-4, 5),
        }
        # the exponential of the log series reproduces its own squares
        assert table[(1, 1)] == b[2] ** 2 / 2
        assert table[(2,)] == b[4]


def test_c02_wheeling_degree_one_exact():
    with criterion(
            2,
            "gluing the wheeled exponential into one line gives theta/24 "
            "with no reduction", limit=1.0):
        rep = wheeling_check(1)
        assert rep.passed and rep.exact
        assert not rep.residual


def test_c03_wheeling_degree_two_modulo_ihx():
    with criterion(
            3,
            "gluing into two lines matches (theta/24)^2 modulo the "
            "degree-2 relations", limit=300.0):
        rep = wheeling_check(2)
        assert rep.passed
        assert not rep.residual
        # the difference only closes after reduction
        assert not rep.exact


def test_c04_genus_tables():
    with criterion(4, "genus polynomial tables", limit=10.0):
        a1 = genus_polynomial(ahat_series(2), 1)
        assert a1 == ChernPolynomial("c", {(2,): F(1, 12)})
        a2 = genus_polynomial(ahat_series(4), 2)
        assert a2 == ChernPolynomial("c", {(2, 2): F(3, 720), (4,): F(-1, 720)})
        for k in (1, 2, 3):
            todd_k = genus_polynomial(todd_series(2 * k), k)
            assert todd_k == genus_polynomial(ahat_series(2 * k), k)
        # square-root series convolves to the full series degree by degree
        sq = {i: genus_polynomial(sqrt_ahat_series(2 * max(i, 1)), i)
              for i in range(3)}
        for k in (1, 2):
            conv = ChernPolynomial.zero("c")
            for i in range(k + 1):
                conv = conv + sq[i] * sq[k - i]
            assert conv == genus_polynomial(ahat_series(2 * k), k)


def test_c05_wheel_sum_equals_sqrt_genus_in_chern_classes():
    with criterion(
            5,
            "exp of the negated even-log power sums matches the "
            "square-root genus in degrees 4 and 8", limit=10.0):
        b = b_coefficients(2)
        L = ChernPolynomial.zero("c")
        for n, bn in b.items():
            L = L + (-bn) * power_sum_in_chern(n)
        for k in (1, 2):
            lhs = L.exp_truncated(2 * k).homogeneous(2 * k)
            assert lhs == genus_polynomial(sqrt_ahat_series(2 * k), k)
            assert bridge_identity(k).equal


def test_c06_k3_suite():
    with criterion(6, "K3 invariants close the defining loop exactly"):
        d = ManifoldData(1, ChernData(1, {(2,): 24}), PiScalar.of(1))
        assert sqrt_ahat_number(d) == F(1)
        assert ahat_number(d) == F(2) == d.k + 1
        assert euler_number(d) == F(24)
        assert b_theta_k(d) == F(48)
        norm = curvature_norm(d)
        assert norm == PiScalar.of(192, 1)
        # c = ||R||^2 / (2 vol), then b = c vol / (2 pi^2) returns 48
        assert c_theta(d) == PiScalar.of(96, 1)
        assert b_theta_via_c(d) == PiScalar.of(48)
        assert curvature_norm_via_b(d) == norm


def test_c07_degree_two_family_verdicts():
    with criterion(
            7,
            "degree-2 family: square-root value 3/2 - a1^2/8 and "
            "agreeing verdicts on 100 samples", limit=5.0):
        # polynomial identity behind the family formula
        s2 = genus_polynomial(sqrt_ahat_series(4), 2)
        a2 = genus_polynomial(ahat_series(4), 2)
        a1 = genus_polynomial(ahat_series(2), 1)
        assert s2 == F(1, 2) * a2 + F(-1, 8) * (a1 * a1)
        rng = random.Random(7)
        for _ in range(100):
            x = F(rng.randint(1, 4000), rng.randint(1, 7))
            data = ChernData(2, {(2, 2): x, (4,): 3 * x - 2160})
            d = ManifoldData(2, data, PiScalar.of(F(rng.randint(1, 9), 2)))
            assert ahat_number(d) == 3
            assert sqrt_ahat_number(d) == F(3, 2) - (x / 144) / 8
            rep = dict(validate(d).verdicts)
            assert rep["a1_squared_below_12"] == rep["euler_below_3024"]


def test_c08_two_route_curvature_norm():
    with criterion(8, "curvature norm via both routes"):
        rng = random.Random(8)
        for _ in range(50):
            c2 = F(rng.randint(1, 600), rng.randint(1, 5))
            vol = PiScalar.of(F(rng.randint(1, 40), rng.randint(1, 7)))
            d = ManifoldData(1, ChernData(1, {(2,): c2}), vol)
            assert curvature_norm(d) == curvature_norm_via_b(d)
        done = 0
        while done < 100:
            c2sq = F(rng.randint(1, 3000), rng.randint(1, 5))
            c4 = F(rng.randint(-500, 2000), rng.randint(1, 5))
            if F(7, 5760) * c2sq - F(1, 1440) * c4 <= 0:
                continue
            vol = PiScalar.of(F(rng.randint(1, 40), rng.randint(1, 7)))
            d = ManifoldData(2, ChernData(2, {(2, 2): c2sq, (4,): c4}), vol)
            assert curvature_norm(d) == curvature_norm_via_b(d)
            assert b_theta_via_c(d) == b_theta_k(d)
            done += 1
        done = 0
        while done < 50:
            chern = ChernData(3, dict(zip(((2, 2, 2), (2, 4), (6,)), (
                F(rng.randint(-9000, 40000), rng.randint(1, 5)) for _ in range(3)))))
            vol = PiScalar.of(F(rng.randint(1, 40), rng.randint(1, 7)))
            d = ManifoldData(3, chern, vol)
            if sqrt_ahat_number(d) <= 0:
                continue
            assert curvature_norm(d) == curvature_norm_via_b(d)
            assert b_theta_via_c(d) == b_theta_k(d)
            done += 1


def test_c09_oracle_annihilation():
    with criterion(
            9,
            "gl(2) and gl(3) weights kill every relation through degree 2 "
            "and certify dimension 1", limit=120.0):
        for name in ("gl2", "gl3"):
            N = builtin(name)
            for k in (1, 2):
                for rel in ihx_relations(k).relations:
                    assert weight_vector(N, rel) == 0
        assert weight(builtin("gl2"), theta()) == 12 != 0
        assert dimension(1) == 1


def _transpose(g: Graph, i: int, j: int) -> Graph:
    m = list(range(g.n))
    m[i], m[j] = j, i
    val = list(g.valences)
    val[i], val[j] = val[j], val[i]
    return Graph(tuple(val), tuple((m[a], m[b]) for a, b in g.edges))


def _reverse_edge(g: Graph, e: int) -> Graph:
    edges = list(g.edges)
    a, b = edges[e]
    edges[e] = (b, a)
    return Graph(g.valences, tuple(edges))


def test_c10_sign_laws():
    with criterion(
            10,
            "1000 random re-presentations normalize consistently; "
            "transposition and reversal negate"):
        rng = random.Random(10)
        for _ in range(1000):
            g = random_unitrivalent(rng)
            base = canonical_form(g)
            h, sign = represent(rng, g)
            cf = canonical_form(h)
            assert cf.graph == base.graph
            assert cf.sign_state == sign * base.sign_state
            i, j = rng.sample(range(g.n), 2)
            assert canonical_form(_transpose(g, i, j)).sign_state == \
                -base.sign_state
            e = rng.randrange(len(g.edges))
            assert canonical_form(_reverse_edge(g, e)).sign_state == \
                -base.sign_state


def test_c11_wheel_gluing_equals_scaled_spoke_pairing():
    with criterion(
            11,
            "gluing the 2k-wheel into k lines equals 2^k k! spoke "
            "pairings for k <= 3", limit=60.0):
        fact = 1
        for k in (1, 2, 3):
            fact *= k
            hat = glue_hat(wheel_vector(2 * k), line_power(k))
            paired = pair_spokes(wheel_vector(2 * k)) * (2 ** k * fact)
            assert trivalent_part(hat) == hat
            assert hat == paired


def test_c12_cli_golden_files():
    with criterion(12, "all command line golden files byte-match"):
        from test_cli import CASES, GOLDEN
        for name, argv in sorted(CASES.items()):
            code, out, err = run_cli(argv)
            assert code == 0, f"{name} exited {code}"
            assert err == "", f"{name} wrote to stderr"
            assert out == (GOLDEN / f"{name}.txt").read_text(), name
