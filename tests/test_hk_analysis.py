"""Curvature-norm identities and the constraint report."""
from __future__ import annotations

import random
from fractions import Fraction as F

import pytest

from graphgenus import hk_analysis
from graphgenus.genus import ChernData, builtin_genera, evaluate
from graphgenus.hk_analysis import (
    AnalysisReport, ManifoldData, MissingNorm, NonpositiveSqrtAhat,
    REPORT_KEYS, ahat_number, b_theta_k, b_theta_via_c, c_theta,
    curvature_norm, curvature_norm_via_b, euler_number, sqrt_ahat_number,
    validate,
)
from graphgenus.scalars import PiScalar, Root


def k1_data(c2, vol=1, **kw) -> ManifoldData:
    return ManifoldData(k=1, chern=ChernData(1, {(2,): F(c2)}),
                        volume=PiScalar.of(F(vol)), **kw)


def k2_data(c2_sq, c4, vol=1, **kw) -> ManifoldData:
    return ManifoldData(k=2, chern=ChernData(2, {(2, 2): F(c2_sq), (4,): F(c4)}),
                        volume=PiScalar.of(F(vol)), **kw)


def k3_data(c2_cube, c2_c4, c6, vol=1, **kw) -> ManifoldData:
    return ManifoldData(k=3, chern=ChernData(3, {(2, 2, 2): F(c2_cube), (2, 4): F(c2_c4),
                                                 (6,): F(c6)}),
                        volume=PiScalar.of(F(vol)), **kw)


def ahat3_family(c2_sq) -> ManifoldData:
    """k=2 data constrained to ahat = 3 (c4 determined by c2^2)."""
    x = F(c2_sq)
    return k2_data(x, 3 * x - 2160)


# ---------------------------------------------------------------------------
# the K3 anchor: every number exact


def test_k3_numbers():
    d = k1_data(24)
    assert sqrt_ahat_number(d) == 1
    assert ahat_number(d) == 2
    assert euler_number(d) == 24
    assert b_theta_k(d) == 48
    assert curvature_norm(d) == PiScalar.of(192, 1)
    assert curvature_norm_via_b(d) == PiScalar.of(192, 1)
    assert c_theta(d) == PiScalar.of(96, 1)
    assert b_theta_via_c(d) == PiScalar.of(48)


def test_k3_report_renders_frozen_text():
    rep = validate(k1_data(24))
    assert rep.all_pass
    assert rep.render(use_float=False) == "\n".join([
        "sqrt_ahat 1",
        "ahat 2",
        "euler 24",
        "b_theta_k 48",
        "c_theta 96*pi^2",
        "norm_R_sq 192*pi^2",
        "verdicts.odd_chern_vanish pass",
        "verdicts.ahat_equals_k_plus_1 pass",
        "verdicts.sqrt_ahat_positive pass",
    ])


@pytest.mark.parametrize("d", [k1_data(24), k2_data(828, 324),
                               k3_data(36800, 14720, 3200, vol=F(7, 3))])
def test_validate_evaluates_each_genus_once(monkeypatch, d):
    calls = []

    def counted(poly, chern):
        calls.append(poly)
        return evaluate(poly, chern)

    monkeypatch.setattr(hk_analysis, "evaluate", counted)
    rep = validate(d)
    genera = builtin_genera()
    assert calls == [genera["sqrt_ahat"].polynomial(d.k), genera["ahat"].polynomial(d.k)]
    assert rep.b_theta_k == b_theta_k(d) and rep.norm_R_sq == curvature_norm(d)


def test_report_key_order_stable():
    rep = validate(k2_data(828, 324))
    lines = rep.render().splitlines()
    for key, line in zip(REPORT_KEYS, lines):
        assert line.startswith(key + " ")


# ---------------------------------------------------------------------------
# identities across volumes


def test_k1_norm_ignores_volume():
    for vol in (F(1), F(7, 3), F(100)):
        d = k1_data(24, vol)
        assert curvature_norm(d) == PiScalar.of(192, 1)


def test_c_theta_scales_inversely_with_volume():
    a = c_theta(k1_data(24, 1))
    b = c_theta(k1_data(24, 2))
    assert a == b * 2


def test_k2_norm_scales_as_sqrt_volume():
    base = k2_data(828, 324, vol=1)
    big = k2_data(828, 324, vol=4)
    n1 = float(curvature_norm(base))
    n4 = float(curvature_norm(big))
    assert n4 == pytest.approx(2 * n1, rel=1e-12)


def test_measured_norm_overrides_computed():
    d = k1_data(24, 1, norm_R_sq=PiScalar.of(10, 1))
    assert c_theta(d) == PiScalar.of(5, 1)
    rep = validate(d)
    assert rep.norm_R_sq == PiScalar.of(10, 1)


# ---------------------------------------------------------------------------
# two routes to the norm


def test_routes_agree_exactly_for_k1():
    rng = random.Random(19)
    for _ in range(50):
        c2 = F(rng.randint(1, 4000), rng.randint(1, 7))
        vol = F(rng.randint(1, 300), rng.randint(1, 9))
        d = k1_data(c2, vol)
        assert curvature_norm(d) == curvature_norm_via_b(d)
        assert b_theta_via_c(d) == b_theta_k(d)


def test_routes_agree_for_k2_random_data():
    rng = random.Random(20)
    checked = 0
    while checked < 100:
        x = F(rng.randint(0, 4000), rng.randint(1, 5))
        y = F(rng.randint(-4000, 4000), rng.randint(1, 5))
        if F(7, 5760) * x - F(1, 1440) * y <= 0:
            continue
        vol = F(rng.randint(1, 50), rng.randint(1, 7))
        d = k2_data(x, y, vol)
        assert curvature_norm(d) == curvature_norm_via_b(d)
        assert b_theta_via_c(d) == b_theta_k(d)
        checked += 1


def test_routes_agree_exactly_for_k3_random_data():
    rng = random.Random(22)
    checked = 0
    while checked < 100:
        d = k3_data(*(F(rng.randint(-40000, 40000), rng.randint(1, 5)) for _ in range(3)),
                    vol=F(rng.randint(1, 50), rng.randint(1, 7)))
        if sqrt_ahat_number(d) <= 0:
            continue
        assert curvature_norm(d) == curvature_norm_via_b(d)
        assert b_theta_via_c(d) == b_theta_k(d)
        checked += 1


def test_irrational_norm_is_one_root_of_an_exact_number():
    # K3^[2]: ||R||^4 = (384 pi^2)^2 * 25/32 has no rational square root
    norm = curvature_norm(k2_data(828, 324))
    assert norm == Root(PiScalar.of(F(384 ** 2 * 25, 32), 2), 2)
    assert norm ** 2 == PiScalar.of(F(384 ** 2 * 25, 32), 2)
    # K3^[3] at volume 7/3: the cube root stays a Root through c_theta
    d = k3_data(36800, 14720, 3200, vol=F(7, 3))
    c = c_theta(d)
    assert isinstance(c, Root) and c.k == 3
    assert c ** 3 == curvature_norm(d) ** 3 / (PiScalar.of(6) * d.volume) ** 3


def test_irrational_constant_rounds_from_the_exact_root():
    # c = 24.8054147400500001...; the root of a rounded double gave 24.80541474
    rep = validate(k3_data(36800, 14720, 3200, vol=31347))
    assert rep.c_theta.render() == "24.8054147401"


def test_c_theta_when_only_a_factor_leaves_the_double_range():
    # vol = 3e-700 pi^1300 is about 6e-54: c_theta's coefficient alone (about
    # 1e676) has no double, but c_theta, about 3.4e29, has one
    d = ManifoldData(k=2, chern=ChernData(2, {(2, 2): F(828), (4,): F(324)}),
                     volume=PiScalar.of(F(3, 10 ** 700), 650))
    assert float(validate(d).c_theta) == pytest.approx(3.44340507380e29, rel=1e-12)


@pytest.mark.parametrize("k", [1, 2, 3])
def test_every_report_scalar_is_exact(k):
    rng = random.Random(23 + k)
    for _ in range(30):
        chern = [F(rng.randint(-5000, 40000), rng.randint(1, 5)) for _ in range(k)]
        kw = {}
        if rng.random() < 0.3:
            kw["norm_R_sq"] = PiScalar.of(F(rng.randint(0, 900), rng.randint(1, 9)),
                                          rng.randint(-1, 2))
        d = [k1_data, k2_data, k3_data][k - 1](*chern, vol=F(rng.randint(1, 50), 7), **kw)
        rep = validate(d)
        for x in (rep.c_theta, rep.norm_R_sq):
            x = x.power if isinstance(x, Root) else x
            assert x is None or type(x.coef) is F
        assert all(type(getattr(rep, key)) is F
                   for key in ("sqrt_ahat", "ahat", "euler", "b_theta_k"))


# ---------------------------------------------------------------------------
# k=2 constraint equivalence


def test_sqrt_identity_as_polynomials():
    g = builtin_genera()
    half_a2 = g["ahat"].polynomial(2) * F(1, 2)
    a1_sq = g["ahat"].polynomial(1) * g["ahat"].polynomial(1)
    assert g["sqrt_ahat"].polynomial(2) == half_a2 - a1_sq * F(1, 8)


def test_constraint_forms_agree_on_ahat3_family():
    rng = random.Random(21)
    for _ in range(100):
        x = F(rng.randint(0, 3000), rng.randint(1, 4))
        d = ahat3_family(x)
        assert ahat_number(d) == 3
        # numeric form of the polynomial identity above
        a1_sq = x / 144
        assert sqrt_ahat_number(d) == F(3, 2) - a1_sq / 8
        rep = validate(d)
        assert rep.verdict("a1_squared_below_12") == \
            rep.verdict("euler_below_3024")
        assert rep.verdict("a1_squared_below_12") == \
            ("pass" if a1_sq < 12 else "fail")


def test_boundary_case_fails_both_forms():
    d = ahat3_family(1728)
    assert euler_number(d) == 3024
    assert sqrt_ahat_number(d) == 0
    rep = validate(d)
    assert rep.verdict("a1_squared_below_12") == "fail"
    assert rep.verdict("euler_below_3024") == "fail"
    assert rep.verdict("sqrt_ahat_positive") == "fail"
    assert not rep.all_pass
    assert rep.norm_R_sq is None and rep.c_theta is None


def test_small_euler_example_passes():
    d = ahat3_family(828)
    rep = validate(d)
    assert sqrt_ahat_number(d) == F(25, 32)
    assert b_theta_k(d) == 3600
    assert euler_number(d) == 324
    assert rep.all_pass
    assert rep.verdict("beauville_euler_at_most_324") == "info-yes"


def test_beauville_flag_is_informational():
    d = ahat3_family(1000)  # euler = 840 > 324
    rep = validate(d)
    assert euler_number(d) == 840
    assert rep.verdict("beauville_euler_at_most_324") == "info-no"
    assert rep.all_pass  # info verdicts never fail the report


# ---------------------------------------------------------------------------
# guard rails


def test_nonpositive_sqrt_ahat_raises_on_norm():
    d = k1_data(-24)
    with pytest.raises(NonpositiveSqrtAhat):
        curvature_norm(d)
    with pytest.raises(NonpositiveSqrtAhat):
        curvature_norm_via_b(d)
    with pytest.raises(MissingNorm):
        c_theta(d)


def test_measured_norm_rescues_c_theta():
    d = k1_data(-24, norm_R_sq=PiScalar.of(10, 1))
    assert c_theta(d) == PiScalar.of(5, 1)


def test_manifold_data_validation():
    with pytest.raises(ValueError):
        ManifoldData(k=0, chern=ChernData(1, {(2,): F(24)}),
                     volume=PiScalar.of(1))
    with pytest.raises(ValueError):
        ManifoldData(k=1, chern=ChernData(2, {(2, 2): F(1), (4,): F(1)}),
                     volume=PiScalar.of(1))
    with pytest.raises(ValueError):
        k1_data(24, vol=-3)
    with pytest.raises(ValueError):
        k1_data(24, norm_R_sq=PiScalar.of(-5))


def test_reducible_input_is_noted_not_asserted():
    rep = validate(k1_data(24, irreducible=False))
    assert any("reducible" in note for note in rep.notes)
    assert "note input marked reducible" in rep.render()


def test_verdict_lookup_raises_on_unknown():
    rep = validate(k1_data(24))
    with pytest.raises(KeyError):
        rep.verdict("nonexistent_verdict")
    with pytest.raises(KeyError):
        rep.verdict("a1_squared_below_12")  # k=1 report has no k=2 verdicts
