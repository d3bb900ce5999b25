"""Pythagorean mate, extremality, boundary orders, inner-outer splits."""

import numpy as np
import pytest

from hbspace import HbSpace, Poly, RationalFn
from hbspace.config import DEFAULT_TOLERANCES as TOL
from hbspace.errors import (
    ExtremeFunctionError,
    NotInUnitBallError,
    PoleAtPointError,
    PoleInDiskError,
)
from hbspace.extension import build_model
from hbspace.factorization import (
    _lowest_terms,
    boundary_order,
    inner_outer,
    is_nonextreme,
    pythagorean_mate,
)
from hbspace.polynomials import poly_roots

MATE_TOL = 1e-9
GRID = np.exp(2j * np.pi * np.arange(512) / 512)

rng = np.random.default_rng(42)

# frozen multi-step extension outputs, derived by hand from the Herglotz
# combination with unit weights and phase pi at every step
B_STEP2 = RationalFn(Poly([0, 0, 1]), Poly([3, -3, 1]))
B_STEP3 = RationalFn(Poly([0, 3, -6, 5]), Poly([12, -21, 14, -3]))


def mate_identity_residual(b, a):
    bv = np.abs(b(GRID)) ** 2
    av = np.abs(a(GRID)) ** 2
    return float(np.max(np.abs(av + bv - 1.0)))


def test_mate_of_affine_b():
    b = RationalFn(Poly([0.5, 0.5]))
    res = pythagorean_mate(b)
    # a = (1 - z)/2
    assert np.allclose(res.a.num.coeff_array(2), [0.5, -0.5], atol=1e-12)
    assert res.a.den.degree == 0
    assert len(res.boundary_zeros) == 1
    lam, mult = res.boundary_zeros[0]
    assert lam == pytest.approx(1.0, abs=1e-10)
    assert mult == 1
    assert res.residual <= MATE_TOL


def test_mate_of_half_z():
    b = RationalFn(Poly([0, 0.5]))
    res = pythagorean_mate(b)
    assert res.a.den.degree == 0
    assert res.a.num.degree == 0
    assert res.a(0) == pytest.approx(np.sqrt(3) / 2, rel=1e-12)
    assert res.boundary_zeros == ()
    assert res.residual <= MATE_TOL


def test_mate_of_zero():
    res = pythagorean_mate(RationalFn(Poly()))
    assert res.a(0.3) == pytest.approx(1.0)
    assert res.boundary_zeros == ()


def test_mate_of_rational_single_pole():
    b = RationalFn(Poly([0, 1]), Poly([2, -1]))  # z / (2 - z)
    res = pythagorean_mate(b)
    assert res.a(0) == pytest.approx(1 / np.sqrt(2), rel=1e-10)
    assert mate_identity_residual(b, res.a) <= MATE_TOL
    lam, mult = res.boundary_zeros[0]
    assert lam == pytest.approx(1.0, abs=1e-9)
    assert mult == 1


def test_mate_double_boundary_zero():
    res = pythagorean_mate(B_STEP2)
    assert res.a(0) == pytest.approx(1 / np.sqrt(3), rel=1e-9)
    lam, mult = res.boundary_zeros[0]
    assert mult == 2
    assert lam == pytest.approx(1.0, abs=1e-8)
    assert res.residual <= 1e-10


def test_mate_triple_boundary_zero():
    res = pythagorean_mate(B_STEP3)
    assert res.a(0) == pytest.approx(0.5, rel=1e-9)
    lam, mult = res.boundary_zeros[0]
    assert mult == 3
    assert lam == pytest.approx(1.0, abs=1e-8)
    assert res.residual <= 1e-10
    # the mate numerator is 6 (1 - z)^3 over the same denominator
    expect = Poly([1, -3, 3, -1]) * 0.5  # 6(1-z)^3 / 12
    assert (res.a.num - expect).scale() < 1e-9


def test_mate_is_outer_and_positive_at_origin():
    for _ in range(8):
        c = rng.standard_normal(4) + 1j * rng.standard_normal(4)
        p = Poly(c)
        sup = float(np.max(np.abs(p(GRID))))
        b = RationalFn(p * (0.85 / sup))
        res = pythagorean_mate(b)
        a0 = res.a(0)
        assert a0.imag == pytest.approx(0.0, abs=1e-12)
        assert a0.real > 0
        if res.a.num.degree >= 1:
            assert np.min(np.abs(poly_roots(res.a.num))) >= 1.0 - 1e-7
        assert mate_identity_residual(b, res.a) <= MATE_TOL


def test_mate_deterministic_across_seeds():
    b = RationalFn(Poly([0.1, 0.3, 0.25]))
    r1 = pythagorean_mate(b, rng=np.random.default_rng(1))
    r2 = pythagorean_mate(b, rng=np.random.default_rng(99))
    diff = (r1.a.num - r2.a.num).scale()
    assert diff <= 1e-9 * max(1.0, r1.a.num.scale())


def test_extreme_blaschke_rejected():
    b = RationalFn(Poly([-0.5, 1]), Poly([1, -0.5]))
    assert not is_nonextreme(b)
    with pytest.raises(ExtremeFunctionError):
        pythagorean_mate(b)


def test_unit_ball_violation_rejected():
    with pytest.raises(NotInUnitBallError):
        is_nonextreme(RationalFn(Poly([0, 1.1])))


def test_one_ball_rule_for_every_entry_point():
    # sup |b| = 1 + 8e-9 passes the sup test, but |q|^2 - |p|^2 = -1.6e-8
    # fails the density test; both are the one ball rule
    b = RationalFn(Poly([0, 1 + 8e-9]))
    for entry in (is_nonextreme, pythagorean_mate, HbSpace):
        with pytest.raises(NotInUnitBallError):
            entry(b)


def test_pole_in_disk_rejected():
    with pytest.raises(PoleInDiskError):
        is_nonextreme(RationalFn(Poly([0, 0.1]), Poly([1, -2])))


def test_is_nonextreme_positive_cases():
    assert is_nonextreme(RationalFn(Poly([0.5, 0.5])))
    assert is_nonextreme(RationalFn(Poly()))


def test_boundary_order_polynomial():
    f = RationalFn(Poly([1, -2, 1]))  # (z-1)^2
    assert boundary_order(f, 1.0) == 2
    assert boundary_order(f, -1.0) == 0
    g = RationalFn(Poly([1, -2, 1]) * Poly([1, 1]))  # (z-1)^2 (z+1)
    assert boundary_order(g, -1.0) == 1
    assert boundary_order(g, 1.0) == 2


def test_boundary_order_rational():
    f = RationalFn(Poly([-1, 1]), Poly([1, -0.5]))
    assert boundary_order(f, 1.0) == 1


def test_boundary_order_pole_rule_is_the_evaluation_rule():
    # |den(1)| lies above TOL.pole * max(1, scale) but within
    # TOL.pole * sum |d_k|, the Horner bound at a circle point
    f = RationalFn(Poly([1]), Poly([1 + 1.5e-13, -1]))
    value = abs(f.den(1.0))
    assert TOL.pole * max(1.0, f.den.scale()) < value
    assert value <= TOL.pole * sum(abs(c) for c in f.den.coeffs)
    with pytest.raises(PoleAtPointError):
        f(1.0)
    with pytest.raises(PoleAtPointError):
        boundary_order(f, 1.0)


def test_inner_outer_monomial_factor():
    f = RationalFn(Poly([0, 0.5, 0.5]))  # z (z+1)/2
    inner, outer = inner_outer(f)
    assert inner.num.degree == 1
    assert inner(0.5) == pytest.approx(0.5)
    assert outer(0.3) == pytest.approx((0.3 + 1) / 2)


def test_inner_outer_blaschke_factor():
    f = RationalFn(Poly.from_roots([0.5, -2.0]))
    inner, outer = inner_outer(f)
    # inner = (z - 1/2)/(1 - z/2); check modulus one on the circle
    iv = np.abs(inner(GRID))
    assert np.max(np.abs(iv - 1.0)) < 1e-10
    # product reconstructs f away from poles
    zs = 0.7 * GRID[:64]
    assert np.max(np.abs(inner(zs) * outer(zs) - f(zs))) < 1e-10
    # outer part has no zeros inside the open disk
    assert np.min(np.abs(poly_roots(outer.num))) >= 1.0 - 1e-7


def test_lowest_terms_cancels_common_roots():
    common = Poly.from_roots([2.0 + 0.5j])
    f, radius = _lowest_terms(RationalFn(common * Poly([0, 1]), common * Poly([1, -0.25])))
    assert f.num.degree == 1
    assert f.den.degree == 1
    assert radius == pytest.approx(4.0)
    assert f(0.4) == pytest.approx(0.4 / (1 - 0.1), rel=1e-9)


def test_inner_outer_pure_outer():
    f = RationalFn(Poly([1, 0.25]))
    inner, outer = inner_outer(f)
    assert inner.num.degree == 0
    assert outer(0.2) == pytest.approx(f(0.2))


def test_inner_outer_ignores_a_double_circle_zero():
    f = RationalFn(Poly([-1, 1]) ** 2 * Poly([-0.5, 1]))  # (z - 1)^2 (z - 1/2)
    inner, outer = inner_outer(f)
    assert inner.num.degree == 1
    assert abs(poly_roots(inner.num)[0] - 0.5) < 1e-10
    zs = 0.7 * GRID[:64]
    assert np.max(np.abs(inner(zs) * outer(zs) - f(zs))) < 1e-10


def test_inner_outer_ignores_a_triple_circle_zero():
    inner, _ = inner_outer(RationalFn(Poly([-1, 1]) ** 3))
    assert inner.num.degree == 0


def test_inner_outer_ignores_a_fourfold_circle_zero():
    # the cluster mean sits off 1; polished as a 4-fold root it reads order 4
    inner, _ = inner_outer(RationalFn(Poly([-1, 1]) ** 4))
    assert inner.num.degree == 0


@pytest.mark.parametrize("n", [3, 4])
def test_model_mates_are_outer(n):
    # the mate numerator of the n-step model is a multiple of (1 - z)^n
    a = pythagorean_mate(build_model(n).b).a
    inner, _ = inner_outer(a)
    assert inner.num.degree == 0


@pytest.mark.xfail(strict=True, reason=(
    "here the computed roots of the circle zero splatter past the 1e-3 near-circle band, "
    "so the audited cluster misses members and shadows inside the disk count as inner zeros"
))
@pytest.mark.parametrize("f, degree", [
    (Poly([-1, 1]) ** 5, 0),
    (Poly([-1, 1]) ** 4 * Poly([-0.5, 1]), 1),
])
def test_inner_outer_at_a_fivefold_circle_zero(f, degree):
    inner, _ = inner_outer(RationalFn(f))
    assert inner.num.degree == degree


def test_inner_outer_rejects_pole_in_closed_disk():
    with pytest.raises(PoleInDiskError):
        inner_outer(RationalFn(Poly([1]), Poly([1, -2])))  # pole at 1/2
    with pytest.raises(PoleInDiskError):
        inner_outer(RationalFn(Poly([1]), Poly([1, -1])))  # pole at 1


def test_symbol_pole_on_the_circle_band_rejected():
    # pole at 1 + 1e-7, inside the circle band: a pole, not a sup |b| of 1e7
    with pytest.raises(PoleInDiskError):
        pythagorean_mate(RationalFn(Poly([1]), Poly([1, -0.9999999])))


def test_mate_carries_pole_radius():
    mate = pythagorean_mate(RationalFn(Poly([0, 1]), Poly([2, -1])))  # z/(2 - z)
    assert mate.pole_radius == 2.0
    assert "pole_radius" not in mate.to_json()
    assert pythagorean_mate(RationalFn(Poly([0.5, 0.5]))).pole_radius == float("inf")
