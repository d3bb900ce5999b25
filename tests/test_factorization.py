"""Pythagorean mate, extremality, boundary orders, inner-outer splits."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

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
    _inner_roots,
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


@pytest.mark.parametrize("f, degree", [
    (Poly([-1, 1]) ** 5, 0),
    (Poly([-1, 1]) ** 4 * Poly([-0.5, 1]), 1),
    (Poly([-1, 1]) ** 8 * Poly([-0.3, 1]) * Poly([2, 1]), 1),
    (Poly([-1j, 1]) ** 6 * Poly([-0.9, 1]), 1),
    (Poly([-np.exp(0.7j), 1]) ** 7, 0),
])
def test_inner_outer_at_a_fivefold_circle_zero(f, degree):
    # the circle zero is divided out before rooting, so its computed
    # roots never splatter into the disk
    inner, _ = inner_outer(RationalFn(f))
    assert inner.num.degree == degree


def _polar(radii):
    # two roots 0.01 apart at least: a double root is found only to ~sqrt(eps)
    return st.lists(
        st.tuples(st.floats(*radii), st.floats(0.0, 2 * np.pi)), max_size=2
    ).map(lambda rs: [r * np.exp(1j * t) for r, t in rs]).filter(
        lambda rs: len(rs) < 2 or abs(rs[0] - rs[1]) >= 0.01
    )


@settings(max_examples=40, deadline=None, database=None, derandomize=True)
@given(
    angle=st.floats(0.0, 2 * np.pi),
    m=st.integers(1, 8),
    inner=_polar((0.2, 0.8)),
    outer=_polar((1.25, 3.0)),
)
def test_inner_roots_are_the_roots_inside_the_disk(angle, m, inner, outer):
    # an m-fold circle zero next to at most two roots on each side of the circle
    f = Poly([-np.exp(1j * angle), 1]) ** m * Poly.from_roots(inner + outer)
    got = _inner_roots(f)
    assert len(got) == len(inner)
    for r in inner:
        assert min(abs(g - r) for g in got) <= 1e-8


@pytest.mark.parametrize("n", [5, 6])
def test_model_mate_at_a_deep_circle_zero(n):
    # the n-step model at omega = 1, t = pi has the mate gamma (1 - z)^n
    mate = pythagorean_mate(build_model(n).b)
    assert [(complex(lam), m) for lam, m in mate.boundary_zeros] == [
        (pytest.approx(1.0, abs=1e-12), n)
    ]
    assert mate.a(0) == pytest.approx(1 / np.sqrt(n + 1), abs=1e-12)
    assert mate.residual <= TOL.mate


def _near_extreme(eps, power=1, pole=None):
    # |b| peaks at 1 - eps at z = 1 only: (1 - eps) ((1 + z)/2)^power, times
    # (1 - 1/pole)/(1 - z/pole) for a pole just outside the circle there
    b = RationalFn((Poly([0.5, 0.5]) * (1 - eps)) ** power)
    if pole is not None:
        b = RationalFn(b.num * (1 - 1 / pole), Poly([1, -1 / pole]))
    return b


@pytest.mark.parametrize("b", [
    _near_extreme(1e-8),
    _near_extreme(1e-11),
    _near_extreme(3.5e-12, power=2),
    _near_extreme(3e-9, pole=1.05),
])
def test_mate_of_a_near_extreme_symbol_has_no_circle_zero(b):
    # the density's root pair just off the circle at 1 passes the zero rule,
    # but 1 - |b(1)|^2 is above what rooting parts or the mate tolerance allows
    mate = pythagorean_mate(b)
    assert mate.boundary_zeros == ()
    assert mate.residual <= TOL.mate


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
