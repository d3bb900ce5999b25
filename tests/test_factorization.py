"""Pythagorean mate, extremality, boundary orders, inner-outer splits."""

import cmath
import os
import subprocess
import sys
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hbspace import HbSpace, Poly, RationalFn
from hbspace.config import DEFAULT_TOLERANCES as TOL
from hbspace.errors import (
    ExtremeFunctionError,
    FactorizationError,
    NotInUnitBallError,
    PoleAtPointError,
    PoleInDiskError,
)
from hbspace import factorization
from hbspace.extension import build_model
from hbspace.factorization import (
    _inner_roots,
    _lowest_terms,
    _median,
    boundary_order,
    circle_grid,
    inner_outer,
    is_nonextreme,
    pythagorean_mate,
)
from hbspace.polynomials import poly_roots, polish_multiple_root
from test_lattice import symbol_space

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


def _polish_all_steps(p, center, mult):
    """Reference multiple-root polish: every one of the 30 Newton steps,
    and whether some step left z the same bit for bit."""
    q = p.derivative(mult - 1)
    dq = q.derivative()
    z, fixed = center, False
    for _ in range(30):
        dv = dq(z)
        if abs(dv) == 0:
            break
        step = q(z) / dv
        fixed = fixed or repr(z - step) == repr(z)
        z -= step
        if abs(step) <= 1e-16 * max(1.0, abs(z)):
            break
    return z, fixed


def test_multiple_root_polish_stops_early_with_the_same_bits(monkeypatch):
    calls = []

    def record(p, center, mult):
        z = polish_multiple_root(p, center, mult)
        calls.append((p, center, mult, z))
        return z

    monkeypatch.setattr(factorization, "polish_multiple_root", record)
    for b in (RationalFn(Poly([0.5, 0.5])), RationalFn(Poly([0, 1]), Poly([2, -1])),
              B_STEP2, B_STEP3, build_model(4).b,
              RationalFn(Poly([0.5, 0.5j]) ** 3 * Poly([0.3, 1]), Poly([1, 0.3]))):
        pythagorean_mate(b)
    for f in (Poly([-1, 1]) ** 5, Poly([-1j, 1]) ** 6 * Poly([-0.9, 1]),
              Poly([-np.exp(0.7j), 1]) ** 7):
        inner_outer(RationalFn(f))
    fixed = 0
    for p, center, mult, z in calls:
        want, hit = _polish_all_steps(p, center, mult)
        assert repr(z) == repr(want)
        fixed += hit
    assert fixed >= 5, (fixed, len(calls))


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


def _scan_symbol(index: int, eps: float = 3.2e-10) -> tuple[np.ndarray, np.ndarray]:
    """Symbol ``index`` of the near-extreme scan: random degree-2..8 numerator
    over 0..deg poles at modulus 1.25..4, scaled to 1 - eps on a 4096-point
    grid (the generic recipe of the corpus workload, repeated here)."""
    grid = np.exp(2j * np.pi * (np.arange(4096) + 0.5) / 4096)
    scan = np.random.default_rng(11)
    for _ in range(index + 1):
        deg = scan.integers(2, 9)
        n = scan.integers(0, deg + 1)
        poles = scan.uniform(1.25, 4.0, n) * np.exp(2j * np.pi * scan.random(n))
        den = np.array([1.0], dtype=complex)
        for p in poles:
            den = np.convolve(den, [1.0, -1.0 / p])
        num = scan.standard_normal(deg + 1) + 1j * scan.standard_normal(deg + 1)
        num = num / np.max(np.abs(np.polyval(num[::-1], grid) / np.polyval(den[::-1], grid)))
    return num * (1.0 - eps), den


@pytest.mark.xfail(strict=True, raises=FactorizationError, reason=(
    "b peaks past 1 between the grid points of the ball rule, which admits it; "
    "the mate then fails instead (see CHANGES.md)"))
@pytest.mark.parametrize("index", [2, 13, 28])
def test_symbol_past_the_ball_between_grid_points_is_rejected(index):
    num, den = _scan_symbol(index)
    # the peak on a fine grid: past 1 by far more than the ball rule's 10 TOL.mate
    zs = np.exp(2j * np.pi * np.arange(2**18) / 2**18)
    peak = np.max(np.abs(np.polyval(num[::-1], zs) / np.polyval(den[::-1], zs)))
    assert peak > 1.0 + 1e-7
    with pytest.raises(NotInUnitBallError):
        pythagorean_mate(RationalFn(Poly(num), Poly(den)))


def _near_pole_symbol(index: int) -> RationalFn:
    """Symbol ``index`` of a seeded loop: a degree-2..9 numerator over 1..deg
    poles at modulus 1.0005..1.05, scaled to sup|b| in [0.9, 0.9999] on a
    2^15-point grid."""
    gen = np.random.default_rng(5)
    fine = np.exp(2j * np.pi * np.arange(1 << 15) / (1 << 15))
    for _ in range(index + 1):
        deg = int(gen.integers(2, 10))
        num = Poly(gen.standard_normal(deg + 1) + 1j * gen.standard_normal(deg + 1))
        den = Poly([1])
        for _ in range(int(gen.integers(1, deg + 1))):
            pole = cmath.rect(gen.uniform(1.0005, 1.05), gen.uniform(0, 2 * np.pi))
            den = den * Poly([1, -1 / pole])
        sup = np.max(np.abs(num(fine) / den(fine)))
        b = RationalFn(num * (gen.uniform(0.9, 0.9999) / sup), den)
    return b


@pytest.mark.xfail(strict=True, raises=AssertionError, reason=(
    "the mate residual is certified on circle_grid() only: with a pole at modulus "
    "1.00081, |a|^2 + |b|^2 - 1 reaches 3.7e-9 between grid points (see CHANGES.md)"))
def test_mate_certificate_holds_between_grid_points():
    b = _near_pole_symbol(51)
    mate = pythagorean_mate(b)
    zs = np.exp(2j * np.pi * np.arange(1 << 16) / (1 << 16))
    # a valid symbol well inside the ball, with a mate certified on the grid;
    # pytest.fail is not the AssertionError this xfail expects
    if not (mate.residual <= TOL.mate and np.max(np.abs(b(zs))) < 0.95):
        pytest.fail("symbol 51 no longer has a grid-certified mate inside the ball")
    off = np.abs(mate.a(zs)) ** 2 + np.abs(b(zs)) ** 2 - 1.0
    assert np.max(np.abs(off)) <= TOL.mate


def test_mate_with_a_repeated_zero_off_the_circle_fails_on_its_residual():
    # b = P/S with 1 - |b|^2 = |R/S|^2, P = 0.3 + 0.5z, R = 0.1 (z - 1.5)^3: the
    # mate's triple zero at 1.5 roots as a cluster, and the residual rejects it
    p, r = Poly([0.3, 0.5]), Poly([-1.5, 1]) ** 3 * 0.1
    density = (p * p.reflect(3)).coeff_array(7) + (r * r.reflect(3)).coeff_array(7)
    s = Poly.from_roots([z for z in poly_roots(Poly(density)) if abs(z) > 1.0])
    s = s * np.sqrt((abs(p(1.0)) ** 2 + abs(r(1.0)) ** 2) / abs(s(1.0)) ** 2)
    with pytest.raises(FactorizationError, match="residual"):
        pythagorean_mate(RationalFn(p, s))


@pytest.mark.xfail(strict=True, raises=AssertionError, reason=(
    "a repeated root inside the disk is placed only to ~sqrt(eps), 1.05e-8 here"))
def test_inner_roots_place_a_repeated_interior_root():
    roots = _inner_roots(Poly.from_roots([1.0, 0.2, 0.2]))
    assert len(roots) == 2
    assert max(abs(r - 0.2) for r in roots) <= 1e-12


def test_median_is_numpy_median_bit_for_bit():
    gen = np.random.default_rng(20)
    for _ in range(2000):
        x = gen.standard_normal(int(gen.integers(1, 1200))) * 10.0 ** gen.uniform(-5, 5)
        if gen.random() < 0.2:
            x = np.round(x)  # ties and signed zeros
        assert np.float64(_median(x)).tobytes() == np.median(x).tobytes()
    assert np.isnan(_median(np.zeros(0)))
    assert np.isnan(_median(np.array([1.0, np.nan, 2.0])))


def test_a_mate_imports_no_masked_arrays():
    # numpy 1.x imports numpy.ma inside `import numpy`, numpy 2 on first use:
    # either way, computing a mate must not be what loads it
    code = ("import sys\n"
            "from hbspace import HbSpace, Poly, RationalFn\n"
            "before = 'numpy.ma' in sys.modules\n"
            "HbSpace(RationalFn(Poly([0.5, 0.5])))\n"
            "assert ('numpy.ma' in sys.modules) == before\n")
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)}
    subprocess.run([sys.executable, "-c", code], check=True, env=env)


def test_circle_grid_is_one_read_only_array():
    zs = circle_grid()
    assert zs is circle_grid()
    assert not zs.flags.writeable
    k = np.arange(len(zs))
    assert zs.tobytes() == np.exp(2j * np.pi * k / len(zs)).tobytes()


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


# -- the mate residual on a second, exact path --------------------------------
#
# MateResult.residual is max | |a|^2 + |b|^2 - 1 | on the circle grid, in
# floats: a(z) = r(z)/q(z) and b(z) = p(z)/q(z), each polynomial by Horner.
# The second path evaluates the same float coefficients at the same float
# points in exact rational arithmetic.  The two differ by rounding only,
# bounded to first order in u = 2^-53 as follows.
#
# - Horner in complex arithmetic: each step is one complex multiply
#   (relative error <= sqrt(2) gamma_2 < 3u, Higham, Lemma 3.5) and one
#   add (u), so |fl(p(z)) - p(z)| <= gamma_(4d+1) B_p(z), where d = deg p
#   and B_p(z) = sum |p_k| |z|^k.  Relative to |p(z)| that is
#   kappa_p = gamma_(4d+1) B_p(z) / |p(z)|.
# - f = n/d: the division, the modulus and the square add at most 15u, so
#   | |fl f|^2 - |f|^2 | <= |f|^2 (2 kappa_n + 2 kappa_d + 15u).
# - the sum and the subtraction of 1 add u (|a|^2 + |b|^2) each.
#
# So |e_float(z) - e_exact(z)| <= sum over f in {a, b} of
# |f|^2 (2 kappa_num + 2 kappa_den) + 17u (|a|^2 + |b|^2).

_U = 2.0**-53


def _gamma(k: int) -> float:
    return k * _U / (1 - k * _U)


def _exact_at(p: Poly, z: complex) -> tuple[Fraction, Fraction]:
    """(Re, Im) of p(z) in exact rational arithmetic, at the float point z."""
    zr, zi = Fraction(z.real), Fraction(z.imag)
    re = im = Fraction(0)
    for c in reversed(p.coeffs):
        c = complex(c)
        re, im = re * zr - im * zi + Fraction(c.real), re * zi + im * zr + Fraction(c.imag)
    return re, im


def _abs2(p: Poly, z: complex) -> Fraction:
    re, im = _exact_at(p, z)
    return re * re + im * im


def _rounding_bound(f: RationalFn, z: complex) -> float:
    """|f(z)|^2 (2 kappa_num + 2 kappa_den) at first order, from float values.

    Written as 2 (g_n B_n |n| + |n|^2 g_d B_d / |d|) / |d|^2, g = gamma_(4 deg + 1),
    so that a zero of the numerator divides nothing.
    """
    def horner(p):
        g = _gamma(4 * max(p.degree, 0) + 1)
        return g * sum(abs(c) * abs(z) ** k for k, c in enumerate(p.coeffs)), abs(p(z))

    (en, n), (ed, d) = horner(f.num), horner(f.den)
    return 2 * (en * n + n * n * ed / d) / (d * d)


@pytest.mark.parametrize("name", ["half", "model1", "model2", "model3", "deg8"])
def test_mate_residual_matches_exact_arithmetic(name):
    space = symbol_space(name)
    a, b, mate = space.a, space.b, space.mate
    zs = circle_grid()
    # the float path of MateResult.residual, reproduced bit for bit
    e_float = np.abs(a(zs)) ** 2 + np.abs(b.num(zs) / b.den(zs)) ** 2 - 1.0
    assert float(np.max(np.abs(e_float))) == mate.residual
    exact_max = 0.0
    for i in range(0, len(zs), len(zs) // 64):
        z = complex(zs[i])
        qa, qb = _abs2(a.den, z), _abs2(b.den, z)
        exact = float((_abs2(a.num, z) * qb + _abs2(b.num, z) * qa - qa * qb) / (qa * qb))
        bound = (
            _rounding_bound(a, z) + _rounding_bound(b, z)
            + 17 * _U * (abs(a(z)) ** 2 + abs(b(z)) ** 2)
        )
        assert abs(e_float[i] - exact) <= bound
        exact_max = max(exact_max, abs(exact))
    assert exact_max <= TOL.mate
