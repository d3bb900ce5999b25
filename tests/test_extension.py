"""Extension steps, model towers, Mobius preprocessing, kernel updates."""

import dataclasses
import math

import numpy as np
import pytest

from hbspace import extension, factorization, polynomials
from hbspace.config import DEFAULT_TOLERANCES as TOL
from hbspace.errors import (
    DegenerateOmegaError,
    ForbiddenPhaseError,
    InputFormatError,
    PoleInDiskError,
    VerificationError,
)
from hbspace.extension import (
    _unit,
    brownian_shift_symbol,
    build_model,
    extend,
    forbidden_phase,
    kernel_factorization_check,
    mobius_normalize,
)
from hbspace.isometry import isometry_order
from hbspace.polynomials import Poly, RationalFn, poly_roots
from hbspace.space import HbSpace

B_ZERO = RationalFn(Poly([]), Poly([1]))
B_HALF = RationalFn(Poly([0.5, 0.5]), Poly([1]))
B_STEP1 = RationalFn(Poly([0, 1]), Poly([2, -1]))
B_STEP2 = RationalFn(Poly([0, 0, 1]), Poly([3, -3, 1]))
B_STEP3 = RationalFn(Poly([0, 3, -6, 5]), Poly([12, -21, 14, -3]))

SAMPLE = 0.8 * np.exp(2j * np.pi * np.arange(9) / 9.0) * np.linspace(0.2, 1, 9)


def same_function(f, g, tol=1e-12):
    return np.max(np.abs(f(SAMPLE) - g(SAMPLE))) < tol


def test_first_step_from_zero():
    step = extend(B_ZERO, omega=1.0, t=np.pi)
    assert abs(step.s - 0.5) < 1e-14
    assert same_function(step.b, B_STEP1)


def test_step_from_zero_any_phase():
    # with b0 = 0 the phase drops out: b = s z / (1 - (1 - s) z)
    step = extend(B_ZERO, omega=2.0, t=1.3)
    s = 0.8
    assert abs(step.s - s) < 1e-14
    want = RationalFn(Poly([0, s]), Poly([1, -(1 - s)]))
    assert same_function(step.b, want)


def test_model_tower_matches_frozen_symbols():
    for n, frozen in ((1, B_STEP1), (2, B_STEP2), (3, B_STEP3)):
        model = build_model(n)
        assert same_function(model.b, frozen, tol=1e-11)
        assert int(model.b.degree) == n


def test_model_s_sequence():
    model = build_model(3)
    assert np.allclose([st.s for st in model.steps], [1 / 2, 1 / 3, 1 / 4], atol=1e-12)


def test_model_certificates():
    model = build_model(3)
    for st in model.steps:
        assert st.certificates["value_at_origin"] < 1e-13
        assert st.certificates["value_at_one"] < 1e-12
        assert st.certificates["derivative_at_one"] < 1e-9


def test_model_norm_chain():
    for n in (1, 2, 3):
        space = HbSpace(build_model(n).b)
        assert abs(space.norm_b_sq - n) < 1e-9


def test_model_verify_isometry_order():
    model = build_model(2, verify=True)
    assert model.isometry_order == 4


def test_model_4_verifies_order_8():
    # the m = 8 defect read 2.5e-8 through Gram differences, above tol.iso
    assert build_model(4, verify=True).isometry_order == 8


def test_forbidden_phase_after_first_step():
    assert forbidden_phase(B_ZERO) is None
    assert abs(forbidden_phase(B_STEP1) - 0.0) < 1e-12
    with pytest.raises(ForbiddenPhaseError):
        extend(B_STEP1, omega=1.0, t=0.0)
    step = extend(B_STEP1, omega=1.0, t=np.pi)
    assert same_function(step.b, B_STEP2)


def test_degenerate_omega():
    # s = 0: omega vanishes, or |omega|^2 underflows
    for omega in (0.0, 1e-200):
        with pytest.raises(DegenerateOmegaError):
            extend(B_ZERO, omega=omega)


def test_small_omega_inside_the_rule_fails_verification():
    # 0 < s ~ 1e-30 < 1 is admitted; the certificates at z = 1 cannot be evaluated
    with pytest.raises(VerificationError):
        extend(RationalFn(Poly([0, 0.5])), omega=1e-15)


@pytest.mark.parametrize("omega", [1e10, 1e300, 1e200j])
def test_omega_beyond_double_precision(omega):
    # s = |omega|^2 / (1 + |w|^2 + |omega|^2) rounds to 1, or |omega|^2
    # overflows and the message names that, not s = nan
    with pytest.raises(DegenerateOmegaError) as err:
        extend(RationalFn(Poly([0, 0.5])), omega=omega)
    overflows = math.isinf(abs(omega) * abs(omega))
    assert overflows == (omega != 1e10)
    message = "|omega|^2 overflowing double precision" if overflows else "gives s = 1.0, outside"
    assert message in str(err.value)
    assert "nan" not in str(err.value)


def test_extension_needs_vanishing_origin():
    with pytest.raises(InputFormatError):
        extend(B_HALF)


def test_mobius_anchor():
    out = mobius_normalize(B_HALF)  # alpha = b(0) = 1/2
    want = RationalFn(Poly([0, 2]), Poly([3, -1]))
    assert same_function(out, want)
    assert abs(out(0)) < 1e-14


def test_mobius_then_extend():
    recentered = mobius_normalize(B_HALF)
    step = extend(recentered, omega=1.0, t=np.pi / 2)
    assert int(step.b.degree) == 2
    assert step.certificates["value_at_one"] < 1e-12


def test_mobius_rejects_big_alpha():
    with pytest.raises(InputFormatError):
        mobius_normalize(RationalFn(Poly([1.0]), Poly([1, -0.5])))  # b(0) = 1


def test_rotate_moves_boundary_zero():
    # b(exp(i phi) z) carries the boundary zero of the mate from 1 to exp(-i phi)
    phi = np.pi / 2
    w = np.exp(1j * phi)
    rb = RationalFn(*(Poly([c * w**k for k, c in enumerate(p.coeffs)])
                      for p in (B_STEP1.num, B_STEP1.den)))
    assert np.max(np.abs(rb(SAMPLE) - B_STEP1(w * SAMPLE))) < 1e-13
    zeros = HbSpace(rb).boundary_zeros
    assert len(zeros) == 1
    lam, mult = zeros[0]
    assert mult == 1
    assert abs(lam - np.exp(-1j * phi)) < 1e-9


def test_brownian_shift_symbol():
    assert same_function(brownian_shift_symbol(1.0), B_STEP1)
    sigma = 0.7
    bb = brownian_shift_symbol(sigma)
    beta = 1 / (1 + sigma**2)
    gamma = sigma**2 / (1 + sigma**2)
    z = 0.3 - 0.4j
    assert abs(bb(z) - gamma * z / (1 - beta * z)) < 1e-14
    with pytest.raises(InputFormatError):
        brownian_shift_symbol(0.0)


def test_brownian_matches_one_step():
    sigma = 1.7
    s = sigma**2 / (1 + sigma**2)
    step = extend(B_ZERO, omega=sigma, t=np.pi)
    assert abs(step.s - s) < 1e-14
    assert same_function(step.b, brownian_shift_symbol(sigma))


def test_kernel_factorization_step_from_zero():
    step = extend(B_ZERO, omega=1.0, t=np.pi)
    out = kernel_factorization_check(B_ZERO, step)
    assert out["max_residual"] < 1e-12


def _kernel_residual_per_call(b0, ext):
    """The kernel update's residual with its points and cross matrix built per call."""
    radii = np.array([0.25, 0.55, 0.8])
    angles = np.exp(2j * np.pi * np.arange(1, 8) / 7.3)
    zs = (radii[:, None] * angles[None, :]).ravel()
    bt_z, b0_z = ext.b(zs), b0(zs)
    e = math.sqrt(ext.s) * (1.0 - bt_z) / (1.0 - zs)
    f = math.sqrt(1.0 - ext.s) * (1.0 - bt_z) / (1.0 - _unit(ext.t) * b0_z)
    cross = 1.0 - np.conj(zs)[:, None] * zs[None, :]
    k_new = (1.0 - np.conj(bt_z)[:, None] * bt_z[None, :]) / cross
    k_old = (1.0 - np.conj(b0_z)[:, None] * b0_z[None, :]) / cross
    rhs = np.conj(e)[:, None] * e[None, :] + np.conj(f)[:, None] * f[None, :] * k_old
    return zs, cross, float(np.max(np.abs(k_new - rhs)))


def test_kernel_update_points_are_the_per_call_expression_bit_for_bit():
    zs, cross, _ = _kernel_residual_per_call(B_ZERO, extend(B_ZERO, omega=1.0, t=np.pi))
    assert extension._KERNEL_POINTS.tobytes() == zs.tobytes()
    assert extension._KERNEL_CROSS.tobytes() == cross.tobytes()
    assert not extension._KERNEL_POINTS.flags.writeable
    assert not extension._KERNEL_CROSS.flags.writeable
    for b0, omega, t in ((B_ZERO, 1.0, np.pi), (B_STEP1, 0.6 + 0.3j, 2.0), (B_STEP2, 1.3j, 4.1)):
        step = extend(b0, omega=omega, t=t)
        got = kernel_factorization_check(b0, step)["max_residual"]
        assert repr(got) == repr(_kernel_residual_per_call(b0, step)[2])


def test_kernel_factorization_later_step():
    step = extend(B_STEP1, omega=1.0, t=np.pi)
    out = kernel_factorization_check(B_STEP1, step)
    assert out["max_residual"] < 1e-12
    step_off = extend(B_STEP1, omega=0.6 + 0.3j, t=2.0)
    out = kernel_factorization_check(B_STEP1, step_off)
    assert out["max_residual"] < 1e-12


@pytest.mark.parametrize("t", [0.0, math.pi / 2, -math.pi / 2, math.pi, -math.pi,
                               3 * math.pi / 2, 2 * math.pi, 4 * math.pi])
def test_unit_is_exact_at_multiples_of_a_right_angle(t):
    k = round(t / (math.pi / 2)) % 4
    want = (1 + 0j, -1j, -1 + 0j, 1j)[k]
    u = _unit(t)
    assert (u.real, u.imag) == (want.real, want.imag)


def _same_bits(x: complex, y: complex) -> bool:
    return (x.real.hex(), x.imag.hex()) == (y.real.hex(), y.imag.hex())


def test_unit_is_exp_bit_for_bit_away_from_the_right_angles():
    rng = np.random.default_rng(29)
    for t in rng.uniform(0.3, 2 * math.pi - 0.3, 10_000):
        t = float(t)
        assert _same_bits(_unit(t), complex(np.exp(-1j * t)))
    # no snap: cos rounds to -1 here but sin is 1e-9, far above t's rounding
    assert _same_bits(_unit(math.pi - 1e-9), complex(np.exp(-1j * (math.pi - 1e-9))))
    assert _unit(math.pi - 1e-9).imag != 0.0
    for t in (1e17, 1e300):
        assert _same_bits(_unit(t), complex(np.exp(-1j * t)))


@pytest.mark.parametrize("n", range(1, 7))
def test_default_towers_are_exactly_real(n):
    b = build_model(n).b
    space = HbSpace(b)
    for coeffs in (b.num.coeff_array(), b.den.coeff_array(), space.a.num.coeff_array(),
                   space.phi_coeffs(200)):
        assert not coeffs.imag.any()
    assert space.gram_matrix(256).dtype == np.float64


def test_kernel_factorization_at_pi_uses_the_exact_unit(monkeypatch):
    seen = []

    def recording(t):
        seen.append(_unit(t))
        return seen[-1]

    step = extend(B_STEP1, omega=1.0, t=math.pi)
    monkeypatch.setattr(extension, "_unit", recording)
    kernel_factorization_check(B_STEP1, step)
    assert [(u.real, u.imag) for u in seen] == [(-1.0, 0.0)]


def test_extension_json_roundtrippable():
    model = build_model(2)
    blob = model.to_json()
    assert blob["n"] == 2
    assert len(blob["steps"]) == 2
    back = RationalFn.from_json(blob["b"])
    assert same_function(back, B_STEP2, tol=1e-11)


def reference_kernel_update(b0, ext, points):
    """The pairwise loop with scalar evaluation: max residual and max |K_new|."""
    bt, s, u = ext.b, ext.s, np.exp(-1j * ext.t)

    def kernel(b, w, z):
        return (1.0 - np.conj(b(w)) * b(z)) / (1.0 - np.conj(w) * z)

    def efun(z):
        return math.sqrt(s) * (1.0 - bt(z)) / (1.0 - z)

    def ffun(z):
        return math.sqrt(1.0 - s) * (1.0 - bt(z)) / (1.0 - u * b0(z))

    worst = scale = 0.0
    for w in points:
        for z in points:
            lhs = kernel(bt, w, z)
            rhs = efun(z) * np.conj(efun(w)) + ffun(z) * np.conj(ffun(w)) * kernel(b0, w, z)
            worst = max(worst, abs(lhs - rhs))
            scale = max(scale, abs(lhs))
    return worst, scale


def tower_and_generic_steps():
    b = B_ZERO
    for _ in range(4):
        step = extend(b, omega=1.0, t=np.pi)
        yield b, step
        b = step.b
    yield B_STEP1, extend(B_STEP1, omega=0.6 + 0.3j, t=2.0)


def test_kernel_factorization_matches_pairwise_reference():
    radii = np.array([0.25, 0.55, 0.8])
    angles = np.exp(2j * np.pi * np.arange(1, 8) / 7.3)
    points = [complex(z) for z in (radii[:, None] * angles[None, :]).ravel()]
    eps = np.finfo(float).eps
    for b0, step in tower_and_generic_steps():
        out = kernel_factorization_check(b0, step)
        assert out["points"] == len(points)
        worst, scale = reference_kernel_update(b0, step, points)
        assert abs(out["max_residual"] - worst) <= 64 * eps * scale


def test_kernel_factorization_detects_wrong_weight():
    step = extend(B_STEP1, omega=1.0, t=np.pi)
    off = dataclasses.replace(step, s=step.s * (1 + 1e-6))
    assert kernel_factorization_check(B_STEP1, off)["max_residual"] > 1e-9


def test_kernel_factorization_non_finite_residual():
    step = extend(B_ZERO, omega=1.0, t=np.pi)
    broken = dataclasses.replace(step, s=math.nan)
    with pytest.raises(VerificationError):
        kernel_factorization_check(B_ZERO, broken)


@pytest.mark.parametrize("omega,t", [(math.nan, np.pi), (complex(1, math.inf), np.pi),
                                     (1.0, math.nan), (1.0, -math.inf)])
def test_extend_rejects_non_finite_parameters(omega, t):
    with pytest.raises(InputFormatError):
        extend(B_ZERO, omega=omega, t=t)


def test_extend_fails_non_finite_certificates(monkeypatch):
    monkeypatch.setattr(RationalFn, "derivative_at", lambda self, z: complex(math.nan, 0.0))
    with pytest.raises(VerificationError):
        extend(B_ZERO)


def test_non_finite_symbol_rejected():
    b0 = RationalFn(Poly([0, math.nan]), Poly([1]))
    with pytest.raises(InputFormatError):
        HbSpace(b0)
    with pytest.raises(InputFormatError):
        extend(b0)


def test_infinite_denominator_rejected():
    # normalising by the infinite coefficient used to zero num and den
    for den in ([1, math.inf], [1, complex(0, -math.inf)]):
        with pytest.raises(InputFormatError):
            HbSpace(RationalFn(Poly([0, 0.5]), Poly(den)))
        with pytest.raises(InputFormatError):
            extend(RationalFn(Poly([0, 0.5]), Poly(den)))


# -- the carried defect norm --------------------------------------------------


def _random_nonextreme(rng):
    """b0(0) = 0, degree 1-5, poles at modulus 1.3-3, sup|b0| in [0.3, 0.97]."""
    degree = int(rng.integers(1, 6))
    num = Poly(np.concatenate([[0.0], rng.standard_normal(degree)
                               + 1j * rng.standard_normal(degree)]))
    poles = rng.uniform(1.3, 3.0, degree) * np.exp(2j * np.pi * rng.random(degree))
    den = Poly.from_roots(poles, 1.0)
    zs = np.exp(2j * np.pi * np.arange(4096) / 4096)
    peak = float(np.max(np.abs(num(zs) / den(zs))))
    return RationalFn(num * (rng.uniform(0.3, 0.97) / peak), den)


def _random_step(rng):
    omega = rng.uniform(0.3, 2.0) * np.exp(2j * np.pi * rng.random())
    return complex(omega), float(2 * np.pi * rng.random())


def test_carried_norm_matches_the_mate_of_the_extension():
    # a_t(0)^2 = (1 - s) a0(0)^2: carried w_sq + |omega|^2 against the new symbol's mate
    rng = np.random.default_rng(3030)
    for _ in range(60):
        b0 = _random_nonextreme(rng)
        omega, t = _random_step(rng)
        step = extend(b0, omega=omega, t=t)
        measured = HbSpace(step.b).norm_b_sq
        assert abs(step.b.norm_b_sq - measured) <= 1e-9 * measured


def _count_spaces(monkeypatch):
    built = []

    def counting(b, rng=None):
        built.append(b)
        return HbSpace(b, rng=rng)

    monkeypatch.setattr(extension, "HbSpace", counting)
    return built


def test_extend_from_a_carried_symbol_builds_no_space(monkeypatch):
    first = extend(B_STEP1, omega=0.8 - 0.3j, t=2.0)
    built = _count_spaces(monkeypatch)
    extend(first.b, omega=1.1j, t=4.0)
    assert built == []


@pytest.mark.parametrize("omega,t", [(1.0, math.pi), (0.8 - 0.3j, 2.0), (1.7j, 0.4)])
def test_the_plain_zero_reads_its_norm_without_a_space(monkeypatch, omega, t):
    carried = extend(extension._Carried(Poly([]), Poly([1]), 0.0), omega=omega, t=t)
    built = _count_spaces(monkeypatch)
    plain = extend(RationalFn(Poly([]), Poly([1])), omega=omega, t=t)
    assert built == []
    assert (plain.b.num.coeffs, plain.b.den.coeffs) == (carried.b.num.coeffs, carried.b.den.coeffs)
    assert plain.b.norm_b_sq == carried.b.norm_b_sq
    assert plain.s == carried.s
    assert plain.certificates == carried.certificates


def test_any_other_zero_numerator_takes_the_mate(monkeypatch):
    built = _count_spaces(monkeypatch)
    with pytest.raises(PoleInDiskError):
        extend(RationalFn(Poly([]), Poly([1, -2])))
    assert len(built) == 1


def test_a_symbol_read_back_from_json_takes_the_mate():
    rng = np.random.default_rng(3031)
    for _ in range(10):
        b0 = _random_nonextreme(rng)
        omega, t = _random_step(rng)
        b = extend(b0, omega=omega, t=t).b
        omega, t = _random_step(rng)
        carried = extend(b, omega=omega, t=t)
        bare = RationalFn.from_json(b.to_json())
        assert bare.to_json() == b.to_json()
        with pytest.MonkeyPatch.context() as mp:
            built = _count_spaces(mp)
            measured = extend(bare, omega=omega, t=t)
        assert len(built) == 1
        assert abs(measured.s - carried.s) <= 1e-9
        for got, want in ((measured.b.num, carried.b.num), (measured.b.den, carried.b.den)):
            assert np.max(np.abs(got.coeff_array() - want.coeff_array())) <= 1e-9


def _count_roots(monkeypatch):
    calls = []

    def counting(p, *args, **kwargs):
        calls.append(p)
        return poly_roots(p, *args, **kwargs)

    monkeypatch.setattr(factorization, "poly_roots", counting)
    monkeypatch.setattr(polynomials, "poly_roots", counting)
    return calls


def test_build_model_roots_nothing_without_verify(monkeypatch):
    calls = _count_roots(monkeypatch)
    build_model(4)
    assert calls == []
    build_model(4, verify=True)
    assert calls


# The n = 4 towers queries whose m = 8 defect read 1.1e-8 ... 2.6e-8 through
# two-dimensional differencing, above tol.iso: (omega, t) as the bench draws them.
TOWERS_N4 = [
    (complex(-1.514179244967816, -0.3226727377519893), 3.4366172186465116),
    (complex(-1.527484472489251, 0.3391690757124853), 3.913912592597009),
    (complex(-0.11733730442340444, 1.5006098329359674), 3.2919688050689424),
    (complex(-0.12170407077422955, -1.7969645928228049), 4.59506181848624),
    (complex(-1.4370047015922793, 1.1754260798360534), 4.594356873975861),
    (complex(-1.4250407192557226, 0.29170582077261714), 3.22301910948039),
    (complex(0.11701075470559637, 1.5544576095685407), 3.7870079769766716),
    (complex(-1.4378030503047243, -0.1519424649214859), 3.588166930107265),
]


@pytest.mark.parametrize("omega,t", TOWERS_N4)
def test_n4_towers_read_order_8(omega, t):
    model = build_model(4, omega=omega, t=t, verify=True)
    assert model.isometry_order == 8
    rep = isometry_order(HbSpace(model.b), m_max=10)
    assert rep.defects[7] <= TOL.iso / 3
