"""Extension steps, model towers, Mobius preprocessing, kernel updates."""

import dataclasses
import math

import numpy as np
import pytest

from hbspace.errors import (
    DegenerateOmegaError,
    ForbiddenPhaseError,
    InputFormatError,
    VerificationError,
)
from hbspace.extension import (
    brownian_shift_symbol,
    build_model,
    extend,
    forbidden_phase,
    kernel_factorization_check,
    mobius_normalize,
    rotate,
)
from hbspace.polynomials import Poly, RationalFn
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


def test_forbidden_phase_after_first_step():
    assert forbidden_phase(B_ZERO) is None
    assert abs(forbidden_phase(B_STEP1) - 0.0) < 1e-12
    with pytest.raises(ForbiddenPhaseError):
        extend(B_STEP1, omega=1.0, t=0.0)
    step = extend(B_STEP1, omega=1.0, t=np.pi)
    assert same_function(step.b, B_STEP2)


def test_degenerate_omega():
    with pytest.raises(DegenerateOmegaError):
        extend(B_ZERO, omega=0.0)


def test_extension_needs_vanishing_origin():
    with pytest.raises(InputFormatError):
        extend(B_HALF)


def test_mobius_anchor():
    out = mobius_normalize(B_HALF, 0.5)
    want = RationalFn(Poly([0, 2]), Poly([3, -1]))
    assert same_function(out, want)
    assert abs(out(0)) < 1e-14


def test_mobius_then_extend():
    recentered = mobius_normalize(B_HALF, B_HALF(0))
    step = extend(recentered, omega=1.0, t=np.pi / 2)
    assert int(step.b.degree) == 2
    assert step.certificates["value_at_one"] < 1e-12


def test_mobius_rejects_big_alpha():
    with pytest.raises(InputFormatError):
        mobius_normalize(B_HALF, 1.0)


def test_rotate_moves_boundary_zero():
    phi = np.pi / 2
    rb = rotate(B_STEP1, phi)
    assert np.max(np.abs(rb(SAMPLE) - B_STEP1(np.exp(1j * phi) * SAMPLE))) < 1e-13
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


def test_kernel_factorization_later_step():
    step = extend(B_STEP1, omega=1.0, t=np.pi)
    out = kernel_factorization_check(B_STEP1, step)
    assert out["max_residual"] < 1e-12
    step_off = extend(B_STEP1, omega=0.6 + 0.3j, t=2.0)
    out = kernel_factorization_check(B_STEP1, step_off)
    assert out["max_residual"] < 1e-12


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


@pytest.mark.parametrize("points", [[1.0, 0.5], [0.2, 1.5j], [math.nan, 0.2], [0.2, math.inf], []])
def test_kernel_factorization_rejects_points(points):
    step = extend(B_ZERO, omega=1.0, t=np.pi)
    with pytest.raises(InputFormatError):
        kernel_factorization_check(B_ZERO, step, points=points)


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


def test_extend_fails_non_finite_certificates():
    b0 = RationalFn(Poly([0, math.nan]), Poly([1]))
    with pytest.raises(VerificationError):
        extend(b0, space=HbSpace(B_ZERO))
