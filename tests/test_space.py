"""Inner products, plus companions, kernels, Gram matrices."""

import cmath
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hbspace import factorization, polynomials
from hbspace import space as space_module
from hbspace.config import D_TRUNC, DEFAULT_TOLERANCES as TOL
from hbspace.errors import (HbError, InputFormatError, OrderTooHighError, PoleInDiskError,
                            VerificationError)
from hbspace.extension import build_model, extend
from hbspace.isometry import rank_one_identity_check
from hbspace.polynomials import Poly, RationalFn
from hbspace.space import HbSpace, _decay_profile, _degree_for_tail, _real_if_exact, _tail_bound
from orbit_route import orbit_distance

RNG = np.random.default_rng(20260817)

Z = Poly([0, 1])
B_HALF = RationalFn(Poly([0.5, 0.5]), Poly([1]))  # (z + 1)/2
B_AFFINE = RationalFn(Poly([0, 0.5]), Poly([1]))  # z/2
B_STEP1 = RationalFn(Poly([0, 1]), Poly([2, -1]))  # z/(2 - z)
B_STEP2 = RationalFn(Poly([0, 0, 1]), Poly([3, -3, 1]))
# degree 4 over two complex poles, sup |b| ~ 0.86 on the circle
B_COMPLEX = RationalFn(
    Poly([0.2 + 0.1j, -0.15 + 0.25j, 0.1 - 0.05j, 0.05j, -0.08 + 0.02j]),
    Poly([1, -0.3 + 0.2j]) * Poly([1, 0.25 - 0.35j]),
)


@pytest.fixture(scope="module")
def half():
    return HbSpace(B_HALF)


@pytest.fixture(scope="module")
def affine():
    return HbSpace(B_AFFINE)


@pytest.fixture(scope="module")
def step2():
    return HbSpace(B_STEP2)


def test_a_shared_generator_advances_between_builds():
    # the acceptance battery builds several spaces from one Generator; a seed
    # builds the same space as a fresh Generator of that seed
    b = RationalFn(Poly([0.3, 0.2, -0.1, 0.15]))
    shared, fresh = np.random.default_rng(5), np.random.default_rng(5)

    def mate(rng):
        return repr(HbSpace(b, rng=rng).mate.to_json())

    first, second = mate(shared), mate(shared)
    assert first == mate(fresh) == mate(5)
    assert second == mate(fresh)
    assert second != first


def test_plus_of_z_affine_half(half):
    fp = half.plus_function(Z)
    assert fp.degree == 1
    assert abs(fp.coeff(0) - 2.0) < 1e-12
    assert abs(fp.coeff(1) - 1.0) < 1e-12


def test_plus_of_constant_half(half):
    fp = half.plus_function(Poly([1]))
    assert abs(fp.coeff(0) - 1.0) < 1e-12
    assert fp.degree == 0


def test_inner_product_table_half(half):
    assert abs(half.inner_product(Poly([1]), Poly([1])) - 2.0) < 1e-12
    assert abs(half.inner_product(Z, Poly([1])) - 2.0) < 1e-12
    assert abs(half.inner_product(Z, Z) - 6.0) < 1e-12


def test_plus_of_z_for_z_over_2(affine):
    fp = affine.plus_function(Z)
    assert fp.degree == 0
    assert abs(fp.coeff(0) - 1.0 / np.sqrt(3.0)) < 1e-12


def test_monomial_norms_z_over_2(affine):
    # 1+ = 0 so |1| = 1; |z^k|^2 = 1 + 1/3 for every k >= 1
    g = affine.gram_matrix(5)
    assert abs(g[0, 0] - 1.0) < 1e-12
    for k in range(1, 5):
        assert abs(g[k, k] - 4.0 / 3.0) < 1e-12


def test_monomial_norms_half(half):
    g = half.gram_matrix(8)
    for m in range(8):
        assert abs(g[m, m] - (4 * m + 2)) < 1e-10


def test_gram_hermitian_psd(half):
    g = half.gram_matrix(10)
    assert np.max(np.abs(g - g.conj().T)) < 1e-12
    assert np.min(np.linalg.eigvalsh(g)) >= 1.0 - 1e-10


def test_gram_entries_match_inner_product(step2):
    g = step2.gram_matrix(6)
    for j in range(6):
        for k in range(6):
            ip = step2.inner_product(Poly([0] * k + [1]), Poly([0] * j + [1]))
            assert abs(g[j, k] - ip) < 1e-11


def test_plus_relation_residual(half, step2):
    for space in (half, step2):
        coeffs = RNG.standard_normal(7) + 1j * RNG.standard_normal(7)
        v = space.vector(Poly(coeffs))
        assert space.plus_residual(v) < 1e-12 * max(1.0, v.f.scale())


def test_kernel_at_origin_half(half):
    k0 = half.kernel_derivative(0.0, 0)
    # (3 - z)/4
    assert abs(k0(0) - 0.75) < 1e-12
    assert abs(k0(0.5) - (3 - 0.5) / 4) < 1e-12
    assert abs(half.kernel(0.0, 0.3j) - (3 - 0.3j) / 4) < 1e-12


def test_kernel_checks_its_point_like_kernel_derivative(half):
    with pytest.raises(InputFormatError):
        half.kernel(1.5, 0.5)  # outside the closed disk
    with pytest.raises(OrderTooHighError):
        half.kernel(-1.0, 0.5)  # on the circle, but not a mate zero
    assert half.kernel(0.3j, 0.5) == half.kernel_derivative(0.3j, 0)(0.5)
    assert abs(half.kernel(0.0, 0.5) - 0.625) < 1e-15


def test_kernel_hermitian_symmetry(step2):
    pts = [0.3 + 0.1j, -0.5j, 0.7, 0.2 - 0.6j]
    for lam in pts:
        for z in pts:
            assert abs(step2.kernel(lam, z) - np.conj(step2.kernel(z, lam))) < 1e-12


def test_kernel_matrix_psd(step2):
    pts = 0.85 * np.exp(2j * np.pi * RNG.random(6)) * RNG.random(6)
    m = np.array([[step2.kernel(q, p) for q in pts] for p in pts])
    assert np.min(np.linalg.eigvalsh((m + m.conj().T) / 2)) > -1e-10


def test_reproducing_property_exact(half, step2):
    f = Poly(RNG.standard_normal(9) + 1j * RNG.standard_normal(9))
    vf_half = half.vector(f)
    vf_step = step2.vector(f)
    for lam in (0.8, -0.8j, 0.6 + 0.5j, 0.95):
        kv = half.kernel_vector(lam, degree=64)
        assert abs(half.pair(vf_half, kv) - f(lam)) < 1e-10
        kv2 = step2.kernel_vector(lam, degree=64)
        assert abs(step2.pair(vf_step, kv2) - f(lam)) < 1e-10


def test_kernel_vector_self_pairing(step2):
    # <K_mu, K_lam> = K_mu(lam) needs both tails; keep radii moderate
    for lam, mu in [(0.4, -0.3j), (0.5 + 0.2j, 0.55)]:
        kl = step2.kernel_vector(lam, degree=128)
        km = step2.kernel_vector(mu, degree=128)
        assert abs(step2.pair(km, kl) - step2.kernel(mu, lam)) < 1e-10


def test_derivative_kernel_interior(half):
    f = Poly(RNG.standard_normal(7) + 1j * RNG.standard_normal(7))
    vf = half.vector(f)
    w = 0.3 + 0.2j
    for i in range(3):
        u = half.derivative_kernel_vector(w, i, degree=64)
        want = f.derivative(i)(w) if i else f(w)
        assert abs(half.pair(vf, u) - want) < 1e-10


def test_boundary_kernel_half_is_constant(half):
    k1 = half.kernel_derivative(1.0, 0)
    assert k1.is_polynomial
    assert abs(k1(0.3) - 0.5) < 1e-12
    assert abs(k1(-0.9) - 0.5) < 1e-12


def test_boundary_kernel_norm_step2(step2):
    u = step2.derivative_kernel_vector(1.0, 0, degree=96)
    val = step2.pair(u, u)
    want = step2.kernel_derivative(1.0, 0)(1.0)
    assert abs(want - 3.0) < 1e-10
    assert abs(val - want) < 1e-9


def test_boundary_derivative_pairing_step2(step2):
    f = Poly(RNG.standard_normal(6) + 1j * RNG.standard_normal(6))
    vf = step2.vector(f)
    u0 = step2.derivative_kernel_vector(1.0, 0, degree=96)
    u1 = step2.derivative_kernel_vector(1.0, 1, degree=96)
    assert abs(step2.pair(vf, u0) - f(1.0)) < 1e-10
    assert abs(step2.pair(vf, u1) - f.derivative()(1.0)) < 1e-10


def test_boundary_derivative_kernel_form_step2(step2):
    # multiplicity 2 at 1: u_1^1 = 3 z / q in unnormalized coordinates
    u1 = step2.kernel_derivative(1.0, 1)
    zs = 0.7 * np.exp(2j * np.pi * np.arange(5) / 5)
    q = Poly([3, -3, 1])
    assert np.max(np.abs(u1(zs) - 3 * zs / q(zs))) < 1e-10


def test_order_too_high(half, step2):
    with pytest.raises(OrderTooHighError):
        half.kernel_derivative(1.0, 1)
    with pytest.raises(OrderTooHighError):
        step2.kernel_derivative(1.0, 2)
    with pytest.raises(OrderTooHighError):
        half.kernel_derivative(-1.0, 0)  # not a boundary zero


def test_norm_identities_polynomial(half):
    rep = half.norm_identities_check()
    assert rep["ok"]
    assert abs(rep["norm_b_sq"]["closed"] - 3.0) < 1e-12
    assert abs(rep["norm_Lb_sq"]["closed"] - 0.5) < 1e-12
    assert rep["norm_b_sq"]["diff"] < 1e-12
    # the closed-form route keeps every coefficient of a polynomial b
    assert rep["truncation"] == {"mode": "taylor", "degree": D_TRUNC, "tail_bound": 0.0}


def test_norm_identities_rational():
    space = HbSpace(B_STEP1)
    rep = space.norm_identities_check()
    assert rep["ok"]
    assert abs(rep["norm_b_sq"]["closed"] - 1.0) < 1e-12
    assert rep["truncation"]["mode"] == "taylor"
    assert rep["norm_b_sq"]["diff"] < 1e-10


def test_vector_b_closed_form(half):
    vb = half.vector_b(degree=16)
    # b+ = 1/a(0) - a = 2 - (1 - z)/2 = (3 + z)/2
    assert abs(vb.f_plus.coeff(0) - 1.5) < 1e-12
    assert abs(vb.f_plus.coeff(1) - 0.5) < 1e-12
    assert abs(half.pair(vb, vb) - 3.0) < 1e-12


def test_truncated_vector_matches_closed_form(step2):
    lam = 0.45 - 0.2j
    kv = step2.kernel_vector(lam, degree=96)
    tv = step2.truncated_vector(step2.kernel_derivative(lam, 0), degree=96)
    f = Poly(RNG.standard_normal(5))
    vf = step2.vector(f)
    assert abs(step2.pair(vf, kv) - step2.pair(vf, tv)) < 1e-9
    assert tv.tail_f < 1e-12


def test_vector_rejects_a_non_polynomial_rational(half):
    with pytest.raises(InputFormatError, match="truncated_vector"):
        half.inner_product(RationalFn(Poly([1]), Poly([1, -0.5])), Poly([1]))


@pytest.mark.parametrize("n", [0, -1])
def test_gram_matrix_rejects_sizes_below_one(half, n):
    with pytest.raises(InputFormatError, match="gram size must be at least 1"):
        half.gram_matrix(n)


def test_shift_keeps_the_plus_relation(half):
    v = half.vector(Poly([1, 2, 3]))
    sv = half.shift(v)
    assert sv.f == Poly([0, 1, 2, 3])
    assert half.plus_residual(sv) < 1e-12


def test_degree_for_tail(monkeypatch):
    (m, rho), = _decay_profile([Poly([1])], Poly([1, -0.5]), 2.0)  # 1/(1 - z/2), pole at 2
    d = _degree_for_tail(m, rho, 1e-12)
    tail = 0.5 ** (d + 1) / 0.5
    assert tail < 1e-9  # bound is conservative, not tight
    # a polynomial computes no profile and has no tail; the norm check keeps
    # every coefficient of polynomial b: max(D_TRUNC, deg b.num, deg a.num)
    assert _decay_profile([Poly([1, 1])], Poly([1]), math.inf) == [(math.inf, math.inf)]
    assert _tail_bound(math.inf, math.inf, 0) == 0.0
    monkeypatch.setattr(space_module, "D_TRUNC", 0)
    assert HbSpace(B_HALF).norm_identities_check()["truncation"]["degree"] == 1


@pytest.mark.parametrize("pole", [0.5, 1.0])
def test_tail_rejects_pole_in_closed_disk(half, pole):
    # a pole at 1/2 made the geometric bound negative; one at 1 divided by zero
    g = RationalFn(Poly([1]), Poly([1, -1.0 / pole]))
    with pytest.raises(PoleInDiskError):
        half.truncated_vector(g, 16)


@pytest.mark.parametrize("d0", [49, 3 + 1j, 98])
def test_truncated_vector_tail_profiles_its_own_coefficients(half, d0):
    # RationalFn left den(0) one rounding off 1; the bound reads f's num and
    # den as they are, with no second normalisation
    f = RationalFn(Poly([1, 2]), Poly([d0, -3]))
    assert f.den.coeff(0) != 1
    rho = factorization._analytic_lowest_terms(f)[1] ** 0.75
    zs = rho * factorization.circle_grid()[::4]
    m = 2.0 * float(np.max(np.abs(f.num(zs) / f.den(zs))))
    v = half.truncated_vector(f, 12)
    assert (v.tail_f, v.tail_plus) == (m * rho**-13 / (1.0 - 1.0 / rho), 0.0)


def test_zero_symbol_space():
    space = HbSpace(RationalFn(Poly([]), Poly([1])))
    assert space.norm_b_sq == 0.0
    f = Poly([1, 2, 3])
    # H(0) = H^2: plus companion vanishes
    assert space.plus_function(f).is_zero
    assert abs(space.inner_product(f, f) - 14.0) < 1e-12
    assert abs(space.kernel(0.5, 0.5) - 1.0 / (1 - 0.25)) < 1e-12


# -- the phi = b/a route for companions and Gram matrices ---------------------

# the orbit route's distances ((z-1)^2, z-1) and (z-1, 1), the criterion-09
# pairs, as computed by Toeplitz back-substitution against the Taylor data of a, b
SEED_DISTANCES = {
    "half": (0.0877058019307024, 1.0),
    "model2": (0.408248290463863, 0.5773502691896254),
    "complex": (0.001654173408516326, 0.0926164676348001),
}


@pytest.fixture(scope="module", params=["half", "model2", "complex"])
def phi_case(request):
    b = {"half": B_HALF, "model2": build_model(2).b, "complex": B_COMPLEX}[request.param]
    return request.param, HbSpace(b)


def test_gram_displacement_is_rank_one(phi_case):
    _, space = phi_case
    n = 48
    g = space.gram_matrix(n + 1)
    lb = space.vector_Lb()
    c = np.array([space.pair(space.vector(Poly([0] * k + [1])), lb) for k in range(n)])
    # entry (j, k): (1 + |b|_b^2) <z^k, Lb>_b <Lb, z^j>_b
    want = (1.0 + space.norm_b_sq) * np.outer(np.conj(c), c)
    got = g[1:, 1:] - g[:-1, :-1]
    assert np.max(np.abs(got - want)) < 1e-12 * np.max(np.abs(g))


def test_w_pairs_to_phi(phi_case):
    _, space = phi_case
    n = 48
    # the defect direction w = Lb / a(0)
    lb = space.vector_Lb()
    got = np.array([space.pair(lb, space.vector(Poly([0] * j + [1]))) for j in range(n)])
    got /= space.a(0).real
    phi = space.phi_coeffs(n)
    assert not phi.flags.writeable
    assert np.max(np.abs(got - phi[1:])) < 1e-12 * max(1.0, np.max(np.abs(phi)))


def test_plus_residual_of_monomials(phi_case):
    _, space = phi_case
    for k in range(65):
        v = space.vector(Poly([0] * k + [1]))
        assert space.plus_residual(v) < 1e-12 * max(1.0, v.f_plus.scale())


def test_gram_exactly_hermitian(phi_case):
    _, space = phi_case
    for n in (1, 17, 130):
        g = space.gram_matrix(n)
        assert np.array_equal(g, g.conj().T)


def test_gram_matches_fancy_index_build(phi_case):
    # the Toeplitz factor as first built, by fancy indexing on the lag k - j,
    # in the arithmetic _real_if_exact picks for the phi window
    _, space = phi_case
    for n in (1, 17, 256):
        c = _real_if_exact(np.conj(space.phi_coeffs(n - 1)))
        offset = np.arange(n)[None, :] - np.arange(n)[:, None]
        c = np.where(offset >= 0, c[np.maximum(offset, 0)], 0)
        h = c.conj().T @ c
        want = np.eye(n, dtype=c.dtype) + 0.5 * (h + h.conj().T)
        assert np.array_equal(space.gram_matrix(n), want)


def test_criterion_09_distances_unchanged(phi_case):
    name, space = phi_case
    zm1 = Poly([-1, 1])
    d_equal = orbit_distance(space, zm1 * zm1, zm1)
    d_apart = orbit_distance(space, zm1, Poly([1]))
    want_equal, want_apart = SEED_DISTANCES[name]
    assert abs(d_equal - want_equal) < 1e-10
    assert abs(d_apart - want_apart) < 1e-10


def test_kernel_rejects_bad_order_and_point(half):
    for order, point in ((-1, 0.0), (0, 1.5), (0, math.nan), (1, complex(math.nan, 0))):
        with pytest.raises(InputFormatError):
            half.kernel_derivative(point, order)
        with pytest.raises(InputFormatError):
            half.derivative_kernel_vector(point, order)


@pytest.mark.parametrize("build", [
    lambda space: space.kernel_vector(0.3, degree=-3),
    lambda space: space.kernel_vector(0.3, degree=2.5),
    lambda space: space.derivative_kernel_vector(1.0, 0, degree=True),
    lambda space: space.vector_b(-2),
    lambda space: space.truncated_vector(RationalFn(Poly([1]), Poly([1, -0.5])), degree=-1),
], ids=["kernel_negative", "kernel_fractional", "kernel_bool", "b_negative",
        "truncated_negative"])
def test_a_bad_truncation_degree_is_an_input_error(build, monkeypatch):
    space = HbSpace(RationalFn(Poly([0, 1]), Poly([2, -1])))  # z / (2 - z)

    def no_read(*args):
        raise AssertionError("a coefficient was read before the degree was checked")

    monkeypatch.setattr(RationalFn, "taylor", no_read)
    monkeypatch.setattr(RationalFn, "taylor_poly", no_read)
    with pytest.raises(InputFormatError, match="truncation degree"):
        build(space)


def test_boundary_derivative_pairing_tower_3():
    # b^(j)(1) through repeated quotient-rule derivatives left a cancellation
    # remainder of 1.2e-6 at i = 2 for this tower
    b = RationalFn(Poly([]), Poly([1]))
    for _ in range(3):
        b = extend(b, omega=0.5, t=2.0).b
    space = HbSpace(b)
    f = np.array([0.3, -0.2 + 0.1j, 0.5, 0.1j, -0.4])
    vf = space.vector(Poly(f))
    for i in range(3):
        want = np.polyval(np.polyder(f[::-1], i), 1.0)
        got = space.pair(vf, space.derivative_kernel_vector(1.0, i, degree=96))
        assert abs(got - want) <= 1e-9 * max(1.0, abs(want))


# -- the decay radius of b, found once ------------------------------------------

INTERIOR_POINTS = (0.3, 0.9j, -0.95)


# normalized by 1/49, so q(0) = 49 * (1/49) is 1 only up to rounding
B_DEN49 = RationalFn(Poly([1, 2]), Poly([49, -3]))


def _radius_symbol(name: str) -> RationalFn:
    return {"step2": B_STEP2, "model3": build_model(3).b, "complex": B_COMPLEX, "den49": B_DEN49}[name]


@pytest.fixture(scope="module", params=["step2", "model3", "complex"])
def radius_case(request):
    return _radius_symbol(request.param)


def _patch_roots(monkeypatch, fn):
    monkeypatch.setattr(polynomials, "poly_roots", fn)
    monkeypatch.setattr(factorization, "poly_roots", fn)


def test_members_need_no_root_finding(radius_case, monkeypatch):
    real = polynomials.poly_roots
    calls = []

    def counting(*args, **kwargs):
        calls.append(args[0])
        return real(*args, **kwargs)

    def refuse(*args, **kwargs):
        raise AssertionError("poly_roots called after construction")

    _patch_roots(monkeypatch, counting)
    space = HbSpace(radius_case)
    assert len(calls) == 1  # the Laurent density; b.den's poles are companion eigenvalues
    _patch_roots(monkeypatch, refuse)
    assert space.norm_identities_check()["ok"]
    space.vector_b()
    space.vector_Lb()
    for lam in (0.0,) + INTERIOR_POINTS:
        space.kernel_vector(lam)
    for lam, m in space.boundary_zeros:
        assert abs(lam - 1.0) < 1e-12
        for i in range(min(m, 3)):
            space.derivative_kernel_vector(1.0, i)
    assert rank_one_identity_check(space, Poly([1, 2, 3]), Poly([0, 1j, 1]))["relative"] < 1e-9


def _old_route_tail(num: Poly, den: Poly, degree: int) -> float:
    """The tail bound of num/den from a fresh root finding on den."""
    (m, rho), = _decay_profile([num], den, float(np.min(np.abs(RationalFn(num, den).poles()))))
    return m * rho ** (-(degree + 1)) / (1.0 - 1.0 / rho)


def _recorded_tails(monkeypatch, build) -> list[tuple[Poly, Poly, int, float]]:
    """Every (num, den, degree, tail bound) that build() asks _tail_bound for:
    the numerators _decay_profile reads over den, in order, one per bound."""
    real_profile, real_bound = space_module._decay_profile, space_module._tail_bound
    members, seen = [], []

    def profile(nums, den, radius, values=None):
        members.extend((num, den) for num in nums)
        return real_profile(nums, den, radius, values)

    def bound(m, rho, degree):
        out = real_bound(m, rho, degree)
        seen.append((*members[len(seen)], degree, out))
        return out

    with monkeypatch.context() as mp:
        mp.setattr(space_module, "_decay_profile", profile)
        mp.setattr(space_module, "_tail_bound", bound)
        build()
    assert len(members) == len(seen)
    return seen


def _read_tails(*vectors):
    """The vectors, each with tail_f, then tail_plus, read: members bound them on first read."""
    for v in vectors:
        v.tail_f, v.tail_plus
    return vectors


def test_carried_radius_tail_bounds(radius_case, monkeypatch):
    space = HbSpace(radius_case)
    exact = _recorded_tails(monkeypatch, lambda: _read_tails(space.vector_b(), space.vector_Lb()))
    for lam, m in space.boundary_zeros:
        for i in range(min(m, 3)):
            exact += _recorded_tails(
                monkeypatch, lambda: _read_tails(space.derivative_kernel_vector(lam, i))
            )
    interior = []
    for w in INTERIOR_POINTS:
        for i in range(3):
            interior += _recorded_tails(
                monkeypatch, lambda: _read_tails(space.derivative_kernel_vector(w, i))
            )
    assert len(exact) >= 4 and len(interior) == 18
    for num, den, degree, bound in exact:  # b, b+, Lb, La and boundary kernels: same q
        assert bound == _old_route_tail(num, den, degree)
    for num, den, degree, bound in interior:
        # the old route roots (1 - conj(w) z)^(i+1) as a splattered cluster
        ref = _old_route_tail(num, den, degree)
        assert abs(bound - ref) <= 0.01 * ref
    for num, den, degree, bound in exact + interior:
        assert bound >= np.sum(np.abs(RationalFn(num, den).taylor(2000)[degree + 1 :]))


def _eager_tails(space, num: Poly, plus_num: Poly, degree: int, points=()) -> tuple:
    """The tail bounds a member over ``_member_den(points)`` stored when it was built:
    each of num/den and plus_num/den as a RationalFn, profiled over its own den."""
    radius = min([space.pole_radius] + [1.0 / abs(x) for x in points if x != 0])
    den = space._member_den(points)
    return tuple(_tail_bound(*_decay_profile([g.num], g.den, radius)[0], degree)
                 for g in (RationalFn(num, den), RationalFn(plus_num, den)))


@pytest.mark.parametrize("name", ["step2", "model3", "complex", "den49"])
def test_member_tails_are_bounded_on_first_read(name, monkeypatch):
    space = HbSpace(_radius_symbol(name))
    q = space.b.den
    lb_nums = (space_module._backward(space.b.num - space.b(0) * q),
               -space_module._backward(space.a.num - space.a(0) * q))
    cases = [(space.vector_Lb, lb_nums, ())]
    for w, i in [(0.0, 0), (0.3, 0), (0.9j, 2)] + [(lam, 0) for lam, _ in space.boundary_zeros]:
        num, plus_num, rest = space._kernel_numerators(w, i)
        build = (lambda w=w: space.kernel_vector(w)) if i == 0 else (
            lambda w=w, i=i: space.derivative_kernel_vector(w, i))
        cases.append((build, (num, plus_num), rest))
    for build, nums, points in cases:
        built = []
        assert _recorded_tails(monkeypatch, lambda: built.append(build())) == []
        v = built[0]
        read = _recorded_tails(monkeypatch, lambda: _read_tails(v))
        assert [bound for *_, bound in read] == [v.tail_f, v.tail_plus]
        assert (v.tail_f, v.tail_plus) == _eager_tails(space, *nums, D_TRUNC, points)


@pytest.mark.parametrize("name", ["step2", "model3", "complex", "den49"])
def test_norm_check_evaluates_each_polynomial_once_on_the_decay_circle(name, monkeypatch):
    # the degree profiles of b and a and the tails of b and Lb all sit at the
    # pole radius: q is evaluated once for the four of them, and so is every
    # numerator, b.num for two; the report is the one fresh passes give
    space = HbSpace(_radius_symbol(name))
    real, passes = Poly.__call__, []

    def counting(self, z):
        if isinstance(z, np.ndarray) and len(z) == 256:
            passes.append(self.coeffs)
        return real(self, z)

    with monkeypatch.context() as mp:
        mp.setattr(Poly, "__call__", counting)
        report = space.norm_identities_check()
    q, a = space.b.den, space.a
    assert passes.count(q.coeffs) == 1
    assert len(passes) == len(set(passes))
    # den49: a.den = q / q(0) is not q, and a's profile makes its own pass
    assert len(passes) == (6 if a.den == q else 8)
    r = space.pole_radius
    degree = max(D_TRUNC, *(_degree_for_tail(*_decay_profile([g.num], g.den, r)[0], 1e-16)
                            for g in (space.b, a)))
    lb_nums = (space_module._backward(space.b.num - space.b(0) * q),
               -space_module._backward(a.num - a(0) * q))
    tails = (_eager_tails(space, space.b.num, q * (1.0 / space._a0) - a.num, degree)
             + _eager_tails(space, *lb_nums, degree))
    assert report["truncation"]["degree"] == degree
    assert repr(report["truncation"]["tail_bound"]) == repr(max(tails))


# -- members from the cached series of 1/q ---------------------------------------

U = np.finfo(float).eps / 2  # unit roundoff


def _abs_conv(*arrays, n):
    out = np.ones(1)
    for a in arrays:
        out = np.convolve(out, np.abs(a))[:n]
    return out


def _series_route_bound(space, g: RationalFn, extra: Poly, degree: int) -> np.ndarray:
    """First-order rounding bound on |series route - Taylor loop| per coefficient.

    g = num / (q d) with d = extra.  The loop's computed coefficients are
    exact for num - r with |r| <= gamma (|num| + |g.den| * |out|), so its
    error is at most gamma |1/(q d)| * that.  The series route has
    rounding gamma |num| * |1/q| * |1/d| in each of its two products,
    plus the loop error of 1/q, gamma |1/q| * (delta + |q| * |1/q|),
    carried through num and 1/d; hence 3 delta.  gamma = L u with L
    bounding every inner product length, and a factor 4 for complex
    arithmetic.
    """
    n = degree + 1
    num, q = g.num.coeff_array(max(len(g.num.coeffs), 1)), space.b.den.coeff_array()
    ref = g.taylor(degree)
    s = RationalFn(1.0, g.den).taylor(degree)
    sq = RationalFn(1.0, space.b.den).taylor(degree)
    e = RationalFn(1.0, extra).taylor(degree)
    delta = np.zeros(n)
    delta[0] = 3.0
    loop = _abs_conv(s, num, n=n) + _abs_conv(s, g.den.coeff_array(), ref, n=n)
    series = _abs_conv(num, e, sq, delta + _abs_conv(q, sq, n=n), n=n)
    gamma = 4.0 * (n + len(num) + len(g.den.coeffs)) * U
    return gamma * (loop + series)


SERIES_POINTS = (0.0, 0.5, 0.95j)


@pytest.fixture(scope="module", params=["half", "model2", "complex", "tower3", "den49"])
def series_case(request):
    b = {
        "half": B_HALF,
        "model2": build_model(2).b,
        "complex": B_COMPLEX,
        "tower3": build_model(3, omega=0.5, t=2.0).b,
        "den49": B_DEN49,
    }[request.param]
    return HbSpace(b)


def _members(space):
    """(name, build, d) for the members the series route builds over q d."""
    one = Poly([1])
    out = [("b", space.vector_b, one), ("Lb", space.vector_Lb, one)]
    for w in SERIES_POINTS:
        out.append((f"K_{w}", lambda w=w: space.kernel_vector(w), Poly([1, -np.conj(w)])))
    for w in SERIES_POINTS[1:]:
        for i in (1, 2):
            out.append((
                f"u_{w}^{i}",
                lambda w=w, i=i: space.derivative_kernel_vector(w, i),
                Poly([1, -np.conj(w)]) ** (i + 1),
            ))
    for lam, m in space.boundary_zeros:
        for i in range(m):
            out.append((f"u_{lam}^{i}", lambda lam=lam, i=i: space.derivative_kernel_vector(lam, i), one))
    return out


def test_series_route_matches_taylor_loop(series_case, monkeypatch):
    space = series_case
    for name, build, extra in _members(space):
        built = []
        recorded = _recorded_tails(monkeypatch, lambda: built.extend(_read_tails(build())))
        (degree,) = {degree for *_, degree, _ in recorded}
        for (num, den, *_), got in zip(recorded, (built[0].f, built[0].f_plus)):
            member = RationalFn(num, den)
            want = member.taylor(degree)
            bound = _series_route_bound(space, member, extra, degree) + U * np.abs(want)
            err = np.abs(got.coeff_array(degree + 1) - want)
            assert np.all(err <= bound), (name, float(np.max(err / bound)))


def test_members_share_one_taylor_loop(radius_case, monkeypatch):
    space = HbSpace(radius_case)
    space.phi_coeffs(D_TRUNC)
    real = RationalFn.taylor
    calls = []

    def counting(self, n):
        calls.append(n)
        return real(self, n)

    monkeypatch.setattr(RationalFn, "taylor", counting)
    space.vector_b()
    space.vector_Lb()
    space.kernel_vector(0.3)
    space.kernel_vector(0.9j)
    assert len(calls) <= 1  # the series of 1/q, once


def test_phi_keeps_the_taylor_loop_bits(series_case):
    space = series_case
    phi = RationalFn(space.b.num, space.a.num)
    for n in (3, 64, 300, 40):
        assert np.array_equal(space.phi_coeffs(n), phi.taylor(n))


# -- members read on demand ------------------------------------------------------


def _bits(x: complex) -> str:
    return repr(complex(x))  # repr keeps the sign of a zero


def test_members_pair_alike_read_on_demand_or_whole(series_case):
    # pair reads a member only as far as the overlap and computes that head
    # afresh: every value has the same bits whether the member is fresh, was
    # expanded whole first, or was paired with longer and shorter vectors first
    _pair_alike_whatever_was_read(series_case)


def test_short_members_pair_over_their_trimmed_length():
    # over a constant q, b, Lb and K_0 end after 3-5 coefficients, inside the
    # overlap with a degree-8 vector; the zeros past their end enter the dot,
    # and the value keeps its bits whatever was read of the member before
    _pair_alike_whatever_was_read(HbSpace(RationalFn(Poly([1, 1, 1, 1, 1]) * (1 / 6))))


def _pair_alike_whatever_was_read(space):
    rng = np.random.default_rng(7)

    def vector(degree):
        return space.vector(Poly(rng.standard_normal(degree + 1) + 1j * rng.standard_normal(degree + 1)))

    for degree in range(9):
        p, longer, shorter = vector(degree), vector(degree + 5), vector(max(degree - 3, 0))
        for name, build, _ in _members(space):
            whole = build()
            whole.f, whole.f_plus  # expanded before any pairing
            paired = build()
            for q in (longer, shorter):
                space.pair(q, paired), space.pair(paired, q)
            for pairing in (lambda v: space.pair(p, v), lambda v: space.pair(v, p)):
                on_demand = build()
                want = _bits(pairing(on_demand))
                assert _bits(pairing(whole)) == want, (name, degree)
                assert _bits(pairing(paired)) == want, (name, degree)
                # expanded after a pairing read its head: the same polynomials
                assert repr((on_demand.f.coeffs, on_demand.f_plus.coeffs)) == repr(
                    (whole.f.coeffs, whole.f_plus.coeffs)), name


def test_heads_have_the_whole_expansion_bits_when_the_numerator_is_shorter(series_case):
    # every member's numerator is shorter than its 65 coefficients, so the
    # series leads each product, a short read and the whole expansion alike
    for name, build, _ in _members(series_case):
        v = build()
        for part, whole in ((v._f, v.f), (v._f_plus, v.f_plus)):
            for n in (1, 4, 9, 30):
                assert space_module._head(part, n).tobytes() == whole.coeff_array(n).tobytes(), (name, n)


def test_pair_reads_one_series_head_per_member(series_case, monkeypatch):
    # a member's f and f+ are read at one size: one 1/den head serves both,
    # and a member paired with itself is read once
    space = series_case
    real, reads = HbSpace._inv_q_coeffs, []
    monkeypatch.setattr(HbSpace, "_inv_q_coeffs", lambda self, n: reads.append(n) or real(self, n))
    members = [build() for _, build, _ in _members(space)]
    for u in members:
        for v in members:
            reads.clear()
            space.pair(u, v)
            assert len(reads) == (1 if u is v else 2)


def test_pairing_a_long_kernel_expands_only_the_overlap():
    space = HbSpace(build_model(3, omega=0.5, t=2.0).b)
    vf = space.vector(Poly([1, -2, 0.5j, 3, 0, 1, 0.25]))
    for i in range(3):
        space.pair(vf, space.derivative_kernel_vector(1.0, i, degree=96))
    assert 0 < len(space._inv_q) < 96


def test_phi_grows_by_resuming_the_recurrence(series_case, monkeypatch):
    # each growth of phi and of 1/q runs the recurrence again from the start:
    # one taylor call to degree max(n, 2 len + 8), whose bits the cache holds
    space = HbSpace(series_case.b)
    caches = (("_phi", space.phi_coeffs, space.b.num, space.a.num),
              ("_inv_q", space._inv_q_coeffs, Poly([1]), space.b.den))
    real = RationalFn.taylor
    calls = []

    def counting(self, n):
        calls.append(n)
        return real(self, n)

    for n in (8, 26, 62):
        for attr, read, num, den in caches:
            grown_to = max(n, 2 * len(getattr(space, attr)) + 8)
            calls.clear()
            with monkeypatch.context() as m:
                m.setattr(RationalFn, "taylor", counting)
                read(n)
            assert calls == [grown_to], attr
            cache = getattr(space, attr)
            assert cache.tobytes() == RationalFn(num, den).taylor(len(cache) - 1).tobytes(), attr


def test_boundary_derivative_kernels_sweep_once(series_case, monkeypatch):
    space = HbSpace(series_case.b)
    real = RationalFn.divided_differences
    sweeps = []

    def counting(self, points):
        sweeps.append(len(points))
        return real(self, points)

    monkeypatch.setattr(RationalFn, "divided_differences", counting)
    for lam, m in space.boundary_zeros:
        sweeps.clear()
        for i in range(m):
            space.derivative_kernel_vector(lam, i)
            space.kernel_derivative(lam, i)
        assert sweeps == [m]


def test_kernels_at_many_points_keep_one_sweep(monkeypatch):
    space = HbSpace(B_HALF)
    points = [0.9 * cmath.exp(2j * math.pi * k / 100) for k in range(100)]
    for w in points:
        space.kernel_vector(w)
    key, sweep = space._sweep
    assert key == (repr(points[-1]),) and len(sweep) == 1

    def no_sweep(self, points):
        raise AssertionError("the kept sweep was computed again")

    monkeypatch.setattr(RationalFn, "divided_differences", no_sweep)
    space.kernel_vector(points[-1])
    space.kernel_derivative(points[-1], 0)


def test_a_failed_cancellation_ends_the_sweep(monkeypatch):
    # each prefix divides its numerators once by 1 - conj(w) z, two zero-rule
    # calls; the third call, prefix 1's numerator, fails, and every later
    # prefix builds on it
    space = HbSpace(build_model(3).b)
    real = space_module._zero_order
    calls = []

    def failing_at_prefix_one(p, w, at_most=None):
        calls.append(at_most)
        return (0, p) if len(calls) == 3 else real(p, w, at_most)

    monkeypatch.setattr(space_module, "_zero_order", failing_at_prefix_one)
    space.derivative_kernel_vector(1.0, 0)
    for i in (1, 2):
        with pytest.raises(VerificationError, match="failed at prefix 1"):
            space.derivative_kernel_vector(1.0, i)
    with pytest.raises(VerificationError, match="failed at prefix 1"):
        space.kernel_derivative(1.0, 1)  # the kept sweep raises it again
    assert calls == [1, 1, 1, 1]


# -- random symbols in the ball ------------------------------------------------

_FINE = np.exp(2j * np.pi * np.arange(1 << 14) / (1 << 14))
# 1999 points off circle_grid(): (3k + 1)/5997 is never j/1024
_OFF_GRID = np.exp(2j * np.pi * (3 * np.arange(1999) + 1) / 5997)


def _ball_symbol(seed: int) -> RationalFn:
    """p/q with deg p in 1..6 over 0..deg p poles at modulus 1.25..4, scaled
    to sup |b| in [0.5, 0.95] on a fine grid; p and q are then both scaled by
    a complex constant of modulus 0.5..50, so q(0) is 1 only up to rounding
    once RationalFn normalizes it."""
    rng = np.random.default_rng(seed)
    deg = int(rng.integers(1, 7))
    num = Poly(rng.standard_normal(deg + 1) + 1j * rng.standard_normal(deg + 1))
    den = Poly([1])
    for _ in range(rng.integers(0, deg + 1)):
        pole = cmath.rect(rng.uniform(1.25, 4.0), rng.uniform(0.0, 2 * math.pi))
        den = den * Poly([1, -1 / pole])
    sup = float(np.max(np.abs(num(_FINE) / den(_FINE))))
    num = num * (rng.uniform(0.5, 0.95) / sup)
    c = cmath.rect(rng.uniform(0.5, 50.0), rng.uniform(0.0, 2 * math.pi))
    return RationalFn(num * c, den * c)


@settings(max_examples=30, deadline=None, database=None, derandomize=True)
@given(seed=st.integers(0, 2**32 - 1), angle=st.floats(0.0, 2 * math.pi))
def test_random_symbols_in_the_ball(seed, angle):
    b = _ball_symbol(seed)
    try:
        space = HbSpace(b)
    except HbError:
        return  # a typed refusal is an answer
    assert space.mate.residual <= TOL.mate
    off = np.abs(space.a(_OFF_GRID)) ** 2 + np.abs(b(_OFF_GRID)) ** 2 - 1.0
    assert np.max(np.abs(off)) <= TOL.mate
    f = Poly([1, -0.5j, 0.25, 0.125])
    lam = cmath.rect(0.6, angle)
    got = space.pair(space.vector(f), space.kernel_vector(lam))
    assert abs(got - f(lam)) <= 1e-8 * max(1.0, abs(f(lam)))
    g = space.gram_matrix(16)
    ev = np.linalg.eigvalsh(g)
    assert ev[0] >= 1.0 - 16 * np.finfo(float).eps * ev[-1]
    # the shift's rank-one defect, phi route against the closed-form Lb:
    # G[j+1, k+1] - G[j, k] = (1 + |b|_b^2) <z^k, Lb>_b <Lb, z^j>_b.  Each
    # side is a sum of at most N + 2 products of entries bounded by max |G|;
    # 4 for complex rounding, 2 for the two terms of each side and 4 for the
    # series route of Lb give 32 (N + 2) eps max |G|, N = 16.
    vl = space.vector_Lb()
    c = np.array([space.pair(space.vector(Poly([1]).shifted(k)), vl) for k in range(15)])
    want = (1.0 + space.norm_b_sq) * np.outer(np.conj(c), c)
    got = g[1:, 1:] - g[:-1, :-1]
    assert np.max(np.abs(got - want)) <= 32 * 18 * np.finfo(float).eps * np.max(np.abs(g))
