"""Polynomial and rational arithmetic, roots, serialization."""

import json
import math

import numpy as np
import pytest

from hbspace import Poly, RationalFn
from hbspace.errors import InputFormatError, PoleAtPointError, ZeroFunctionError
from hbspace.polynomials import (
    _horner_bound,
    _zero_order,
    as_rational,
    complex_from_json,
    poly_roots,
    synthetic_division,
)

EVAL_REL = 1e-10
ROOT_TOL = 1e-12
REEXPAND_REL = 1e-8

rng = np.random.default_rng(20260817)


def rand_poly(deg, scale=1.0):
    c = rng.standard_normal(deg + 1) + 1j * rng.standard_normal(deg + 1)
    return Poly(scale * c)


def test_zero_poly_degree_marker():
    assert Poly().degree == -math.inf
    assert Poly([0, 0, 0]).degree == -math.inf
    assert Poly([0, 0, 0]).is_zero


def test_trailing_coefficient_nonzero_invariant():
    p = Poly([1, 2, 0, 0])
    assert p.degree == 1
    assert p.coeffs[-1] != 0


def test_eval_known_value():
    # (3 - z)/4 at 0 equals 3/4
    p = Poly([0.75, -0.25])
    assert p(0.0) == pytest.approx(0.75)
    assert p(1.0) == pytest.approx(0.5)


def test_eval_array_matches_scalar():
    p = rand_poly(7)
    zs = rng.standard_normal(11) + 1j * rng.standard_normal(11)
    vec = p(zs)
    for z, v in zip(zs, vec):
        assert v == pytest.approx(p(complex(z)), rel=1e-13)


@pytest.mark.parametrize("dp,dq", [(0, 3), (4, 4), (16, 9), (12, 16)])
def test_product_evaluates_pointwise(dp, dq):
    p, q = rand_poly(dp), rand_poly(dq)
    zs = rng.standard_normal(100) + 1j * rng.standard_normal(100)
    lhs = (p * q)(zs)
    rhs = p(zs) * q(zs)
    scale = np.maximum(np.abs(rhs), 1.0)
    assert np.max(np.abs(lhs - rhs) / scale) < EVAL_REL


def test_addition_and_subtraction():
    p, q = rand_poly(5), rand_poly(8)
    zs = rng.standard_normal(20) + 1j * rng.standard_normal(20)
    assert np.allclose((p + q)(zs), p(zs) + q(zs))
    assert np.allclose((p - q)(zs), p(zs) - q(zs))


def test_divmod_reconstructs():
    for _ in range(20):
        p, q = rand_poly(int(rng.integers(0, 12))), rand_poly(int(rng.integers(0, 6)))
        quot, rem = divmod(p, q)
        diff = p - (q * quot + rem)
        work = max(1.0, p.scale(), (q * quot).scale())
        assert diff.scale() <= 1e-11 * work
        assert rem.is_zero or rem.degree < q.degree


def test_synthetic_division_is_repeated_divmod():
    # bit for bit: remainder j is the value at w of the j-th quotient, and
    # each quotient is divmod by (z - w), for w on and inside the circle
    for _ in range(30):
        p = rand_poly(int(rng.integers(0, 10)))
        unit = complex(np.exp(2j * np.pi * rng.random()))
        for w in (unit, 0.95 * rng.random() * unit):
            k = int(rng.integers(0, 12))
            quot, rems = synthetic_division(p, w, k)
            assert len(rems) == min(k, p.degree)
            work = p
            for r in rems:
                assert r == work(w)
                work, rem = divmod(work, Poly([-w, 1]))
                assert rem == Poly([r])
            assert quot == work


def test_synthetic_division_remainders_are_taylor_coefficients():
    p = rand_poly(7)
    w = 0.6 - 0.3j
    quot, rems = synthetic_division(p, w, 20)
    assert quot == Poly([p.coeffs[-1]])
    for j, r in enumerate(rems):
        assert abs(r - p.derivative(j)(w) / math.factorial(j)) <= 1e-12 * max(1.0, abs(r))
    assert synthetic_division(Poly(), w, 3) == (Poly(), [])
    assert synthetic_division(Poly([2.0]), w, 3) == (Poly([2.0]), [])


def test_horner_bound_scalar_and_array_paths_agree():
    # one helper for both paths: the scalar one stays on plain floats
    for _ in range(20):
        p = rand_poly(int(rng.integers(0, 9)))
        zs = 1.5 * rng.random(5) * np.exp(2j * np.pi * rng.random(5))
        many = _horner_bound(p.coeff_array(), zs)
        for z, bound in zip(zs, many):
            one = _horner_bound(p.coeffs, complex(z))
            assert type(one) is float
            assert abs(one - bound) <= 1e-15 * bound
            assert abs(one - _horner_scale(p, z)) <= 1e-14 * one


def test_zero_order_divides_the_order_out():
    for k in range(6):
        p = Poly([2, -1j, 0.5]) * Poly([-1j, 1]) ** k
        order, quot = _zero_order(p, 1j)
        assert order == k
        assert (quot - Poly([2, -1j, 0.5])).scale() <= 1e-13
        assert _zero_order(p, 1j, at_most=2)[0] == min(k, 2)
    assert _zero_order(Poly(), 1.0) == (0, Poly())
    assert _zero_order(Poly([3.0]), 1.0) == (0, Poly([3.0]))


def test_as_poly_rejects_a_rational_with_a_typed_error():
    with pytest.raises(InputFormatError, match="constant denominator"):
        RationalFn(Poly([1]), Poly([1, -0.5])).as_poly()
    assert RationalFn(Poly([1, 2]), Poly([2])).as_poly() == Poly([0.5, 1])


def test_derivative_of_cube():
    p = Poly([-1, 3, -3, 1])  # (z - 1)^3
    expected = Poly([3, -6, 3])  # 3 (z - 1)^2
    assert np.allclose(p.derivative().coeff_array(3), expected.coeff_array(3))


def test_reflect_example():
    p = Poly([1j, 1])
    r = p.reflect(1)
    assert r.coeffs == (1 + 0j, -1j)


def test_reflect_involution_on_circle():
    p = rand_poly(6)
    d = 6
    r = p.reflect(d)
    ts = np.exp(1j * rng.uniform(0, 2 * np.pi, 32))
    lhs = r(ts)
    rhs = ts**d * np.conj(p(ts))
    assert np.max(np.abs(lhs - rhs)) < 1e-12 * max(1.0, p.scale())


def test_roots_of_unity():
    p = Poly([-1, 0, 0, 1])  # z^3 - 1
    rts = np.sort_complex(poly_roots(p))
    expected = np.sort_complex(np.exp(2j * np.pi * np.arange(3) / 3))
    assert np.max(np.abs(rts - expected)) < ROOT_TOL


@pytest.mark.parametrize("deg", [3, 5, 8, 12])
def test_roots_reexpand(deg):
    p = rand_poly(deg)
    rts = poly_roots(p)
    q = Poly.from_roots(rts, leading=p.coeffs[-1])
    assert (p - q).scale() < REEXPAND_REL * p.scale()


def test_roots_with_origin_multiplicity():
    p = Poly([0, 0, 0, 2, 1])  # z^3 (2 + z)
    rts = poly_roots(p)
    assert np.sum(np.abs(rts) < 1e-14) == 3
    assert np.min(np.abs(rts + 2.0)) < 1e-10


def test_roots_double_cluster():
    p = Poly.from_roots([1.0, 1.0, -0.5])
    rts = poly_roots(p)
    near_one = np.sort(np.abs(rts - 1.0))
    assert near_one[1] < 1e-5  # two roots in a tight cluster at 1
    assert np.min(np.abs(rts + 0.5)) < 1e-10


@pytest.mark.parametrize("lam", [1.0, np.exp(0.3j)])
@pytest.mark.parametrize("delta", [2e-6, 5e-6])
def test_roots_part_a_close_pair(lam, delta):
    # the pair meets the iteration's residual target anywhere between its
    # two roots; the polish still parts it
    pair = [lam * (1 - delta), lam * (1 + delta)]
    rts = poly_roots(Poly.from_roots(pair + [-5.8 * lam, -0.17 * lam]))
    for r in pair:
        assert np.min(np.abs(rts - r)) < 1e-8


def test_zero_poly_roots_raise():
    with pytest.raises(ZeroFunctionError):
        poly_roots(Poly())


def test_poly_json_roundtrip():
    p = rand_poly(9)
    blob = json.dumps(p.to_json())
    q = Poly.from_json(json.loads(blob))
    assert max(abs(a - b) for a, b in zip(p.coeffs, q.coeffs)) <= 1e-15 * p.scale()
    assert p.degree == q.degree


def test_rational_normalization_den_at_zero_is_one():
    f = RationalFn(Poly([0, 1]), Poly([2, -1]))  # z / (2 - z)
    assert f.den.coeff(0) == pytest.approx(1.0)
    assert f(0.5) == pytest.approx(0.5 / 1.5)


def test_rational_pole_guard():
    f = RationalFn(Poly([1]), Poly([1, -1]))  # 1 / (1 - z)
    with pytest.raises(PoleAtPointError):
        f(1.0)


def _horner_scale(p, z):
    return sum(abs(c) * abs(z) ** k for k, c in enumerate(p.coeffs))


def test_scalar_and_array_evaluation_agree():
    # numpy's complex loops round differently from Python complex
    # arithmetic, so the values agree to the Horner rounding model only.
    f = RationalFn(Poly([0.3, 1, -0.5j]), Poly.from_roots([2.0, 1.2 + 0.9j, -1.1j]))
    d = int(f.degree)
    eps = np.finfo(float).eps
    zs = 0.95 * np.sqrt(rng.uniform(size=200)) * np.exp(2j * np.pi * rng.uniform(size=200))
    for z, v in zip(zs, f(zs)):
        scalar = f(complex(z))
        model = (_horner_scale(f.num, z) + abs(v) * _horner_scale(f.den, z)) / abs(f.den(z))
        assert abs(scalar - v) <= 16 * (d + 1) * eps * model


def test_scalar_and_array_pole_guard_agree():
    root = 2.0
    f = RationalFn(Poly([1, 0.5]), Poly.from_roots([root, 1.2 + 0.9j]))

    def raises(z):
        try:
            f(z)
        except PoleAtPointError:
            return True
        return False

    decisions = []
    for offset in [0.0] + [10.0**-k for k in range(8, 17)]:
        for z in (root + offset, root + 1j * offset):
            scalar = raises(z)
            assert scalar == raises(np.array([z]))
            decisions.append(scalar)
    assert raises(root) and raises(root + 1e-15)
    assert not raises(root + 1e-9)
    assert any(decisions) and not all(decisions)


@pytest.mark.parametrize("entry", [[math.nan, 0], [1, math.inf], [-math.inf, 0], ["x", 0]])
def test_poly_json_rejects_bad_entries(entry):
    with pytest.raises(InputFormatError):
        Poly.from_json({"coeffs": [[1, 0], entry]})


@pytest.mark.parametrize("value", [math.nan, math.inf, [0, math.nan], [math.inf, 1], "1", [1],
                                   True, [True, 0], ["0.5", 0],
                                   pytest.param(10**400, id="int-past-float-range")])
def test_complex_from_json_rejects_bad_values(value):
    with pytest.raises(InputFormatError):
        complex_from_json(value)


def test_poly_json_reads_every_entry_spelling():
    # one grammar: numbers or [re, im] pairs, bare or under "coeffs"
    want = Poly([0.5, 0.5j])
    for blob in ([0.5, [0, 0.5]], {"coeffs": [0.5, [0, 0.5]]}, {"coeffs": [[0.5, 0], [0, 0.5]]}):
        assert Poly.from_json(blob) == want
    assert Poly.from_json({"coeffs": [0.5, 0.5]}) == Poly([0.5, 0.5])


@pytest.mark.parametrize("blob", [{"coeffs": 5}, {"coeffs": "ab"}, 0.5, {"num": [1]}])
def test_poly_json_needs_a_coefficient_list(blob):
    with pytest.raises(InputFormatError):
        Poly.from_json(blob)


def test_rational_is_unhashable():
    # == compares cross products, so a quotient equals its own reduced form;
    # a hash of the stored coefficients would tell them apart, so there is none
    f = RationalFn(Poly([0, 1, -0.5]), Poly([1, -0.5]))  # z (1 - z/2)/(1 - z/2)
    g = RationalFn(Poly([0, 1]))
    assert f == g
    with pytest.raises(TypeError):
        hash(f)


def test_rational_derivative():
    f = RationalFn(Poly([0, 1]), Poly([1, -0.5]))  # z/(1 - z/2)
    # quotient rule by hand: (1*(1-z/2) + z/2) / (1-z/2)^2 = 1/(1-z/2)^2
    z = 0.3 + 0.1j
    assert f.derivative()(z) == pytest.approx(1.0 / (1 - z / 2) ** 2, rel=1e-12)


def test_taylor_coefficients_geometric():
    f = RationalFn(Poly([1]), Poly([1, -0.5]))  # 1/(1 - z/2)
    c = f.taylor(10)
    assert np.allclose(c, 0.5 ** np.arange(11))


def test_taylor_matches_eval():
    f = RationalFn(Poly([1, 2, 1]), Poly([1, -0.3, 0.1]))
    c = f.taylor(60)
    z = 0.4 + 0.2j
    approx = Poly(c)(z)
    assert approx == pytest.approx(f(z), rel=1e-12)


def test_rational_json_roundtrip():
    f = RationalFn(rand_poly(4), Poly([1, -0.25, 0.05]))
    blob = json.dumps(f.to_json())
    g = RationalFn.from_json(json.loads(blob))
    z = 0.3 - 0.2j
    assert g(z) == pytest.approx(f(z), rel=1e-14)


def test_rational_json_zero_denominator_rejected():
    with pytest.raises(InputFormatError):
        as_rational({"num": {"coeffs": [[1, 0]]}, "den": {"coeffs": []}})


def test_rational_json_bare_list_parts():
    f = as_rational({"num": [1], "den": [1]})
    assert f == RationalFn(Poly([1]))
    g = RationalFn.from_json({"num": [0, [0, 1]], "den": {"coeffs": [[2, 0], [-1, 0]]}})
    assert g(0.5) == pytest.approx(0.5j / 1.5)
