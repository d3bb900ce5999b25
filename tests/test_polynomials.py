"""Polynomial and rational arithmetic, roots, serialization."""

import json
import math
import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hbspace import Poly, RationalFn
from hbspace.errors import InputFormatError, PoleAtPointError, ZeroFunctionError
import hbspace.polynomials as polynomials
from hbspace.polynomials import (
    _aberth,
    _horner_bound,
    _horner_stacked,
    _horner_table,
    _newton_polish,
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


def _horner_loop(c, z):
    # the separate array Horner loop the stacked pass must reproduce
    acc = np.full(z.shape, c[-1], dtype=complex)
    for ck in c[-2::-1]:
        acc = acc * z + ck
    return acc


def _bound_loop(c, z):
    az = np.abs(z)
    acc = abs(c[-1])
    for ck in c[-2::-1]:
        acc = acc * az + abs(ck)
    return np.maximum(acc, np.full(z.shape, 1e-300))


def _stacked_cases():
    gen = np.random.default_rng(7)
    for case in range(120):
        d = int(gen.integers(3, 41))
        c = gen.standard_normal(d + 1) + 1j * gen.standard_normal(d + 1)
        c *= 10.0 ** gen.uniform(-8, 8, d + 1)
        zero = gen.random(d + 1) < 0.2
        c[zero] = 0.0
        c[:-1][gen.random(d) < 0.1] *= -0.0  # signed zeros in either part
        c[-1] = c[-1] or 1.0
        if case % 10 == 0:
            c = c.real.astype(complex)
        n = int(gen.integers(1, 41))
        angle = np.exp(2j * np.pi * gen.random(n))
        radius = gen.choice([1.0, 1.0 + 1e-9, 1.0 - 1e-6, 0.5, 1e3], n)
        if case % 10 == 5:
            # -0 real parts on the real axis: p' must start at its top
            # coefficient itself, not at 0 * z + it
            c = np.array([complex(-0.0, abs(x)) for x in c.imag])
            angle = np.where(gen.random(n) < 0.5, 1.0, -1.0) + 0j
        yield c, radius * angle


def test_stacked_horner_is_the_separate_loops_bit_for_bit():
    for c, z in _stacked_cases():
        dc = np.arange(1, len(c)) * c[1:]
        pz, dpz, bound = _horner_stacked(_horner_table(c), z)
        assert pz.tobytes() == _horner_loop(c, z).tobytes()
        assert dpz.tobytes() == _horner_loop(dc, z).tobytes()
        assert bound.tobytes() == _bound_loop(c, z).tobytes()


def test_stacked_horner_past_an_overflow():
    # |z|^40 overflows: the bound reads inf, as the float loop gives it
    c = np.arange(1, 42) * (1.0 + 0.5j)
    z = np.array([1e10, 1e10j, 0.5, -2.0 + 1e-300j])
    with np.errstate(over="ignore", invalid="ignore"):
        pz, dpz, bound = _horner_stacked(_horner_table(c), z)
        want = _horner_loop(c, z), _horner_loop(np.arange(1, len(c)) * c[1:], z), _bound_loop(c, z)
    assert np.isinf(bound[:2]).all()
    for got, ref in zip((pz, dpz, bound), want):
        assert got.tobytes() == ref.tobytes()


def _stacked_loops(c, z):
    # p, p' and the bound by the separate loops, as one stacked pass gives them
    return _horner_loop(c, z), _horner_loop(np.arange(1, len(c)) * c[1:], z), _bound_loop(c, z)


def _aberth_step_reference(z, w):
    diff = z[:, None] - z[None, :]
    diff[diff == 0] = np.inf
    denom = 1.0 - w * np.sum(1.0 / diff, axis=1)
    denom[np.abs(denom) < 1e-12] = 1.0
    return w / denom


def _polish_reference(c, z):
    """The polish as three Newton steps that each evaluate at z and again at
    the trial, then a stall loop that evaluates at the top of every step:
    (roots, stall-loop iterations run)."""
    z = z.copy()
    for _ in range(3):
        pz, dpz, _ = _stacked_loops(c, z)
        ok = np.abs(dpz) > 1e-300
        step = np.zeros_like(z)
        step[ok] = pz[ok] / dpz[ok]
        trial = z - step
        better = np.abs(_horner_loop(c, trial)) <= np.abs(pz)
        z[better] = trial[better]
    rounding = 2 * (len(c) - 1) * np.finfo(float).eps
    for iteration in range(1, 9):
        pz, dpz, bound = _stacked_loops(c, z)
        stalled = np.abs(pz) > rounding * bound
        if not stalled.any() or np.any(np.abs(dpz) <= 1e-300):
            break
        z[stalled] -= _aberth_step_reference(z, pz / dpz)[stalled]
    return z, iteration


def _polish_cases():
    """Seeded (c, start) pairs, degree 3-33 at scales 1e-8..1e8: generic
    coefficients, a cluster within 1e-6 of the unit circle, or a close pair."""
    gen = np.random.default_rng(40)
    for case in range(150):
        degree = int(gen.integers(3, 34))
        scale = 10.0 ** gen.uniform(-8, 8)
        kind = case % 3
        if kind == 0:
            c = gen.standard_normal(degree + 1) + 1j * gen.standard_normal(degree + 1)
        else:
            size = int(gen.integers(2, min(degree, 6) + 1)) if kind == 1 else 2
            center = np.exp(2j * np.pi * gen.random())
            if kind == 2:
                center *= gen.uniform(0.3, 3.0)
            spread = 1e-6 if kind == 1 else 10.0 ** gen.uniform(-7, -5)
            offsets = gen.standard_normal(size) + 1j * gen.standard_normal(size)
            near = center * (1.0 + spread * offsets)
            rest = gen.uniform(0.2, 3.0, degree - size)
            rest = rest * np.exp(2j * np.pi * gen.random(degree - size))
            c = np.poly(np.concatenate([near, rest]))[::-1].astype(complex)
        c = scale * c
        unit = c / np.max(np.abs(c))
        with np.errstate(over="ignore", invalid="ignore"):
            found = _aberth(unit, _horner_table(unit), np.random.default_rng(case))
        yield c, np.roots(c[::-1]) if found is None else found[0]
    # a start whose first stall test flips on the bound at the kept trial,
    # not at the point before it
    yield (np.array([0.14296532664168232 - 0.17916451597995225j,
                     0.021840471641561915 + 1.1894887597499089j,
                     -0.7251169080628018 - 1.5479542388017022j, 1]),
           np.array([0.15698284955775726 + 0.2025111582004191j,
                     0.57448970629692 - 0.1445656039827982j,
                     -0.010557425787431834 + 1.4742113440517484j]))


def _count_passes(monkeypatch):
    counts = {"stacked": 0, "many": 0}

    def counted(name, inner):
        def wrapper(*args):
            counts[name] += 1
            return inner(*args)
        return wrapper

    monkeypatch.setattr(polynomials, "_horner_stacked", counted("stacked", _horner_stacked))
    monkeypatch.setattr(polynomials, "_horner_many", counted("many", polynomials._horner_many))
    return counts


def test_polish_is_the_reference_loop_bit_for_bit(monkeypatch):
    counts = _count_passes(monkeypatch)
    stall_steps = 0
    for c, start in _polish_cases():
        with np.errstate(over="ignore", invalid="ignore"):
            want, iterations = _polish_reference(c, start)
            counts.update(stacked=0, many=0)
            got = _newton_polish(c, start)
        assert got.tobytes() == want.tobytes()
        # one pass at the start and one per Newton trial, then one at the
        # top of every stall step after the first
        assert counts == {"stacked": 3 + iterations, "many": 0}
        stall_steps += iterations > 1
    assert stall_steps >= 10  # the stall loop's later steps are pinned too


def test_carried_polish_is_the_uncarried_polish_bit_for_bit(monkeypatch):
    # poly_roots hands the polish the p, p' and bound of the pass that
    # certified the iteration's roots: the polish returns what it returns
    # from its own opening pass, bit for bit, with one pass fewer
    counts = _count_passes(monkeypatch)
    real, calls = polynomials._newton_polish, []

    def recording(c, z, values=None, table=None):
        start = z.copy()
        counts.update(stacked=0)
        out = real(c, z, values, table)
        calls.append((c, start, values is not None, out, counts["stacked"]))
        return out

    monkeypatch.setattr(polynomials, "_newton_polish", recording)
    for c, _ in _polish_cases():
        poly_roots(Poly(c))
    assert len(calls) == 151
    for c, start, carried, got, passes in calls:
        counts.update(stacked=0)
        with np.errstate(over="ignore", invalid="ignore"):
            want = real(c, start)
        assert got.tobytes() == want.tobytes()
        assert passes == counts["stacked"] - carried
    assert sum(carried for _, _, carried, _, _ in calls) >= 140


def test_polish_whose_stall_loop_stops_at_once_makes_four_passes(monkeypatch):
    counts = _count_passes(monkeypatch)
    c = np.poly([0.5, -0.3j, 2.0, -1.5 + 0.2j])[::-1].astype(complex)
    got = _newton_polish(c, np.roots(c[::-1]))
    want, iterations = _polish_reference(c, np.roots(c[::-1]))
    assert iterations == 1
    assert counts == {"stacked": 4, "many": 0}  # the reference loop makes 7
    assert got.tobytes() == want.tobytes()


@pytest.mark.parametrize("arr", [
    np.array([complex(1.5, -0.0), complex(-0.0, 0.0), 3e-310, -2.0 + 1j, complex(0.0, -0.0), 1e300]),
    np.array([1.5, -0.0, 3e-310, -2.0, 7.0, -0.0]),
    np.array([3, -1, 0, 2**53 + 1, -7]),
])
def test_poly_from_an_array_keeps_every_bit(arr):
    # signed zeros compared through repr; trailing zeros are trimmed either way
    want = tuple(complex(c) for c in arr)
    while want and want[-1] == 0:
        want = want[:-1]
    for coeffs in (arr, list(arr), iter(arr)):
        got = Poly(coeffs).coeffs
        assert repr(got) == repr(want)
        assert all(type(c) is complex for c in got)


def test_coeff_array_is_a_fresh_writable_copy():
    p = Poly([1.0, -0.0, 2j])
    arr = p.coeff_array()
    assert arr.flags.writeable and arr.dtype == complex
    arr[0] = 5.0
    assert p.coeffs[0] == 1.0 and repr(p.coeff_array()[1]) == repr(np.complex128(-0.0))
    assert Poly().coeff_array().shape == (0,)


@pytest.mark.parametrize("s", [0, 3, -2, 0.0, -0.0, 0.1, -1e-300, 0.3 - 0.7j, 1j, True,
                               1, 1.0, 1 + 0j])
def test_scalar_product_is_the_constant_poly_product(s):
    # the product a constant Poly gives: np.convolve with a length-1 array
    for p in (rand_poly(6), rand_poly(0, 1e8), Poly([0.0, -0.0, 1.0]), Poly()):
        q = Poly([s])
        want = Poly() if p.is_zero or q.is_zero else Poly(np.convolve(p.coeff_array(), q.coeff_array()))
        assert repr((p * s).coeffs) == repr(want.coeffs)
        assert repr((s * p).coeffs) == repr(want.coeffs)


# Reference arithmetic: np.convolve for every product, the coeff(k) loop for
# sums, p + (-q) for differences and a power loop that squares once more than
# it needs.  Each Poly operation must match it bit for bit, signed zeros included.


def _ref_mul(p, other):
    if isinstance(other, Poly):
        if p.is_zero or other.is_zero:
            return Poly()
        return Poly(np.convolve(p.coeff_array(), other.coeff_array()))
    if p.is_zero or other == 0:
        return Poly()
    return Poly(np.convolve(p.coeff_array(), np.array([other], dtype=complex)))


def _ref_pow(p, n):
    out, base = Poly([1]), p
    while n:
        if n & 1:
            out = _ref_mul(out, base)
        base = _ref_mul(base, base)
        n >>= 1
    return out


def _ref_add(p, q):
    n = max(len(p.coeffs), len(q.coeffs))
    return Poly([p.coeff(k) + q.coeff(k) for k in range(n)])


def _ref_sub(p, q):
    return _ref_add(p, Poly([-c for c in q.coeffs]))


def _ref_rational(num, den):
    d0 = den.coeff(0)
    s = 1.0 / d0 if abs(d0) > 1e-12 * den.scale() else 1.0 / den.coeffs[-1]
    return _ref_mul(num, s), _ref_mul(den, s)


_EDGE = (0.0, -0.0, 1.0, -1.0, 5e-324, -5e-324, 1e-300, 1e300, -1e300)
_NONFINITE = (math.nan, math.inf, -math.inf)


def _polys(parts, max_size=6):
    part = st.sampled_from(parts) | st.floats(-10.0, 10.0)
    return st.lists(st.builds(complex, part, part), max_size=max_size).map(Poly)


def _same(got, want):
    assert repr(got.coeffs) == repr(want.coeffs)


@settings(max_examples=300, deadline=None, database=None, derandomize=True)
@given(p=_polys(_EDGE + _NONFINITE), q=_polys(_EDGE, max_size=3))
def test_products_by_one_sums_and_differences_round_as_the_reference(p, q):
    for one in (1, 1.0, 1 + 0j, complex(1.0, -0.0), True):
        _same(p * one, _ref_mul(p, one))
        _same(one * p, _ref_mul(p, one))
    _same(Poly([1]) * p, _ref_mul(Poly([1]), p))
    _same(p * Poly([1]), _ref_mul(p, Poly([1])))
    _same(p * q, _ref_mul(p, q))
    for x, y in ((p, q), (q, p)):
        _same(x + y, _ref_add(x, y))
        _same(x - y, _ref_sub(x, y))
        _same(1.5 - x, _ref_sub(Poly([1.5]), x))


@settings(max_examples=150, deadline=None, database=None, derandomize=True)
@given(p=_polys((0.0, -0.0, 1.0, -1.0, 5e-324, -5e-324, 1e-30, 1e30), max_size=4))
def test_powers_round_as_the_reference_loop(p):
    for k in range(10):
        _same(p ** k, _ref_pow(p, k))


@settings(max_examples=200, deadline=None, database=None, derandomize=True)
@given(num=_polys(_EDGE + _NONFINITE), den=_polys(_EDGE, max_size=4).filter(lambda d: not d.is_zero),
       d0=st.sampled_from((None, 1.0, 1 + 0j, complex(1.0, -0.0), 2.0)))
def test_rational_normalisation_rounds_as_the_reference(num, den, d0):
    if d0 is not None:  # den(0) == 1 exactly, the common case
        den = Poly((d0,) + den.coeffs[1:])
    got = RationalFn(num, den)
    want = _ref_rational(num, den)
    _same(got.num, want[0])
    _same(got.den, want[1])


def _count_convolve(monkeypatch):
    calls = []
    convolve = np.convolve

    def counted(*args):
        calls.append(1)
        return convolve(*args)

    monkeypatch.setattr(np, "convolve", counted)
    return calls


def test_products_by_one_and_powers_skip_the_convolutions_they_need_not(monkeypatch):
    calls = _count_convolve(monkeypatch)
    p = Poly([0.5, -0.0, 2 - 1j, 1j])
    for k in range(1, 10):
        calls.clear()
        p ** k
        assert len(calls) == k.bit_count() + k.bit_length() - 2, k
    calls.clear()
    RationalFn(p)
    p * 1, 1.0 * p, Poly([1]) * p, p * Poly([1 + 0j])
    assert calls == []
    # a non-finite coefficient keeps np.convolve, which turns inf * 0 into NaN
    nonfinite = Poly([complex(math.inf, 0.0), 1.0])
    assert repr(RationalFn(nonfinite).num.coeffs[0]) == "(inf+nanj)"
    assert len(calls) == 1


_SPECIALS = (0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308, sys.float_info.max,
             -sys.float_info.max, 1.0, -1.0)


def _draw(rng, count):
    """count complex numbers whose parts are specials or normals of any exponent."""
    parts = [float(rng.choice(_SPECIALS)) if rng.random() < 0.3
             else float(rng.standard_normal() * 10.0 ** rng.uniform(-300, 300))
             for _ in range(2 * count)]
    return [complex(re, im) for re, im in zip(parts[::2], parts[1::2])]


def _convolved(a, b):
    with np.errstate(all="ignore"):
        return Poly(np.convolve(np.array(a, dtype=complex), np.array(b, dtype=complex)))


def test_one_term_products_are_np_convolve_bit_for_bit(monkeypatch):
    rng = np.random.default_rng(44)
    calls = _count_convolve(monkeypatch)
    for trial in range(3000):
        p = Poly(_draw(rng, int(rng.integers(1, 8))))
        kind = trial % 4
        s = (1 + 0j if kind == 0 else complex(_draw(rng, 1)[0].real) if kind == 1
             else _draw(rng, 1)[0])
        if p.is_zero or s == 0:
            continue
        want = _convolved(p.coeffs, [s]).coeffs
        calls.clear()
        products = [p * s, s * p, p * Poly([s]), Poly([s]) * p]
        assert calls == [], (p, s)
        for got in products:
            assert np.array(got.coeffs, dtype=complex).tobytes() == np.array(want).tobytes(), (p, s)
            assert all(type(c) is complex for c in got.coeffs)
    # a non-finite factor keeps np.convolve, whose inf * 0 is NaN
    for p, s in ((Poly([complex(math.inf, 0.0), 1.0]), 2.0), (Poly([1.0, -0.0j]), math.inf),
                 (Poly([0.5, complex(0.0, math.nan)]), 1.0)):
        calls.clear()
        got = p * s
        assert len(calls) == 1
        assert repr(got.coeffs) == repr(_convolved(p.coeffs, [s]).coeffs)


def test_shifted_multiplies_by_a_power_of_z_and_rejects_a_negative_shift():
    p = Poly([1, 2])
    assert p.shifted(0) == p
    assert p.shifted(2).coeffs == (0j, 0j, 1 + 0j, 2 + 0j)
    assert Poly().shifted(3).is_zero
    with pytest.raises(ValueError, match="negative shift"):
        p.shifted(-1)


def test_neg_derivative_and_reflect_keep_the_constructor_s_bits():
    rng = np.random.default_rng(7)
    for _ in range(200):
        p = Poly(_draw(rng, int(rng.integers(0, 7))))
        with np.errstate(all="ignore"):
            assert repr((-p).coeffs) == repr(Poly([-c for c in p.coeffs]).coeffs)
            assert repr(p.derivative().coeffs) == repr(
                Poly([k * c for k, c in enumerate(p.coeffs)][1:]).coeffs)
            if not p.is_zero:
                d = p.degree + 2
                padded = list(p.coeffs) + [0j] * (d + 1 - len(p.coeffs))
                assert repr(p.reflect(d).coeffs) == repr(
                    Poly([c.conjugate() for c in reversed(padded)]).coeffs)


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


def test_roots_at_scales_far_apart():
    # a pair near 9e-60 next to 0.5: Aberth from one circle and the companion
    # eigenvalues both miss the residual; the Newton polygon's circles meet it
    p = Poly([-4.12091e-119, 9.07844e-60, -0.5, 1])
    rts = np.sort_complex(poly_roots(p))
    assert np.all(np.abs(p(rts)) <= 1e-11 * _horner_bound(p.coeffs, rts))
    assert np.all(np.abs(rts[:2] - 9.07844e-60) < 1e-61)
    assert abs(rts[2] - 0.5) < 1e-15


@pytest.mark.parametrize("seed", [0, 7, 42])
def test_roots_take_a_seed_or_its_generator(seed):
    gen = np.random.default_rng(seed + 1000)
    for deg in range(3, 21):
        c = gen.standard_normal(deg + 1) + 1j * gen.standard_normal(deg + 1)
        p = Poly(c)
        want = repr(poly_roots(p, rng=np.random.default_rng(seed)))
        assert repr(poly_roots(p, rng=seed)) == want
        if seed == 0:
            assert repr(poly_roots(p)) == want


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


def _taylor_reference(f, n):
    # the recurrence with the window of den sliced afresh at every step
    d0 = f.den.coeff(0)
    num = f.num.coeff_array(n + 1)
    den = f.den.coeff_array(min(len(f.den.coeffs), n + 1))
    rev = np.zeros(n + 1, dtype=complex)
    for k in range(n + 1):
        acc = num[k]
        m = min(k, len(den) - 1)
        if m > 0:
            acc -= np.dot(den[1 : m + 1], rev[n - k + 1 : n - k + 1 + m])
        rev[n - k] = acc / d0
    return rev[::-1].copy()


@pytest.mark.parametrize("den_degree", range(17))
def test_taylor_is_the_reference_recurrence_bit_for_bit(den_degree):
    gen = np.random.default_rng(100 + den_degree)
    den = gen.standard_normal(den_degree + 1) + 1j * gen.standard_normal(den_degree + 1)
    den[1:][gen.random(den_degree) < 0.2] = 0.0
    den[-1] = den[-1] or 1.0
    den[0] = 3.0 * den[0]
    num = gen.standard_normal(int(gen.integers(1, 20))) * 10.0 ** gen.uniform(-8, 8)
    f = RationalFn(Poly(num * (1 + 0.5j)), Poly(den))
    for n in range(3 * den_degree + 6):
        assert f.taylor(n).tobytes() == _taylor_reference(f, n).tobytes()


def test_divided_differences_at_one_point_are_taylor_coefficients():
    f = RationalFn(Poly([1]), Poly([1, -0.5]))  # 1/(1 - z/2): f^(j)(w)/j! = 2^-j / (1 - w/2)^(j+1)
    w = 0.3 - 0.4j
    want = 0.5 ** np.arange(6) / (1 - w / 2) ** np.arange(1, 7)
    assert np.allclose(f.divided_differences([w] * 6), want, rtol=1e-14, atol=0)
    g = RationalFn(Poly([1, 2, 1]), Poly([1, -0.3, 0.1]))
    assert g.divided_differences([w])[0] == g(w)  # bit for bit


def _divided_differences_per_suffix(f, points):
    """f's divided differences with den divided afresh for every suffix."""
    points = list(points)
    num = polynomials._newton_coefficients(f.num, points)
    dens = [polynomials._newton_coefficients(f.den, points[i:]) for i in range(len(points))]
    out = np.zeros(len(points), dtype=complex)
    for s, x in enumerate(points):
        dv = dens[s][0]
        f._pole_rule(x, dv)
        out[s] = (num[s] - sum(out[i] * dens[i][s - i] for i in range(s))) / dv
    return out


def test_repeated_point_divided_differences_are_the_per_suffix_loop_bit_for_bit():
    rng = np.random.default_rng(12)
    symbols = [RationalFn(Poly([1, 2, 1]), Poly([1, -0.3, 0.1])),
               RationalFn(Poly([0, 3, -6, 5]), Poly([12, -21, 14, -3])),
               RationalFn(Poly([0.5j, 1]), Poly([1])),
               RationalFn(Poly([1, -0.0, 2j]), Poly([2.0, complex(0.4, -0.0)]))]
    symbols += [RationalFn(rand_poly(d),
                           Poly([1.0]) + Poly(0.3 * rng.standard_normal(e + 1)).shifted(1))
                for d, e in ((3, 2), (5, 5), (1, 7))]
    points = [0.3 - 0.4j, 1.0, 1.0 + 0j, -0.0, complex(0.0, -0.0), 0.6j, 0.999 - 0.01j]
    for f in symbols:
        for w in points:
            for m in range(1, f.den.degree + 4):
                want = _divided_differences_per_suffix(f, [w] * m)
                assert f.divided_differences([w] * m).tobytes() == want.tobytes(), (f, w, m)
    # a pole at the repeated point raises as the loop does
    with pytest.raises(PoleAtPointError):
        RationalFn(Poly([1]), Poly([1, -2])).divided_differences([0.5] * 3)


def test_divided_differences_at_distinct_and_close_points():
    f = RationalFn(Poly([1, 2, 1]), Poly([1, -0.3, 0.1]))
    x = [0.2, -0.5j, 0.6 + 0.1j]
    got = f.divided_differences(x)
    first = (f(x[1]) - f(x[0])) / (x[1] - x[0])
    second = ((f(x[2]) - f(x[1])) / (x[2] - x[1]) - first) / (x[2] - x[0])
    assert np.allclose(got, [f(x[0]), first, second], rtol=1e-13, atol=0)
    # points 1e-12 apart: the divided difference is the derivative, no cancellation
    near = f.divided_differences([0.4, 0.4 + 1e-12])[1]
    assert abs(near - f.derivative()(0.4)) <= 1e-11 * abs(near)
    with pytest.raises(PoleAtPointError):
        RationalFn(Poly([1]), Poly([1, -2])).divided_differences([0.1, 0.5])


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
