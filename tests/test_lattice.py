"""Invariant subspace classification, cyclicity, membership, distances."""

import dataclasses
import functools
import math
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from hbspace import factorization
from hbspace.config import D_TRUNC
from hbspace.errors import (
    InputFormatError,
    MultipleBoundaryZeroError,
    PoleInDiskError,
    RankDeficiencyError,
    ValidationError,
)
from hbspace.extension import build_model
from hbspace.factorization import _inner_roots, boundary_order, inner_outer
from hbspace.lattice import (
    _distance_to,
    classify,
    is_cyclic,
    ladder_spaces,
    membership,
    subspace_distance,
)
from hbspace.polynomials import Poly, RationalFn, _zero_order, as_rational, poly_roots
from hbspace.space import HbSpace, _real_if_exact, _upper_toeplitz
from orbit_route import (
    ORBIT,
    RANK_TOL,
    directed_distance,
    metric_factor,
    orbit_distance,
    orbit_distances,
    rank_certified,
)

B_HALF = RationalFn(Poly([0.5, 0.5]), Poly([1]))
B_STEP2 = RationalFn(Poly([0, 0, 1]), Poly([3, -3, 1]))
B_STEP3 = RationalFn(Poly([0, 3, -6, 5]), Poly([12, -21, 14, -3]))

B_COMPLEX = RationalFn(
    Poly([0.2 + 0.1j, -0.15 + 0.25j, 0.1 - 0.05j, 0.05j, -0.08 + 0.02j]),
    Poly([1, -0.3 + 0.2j]) * Poly([1, 0.25 - 0.35j]),
)

Z = Poly([0, 1])
ZM1 = Poly([-1, 1])  # z - 1
ONE = Poly([1])


@pytest.fixture(scope="module")
def half():
    return HbSpace(B_HALF)


@pytest.fixture(scope="module")
def step2():
    return HbSpace(B_STEP2)


def test_classify_boundary_factor(half):
    d = classify(half, ZM1)
    assert d.form == "proper"
    assert d.inner_degree == 0
    assert d.boundary_orders[0][1] == 1
    # canonical generator is z - 1 itself (up to normalization)
    zs = np.linspace(-0.7, 0.7, 5)
    assert np.max(np.abs(d.canonical(zs) - (zs - 1))) < 1e-9


def test_classify_caps_at_multiplicity(half, step2):
    sq = ZM1 * ZM1
    assert classify(half, sq).boundary_orders[0][1] == 1
    assert classify(half, ZM1).same_as(classify(half, sq))
    assert classify(step2, sq).boundary_orders[0][1] == 2
    assert not classify(step2, ZM1).same_as(classify(step2, sq))
    cube = sq * ZM1
    assert classify(step2, cube).boundary_orders[0][1] == 2
    assert classify(step2, cube).same_as(classify(step2, sq))


def test_classify_inner_factor(half):
    f = Poly([0, 0.5, 0.5])  # z (z + 1)/2: inner part z
    d = classify(half, f)
    assert d.form == "proper"
    assert d.inner_degree == 1
    assert abs(d.inner_roots[0]) < 1e-10
    assert d.boundary_orders[0][1] == 0


def test_circle_zero_off_the_mate_is_ignored(half):
    # b itself vanishes at -1 on the circle, but -1 is not a mate zero
    d = classify(half, half.b)
    assert d.form == "full"
    assert is_cyclic(half, half.b)


def test_cyclicity_anchors(half):
    assert not is_cyclic(half, Poly([0, 1]))  # z: inner factor
    assert not is_cyclic(half, ZM1)  # boundary vanishing
    assert is_cyclic(half, Poly([1]))
    assert is_cyclic(half, Poly([2, 1]))  # root outside the closed disk


def test_classify_rational_member(half):
    f = RationalFn(Poly([0, 1]), Poly([1, -0.4]))  # z/(1 - 0.4 z)
    d = classify(half, f)
    assert d.inner_degree == 1
    assert abs(d.inner_roots[0]) < 1e-10
    assert d.boundary_orders[0][1] == 0


def test_classify_zero_function(half):
    assert classify(half, Poly([])).form == "zero"


def test_classify_rejects_nonmember(half):
    with pytest.raises(InputFormatError):
        classify(half, RationalFn(Poly([1]), Poly([1, -1])))


def test_membership(half):
    assert membership(half, Poly([3, 1, 2]))
    assert membership(half, RationalFn(Poly([1]), Poly([1, -0.5])))
    assert not membership(half, RationalFn(Poly([1]), Poly([1, -1])))
    with pytest.raises(PoleInDiskError):
        membership(half, RationalFn(Poly([1]), Poly([-0.5, 1])))


def test_membership_reduces_first(half):
    # fake circle pole: (z - 1)/(z - 1) * (1/(1 - z/2))
    num = Poly([-1, 1])
    den = Poly([-1, 1]) * Poly([1, -0.5])
    assert membership(half, RationalFn(num, den))


def test_distance_equal_subspaces(half):
    d = subspace_distance(half, ZM1 * ZM1, ZM1)
    assert d <= 0.1


def test_distance_same_generator(half):
    assert subspace_distance(half, ZM1, ZM1) < 1e-12


def test_distance_invertible_quotient(half):
    d = subspace_distance(half, ZM1 * Poly([2, 1]), ZM1)
    assert d < 1e-6


def test_distance_distinct_subspaces(half, step2):
    assert subspace_distance(half, ZM1, Poly([1])) >= 0.3
    assert subspace_distance(step2, ZM1, ZM1 * ZM1) >= 0.3


def test_distance_zero_cases(half):
    assert subspace_distance(half, Poly([]), Poly([])) == 0.0
    assert subspace_distance(half, Poly([]), ZM1) == 1.0


def test_ladder_step2(step2):
    lad = ladder_spaces(step2)
    assert len(lad) == 3
    assert lad[0].form == "full"
    assert [d.boundary_orders[0][1] for d in lad] == [0, 1, 2]
    for j, d in enumerate(lad):
        again = classify(step2, Poly([-1, 1]) ** j)
        assert d.same_as(again)


def test_ladder_needs_single_zero(half):
    lad = ladder_spaces(half)
    assert len(lad) == 2
    two = HbSpace(RationalFn(Poly([0.5, 0, 0.5]), Poly([1])))  # zeros at +-i
    assert len(two.boundary_zeros) == 2
    with pytest.raises(MultipleBoundaryZeroError):
        ladder_spaces(two)


def test_ladder_chain_is_strictly_nested(step2):
    gens = [Poly([-1, 1]) ** j for j in range(3)]
    for i in range(3):
        for j in range(i + 1, 3):
            assert subspace_distance(step2, gens[i], gens[j]) >= 0.15


def test_descriptor_json(step2):
    d = classify(step2, Poly([0, -1, 1]))  # z(z-1)
    blob = d.to_json()
    assert blob["form"] == "proper"
    assert blob["boundary_orders"][0]["order"] == 1
    assert len(blob["inner_roots"]) == 1
    assert isinstance(blob["description"], str)


# -- the orbit route (tests/orbit_route.py) against the Cholesky reference ----


def _degree8_symbol() -> RationalFn:
    """A fixed generic degree-8 rational with four poles at modulus 2, sup|b| = 0.8."""
    rng = np.random.default_rng(8)
    num = Poly(rng.standard_normal(9) + 1j * rng.standard_normal(9))
    den = Poly.from_roots(2.0 * np.exp(2j * np.pi * rng.random(4)), 1.0)
    zs = np.exp(2j * np.pi * np.arange(4096) / 4096)
    peak = float(np.max(np.abs(num(zs) / den(zs))))
    return RationalFn(num * (0.8 / peak), den)


SYMBOLS = {
    "half": lambda: B_HALF,
    "affine": lambda: RationalFn(Poly([0, 0.5])),
    "model1": lambda: build_model(1).b,
    "model2": lambda: build_model(2).b,
    "model3": lambda: build_model(3).b,
    "deg8": _degree8_symbol,
    "complex": lambda: B_COMPLEX,
}


@functools.lru_cache(maxsize=None)
def symbol_space(name: str) -> HbSpace:
    return HbSpace(SYMBOLS[name]())


def _orthonormal_range(m: np.ndarray) -> np.ndarray:
    u, s, _ = np.linalg.svd(m, full_matrices=False)
    if s.size == 0 or s[0] == 0.0:
        raise RankDeficiencyError("orbit span collapsed to zero")
    rank = int(np.sum(s > RANK_TOL * s[0]))
    if rank < m.shape[1]:
        raise RankDeficiencyError(f"orbit of {m.shape[1]} iterates has numerical rank {rank}")
    return u[:, :rank]


def cholesky_distance(space, f, g, orbit=ORBIT, degree=D_TRUNC) -> float:
    """The Gram route: orbit columns in monomial coordinates, G = R^H R by
    Cholesky, orthonormal ranges by full SVD."""
    f, g = as_rational(f), as_rational(g)
    fd = int(f.num.degree if f.is_polynomial else degree)
    gd = int(g.num.degree if g.is_polynomial else degree)
    window = orbit + max(fd, gd) + 1

    def columns(h):
        base = (h.as_poly() if h.is_polynomial else h.taylor_poly(degree)).coeff_array()
        cols = np.zeros((window, orbit + 1), dtype=complex)
        for k in range(orbit + 1):
            cols[k : k + len(base), k] = base
        return cols

    r = np.linalg.cholesky(space.gram_matrix(window)).conj().T
    rf, rg = r @ columns(f), r @ columns(g)
    qf, qg = _orthonormal_range(rf), _orthonormal_range(rg)

    def directed(v, q):
        return float(np.linalg.norm(v - q @ (q.conj().T @ v)) / np.linalg.norm(v))

    return max(directed(rf[:, 0], qg), directed(rg[:, 0], qf))


REFERENCE_PAIRS = [
    *[(ZM1 ** (j + 1), ZM1**j) for j in (1, 2, 3)],
    (ZM1, ONE),
    (Z * ZM1, Z),
    (Z, ONE),
    (RationalFn(ZM1, Poly([1, -0.5])), ZM1),  # (z - 1)/(1 - z/2), Taylor-truncated
]


@pytest.mark.parametrize("name", ["half", "affine", "model1", "model2", "model3", "deg8"])
def test_distance_matches_cholesky_reference(name):
    space = symbol_space(name)
    for f, g in REFERENCE_PAIRS:
        got = orbit_distance(space, f, g)
        assert abs(got - cholesky_distance(space, f, g)) < 1e-10


# -- the metric factor's coordinates against the stacked (f, f+) ones ----------


def stacked_distance(space, f, g, orbit=ORBIT, degree=D_TRUNC) -> float:
    """The (f, f+) route in numpy alone: each orbit is [F; C F] over 2 * window
    rows, C[j, k] = conj(phi_(k-j)), and a distance is the residual of v after
    projecting onto an orthonormal basis from a reduced QR."""
    f, g = as_rational(f), as_rational(g)
    fd = int(f.num.degree if f.is_polynomial else degree)
    gd = int(g.num.degree if g.is_polynomial else degree)
    window = orbit + max(fd, gd) + 1
    lag = np.arange(window)[None, :] - np.arange(window)[:, None]
    phi = np.conj(np.asarray(space.phi_coeffs(window - 1)))
    c = np.where(lag >= 0, phi[np.maximum(lag, 0)], 0)

    def stacked(h):
        base = (h.as_poly() if h.is_polynomial else h.taylor_poly(degree)).coeff_array()
        cols = np.zeros((window, orbit + 1), dtype=complex)
        for k in range(orbit + 1):
            cols[k : k + len(base), k] = base
        return np.vstack([cols, c @ cols])

    def directed(m, v):
        q, _ = np.linalg.qr(m)
        return float(np.linalg.norm(v - q @ (q.conj().T @ v)) / np.linalg.norm(v))

    mf, mg = stacked(f), stacked(g)
    return max(directed(mf, mg[:, 0]), directed(mg, mf[:, 0]))


@pytest.mark.parametrize("name", list(SYMBOLS))
def test_distance_matches_the_stacked_route(name):
    space = symbol_space(name)
    for f, g in REFERENCE_PAIRS:
        assert abs(orbit_distance(space, f, g) - stacked_distance(space, f, g)) < 1e-10


@pytest.mark.parametrize("name", list(SYMBOLS))
def test_metric_factor_reproduces_the_gram_matrix(name):
    # Bound, set before measuring: Householder QR returns the exact R of
    # M + dM with |dM e_k| <= 2N^2 u |M e_k| per column (Higham, ASNA,
    # Thm 19.4, gamma~_(mn) with m n = 2N^2 and c = 1), so R^H R is within
    # about 2 * 2N^2 u sqrt(G_jj G_kk) of M^H M = G; forming R^H R here and
    # C^H C in gram_matrix add gamma_N each.  6 N^2 u covers all three.
    space = symbol_space(name)
    for n in (1, 8, 136, 200):
        r = metric_factor(space, n)
        assert r.shape == (n, n) and not r.flags.writeable
        assert np.array_equal(np.tril(r, -1), np.zeros_like(r))
        g = space.gram_matrix(n)
        scale = np.sqrt(np.outer(np.diag(g).real, np.diag(g).real))
        assert np.all(np.abs(r.conj().T @ r - g) <= 6 * n * n * 2.0**-53 * scale)


# -- the exact distance against the orbit route -------------------------------


def exact_distances(space, f, g) -> tuple[float, float]:
    """(f to [g], g to [f]) by the annihilator formula, each relative."""
    f, g = as_rational(f), as_rational(g)
    return _distance_to(space, f, classify(space, g)), _distance_to(space, g, classify(space, f))


@pytest.mark.parametrize("name", list(SYMBOLS))
def test_exact_distance_sits_at_or_below_the_orbit_distance(name):
    # the 129 shift iterates span part of the closed subspace, so in each
    # direction the orbit route can only read farther
    space = symbol_space(name)
    for f, g in REFERENCE_PAIRS:
        for exact, orbit in zip(exact_distances(space, f, g), orbit_distances(space, f, g)):
            assert exact <= orbit + 1e-12


@pytest.mark.parametrize("name", ["half", "affine", "model1", "model2", "model3", "deg8"])
def test_collapse_reads_zero_and_separation_matches_the_orbit_route(name):
    # the gram workload's pairs: collapse at the mate zero's multiplicity m,
    # or through an inner factor z when the mate has no circle zero
    space = symbol_space(name)
    if space.boundary_zeros:
        ((_, m),) = space.boundary_zeros
        collapse, separation = (ZM1 ** (m + 1), ZM1**m), (ZM1, ONE)
    else:
        collapse, separation = (Z * ZM1, Z), (Z, ONE)
    assert subspace_distance(space, *collapse) <= 1e-12
    got = subspace_distance(space, *separation)
    assert got >= 0.3
    assert abs(got - orbit_distance(space, *separation)) < 1e-10


def test_ladder_separations_match_the_orbit_route(step2):
    gens = [ZM1**j for j in range(3)]
    want = {(0, 1): 1 / math.sqrt(3), (0, 2): math.sqrt(2 / 3), (1, 2): 1 / math.sqrt(6)}
    for (i, j), value in want.items():
        got = subspace_distance(step2, gens[i], gens[j])
        assert abs(got - value) < 1e-12
        assert abs(got - orbit_distance(step2, gens[i], gens[j])) < 1e-10


def test_codimension_is_the_order_of_the_kernel_gram_matrix(half, step2):
    ladder = ladder_spaces(step2)
    assert [d.codimension for d in ladder] == [0, 1, 2]
    double = classify(half, Poly([-0.5, 1]) ** 2)
    assert double.inner_roots == (0.5, 0.5)
    assert double.codimension == 2
    assert classify(half, Poly([])).codimension == math.inf


def test_newton_kernels_are_the_derivative_kernels_at_a_repeated_point(half, step2):
    # f[w, ..., w] (s + 1 times) = f^(s)(w) / s!, so the Newton representer
    # at one point is the derivative kernel over s!
    zs = np.array([0.3, -0.2 + 0.4j, 0.7j])
    for space in (half, step2):
        for w in (0.5, -0.3 + 0.6j):
            for order in range(4):
                got = space._newton_kernels([w] * (order + 1))[-1](zs)
                want = space.kernel_derivative(w, order)(zs) / math.factorial(order)
                assert np.max(np.abs(got - want)) <= 1e-13 * max(1.0, np.max(np.abs(want)))
    # and at the mate boundary zero w = 1, below its multiplicity (1 on
    # half, 2 on step2), where the circle pole cancels
    for space, mult in ((half, 1), (step2, 2)):
        for order in range(mult):
            got = space._newton_kernels([1.0] * (order + 1))[-1]
            want = space.kernel_derivative(1.0, order)
            assert got.den == want.den
            assert np.max(np.abs(got(zs) - want(zs) / math.factorial(order))) <= 1e-15 * max(
                1.0, np.max(np.abs(want(zs))))


def _numerators_of_one_prefix(space, points):
    """Numerators of K[conj(x_0), ..., conj(x_s)] for the whole of points alone:
    the sum_i conj(b[x_0..x_i]) z^(s-i) prod_(k<i) (1 - conj(x_k) z) summed in i,
    then the boundary cancellation of (z - w)^(s+1)."""
    s = len(points) - 1
    acc, head = Poly(), Poly([1])
    for i, (x, t) in enumerate(zip(points, space.b.divided_differences(points))):
        acc = acc + complex(t).conjugate() * head.shifted(s - i)
        head = head * Poly([1, -x.conjugate()])
    nums = space.b.den.shifted(s) - space.b.num * acc, space.a.num * acc
    w = points[0]
    if abs(abs(w) - 1.0) > 1e-9:
        return nums
    unit = 1.0 / (-w.conjugate()) ** (s + 1)
    return tuple(_zero_order(num, w, at_most=s + 1)[1] * unit for num in nums)


def _term_scales(space, points):
    """Coefficient scales of the terms ``_numerators_of_one_prefix`` sums, taken in
    absolute value: |q| z^s + |b.num| A and |a.num| A with
    A = sum_i |b[x_0..x_i]| z^(s-i) prod_(k<i) (1 + |x_k| z); at the boundary,
    their quotient by (z - 1)^(s+1), each division the tail sums of the
    coefficients above, as dividing by z - w sums them for |w| = 1."""
    s = len(points) - 1
    acc, head = np.zeros(s + 1), np.ones(1)
    for i, (x, t) in enumerate(zip(points, space.b.divided_differences(points))):
        acc[s - i :] += abs(t) * head
        head = np.convolve(head, [1.0, abs(x)])
    mags = [np.abs(space.b.den.coeff_array()), np.abs(space.b.num.coeff_array()),
            np.abs(space.a.num.coeff_array())]
    terms = [Poly(mags[0]).shifted(s) + Poly(np.convolve(mags[1], acc)),
             Poly(np.convolve(mags[2], acc))]
    if abs(abs(points[0]) - 1.0) <= 1e-9:
        for _ in range(s + 1):
            terms = [Poly(np.cumsum(p.coeff_array()[::-1])[::-1][1:]) for p in terms]
    return [p.scale() for p in terms]


@pytest.mark.parametrize("name,points", [
    ("step2", [0.5, 0.5, -0.3 + 0.2j, 0.0]),
    ("step2", [1.0, 1.0]),
    ("complex", [0.2j, 0.7, 0.7, -0.1]),
    ("model3", [1.0, 1.0, 1.0]),
])
def test_prefix_kernels_of_one_sweep_are_each_prefix_alone(name, points):
    # one sweep builds prefix s from prefix s - 1 by one recurrence step, so
    # it sums the per-prefix reference's terms in another order: each step
    # rounds each coefficient about once against the scale of those terms, so
    # prefix s lies within (s + 1) eps of that scale.  A fresh sweep over the
    # prefix alone makes the same steps, so its bits are the same
    space = {"step2": lambda: HbSpace(B_STEP2), "complex": lambda: HbSpace(B_COMPLEX),
             "model3": lambda: HbSpace(build_model(3).b)}[name]()
    sweep = space._newton_numerators(points)
    kernels = space._newton_kernels(points)
    assert len(sweep) == len(kernels) == len(points)
    for s, ((num, plus_num, rest), kernel) in enumerate(zip(sweep, kernels)):
        prefix = points[: s + 1]
        reference = _numerators_of_one_prefix(space, prefix)
        for got, want, scale in zip((num, plus_num), reference, _term_scales(space, prefix)):
            n = max(len(got.coeffs), len(want.coeffs))
            err = np.max(np.abs(got.coeff_array(n) - want.coeff_array(n)))
            assert err <= (s + 1) * np.finfo(float).eps * scale, (s, err / scale)
        fresh = HbSpace(space.b)
        # repr keeps the sign of a zero, which == does not
        assert repr([p.coeffs for p in (num, plus_num)]) == repr(
            [p.coeffs for p in fresh._newton_numerators(prefix)[-1][:2]])
        alone = fresh._newton_kernels(prefix)[-1]
        assert (kernel.num, kernel.den) == (alone.num, alone.den)
        assert rest == ([] if abs(points[0]) == 1.0 else prefix)


def test_close_inner_zeros_read_as_their_confluent_limit(half):
    # zeros 1e-12 apart stay two zeros, and their divided difference stands
    # in for the derivative: the distance is that of z^2 to within O(1e-12)
    near = Poly.from_roots([0.0, 1e-12])
    assert classify(half, near).inner_roots == (0.0, 1e-12)
    d = subspace_distance(half, ONE, near)
    assert abs(d - subspace_distance(half, ONE, Z * Z)) < 1e-11
    assert abs(d - orbit_distance(half, ONE, near)) < 1e-10


def test_a_multiple_inner_zero_pairs_with_derivative_kernels(half):
    # (z - 1/2)^2 against z - 1/2: one point, kernels of order 0 and 1
    f, g = Poly([-0.5, 1]) ** 2, Poly([-0.5, 1])
    d = subspace_distance(half, f, g)
    assert d == pytest.approx(0.8987170342729, abs=1e-12)
    assert abs(d - orbit_distance(half, f, g)) < 1e-10
    # a triple root that the root finder splits by ~6e-6 is placed as one
    # point, so Gamma is the 3 x 3 matrix of its derivative kernels
    f, g = Poly([-0.2, 1]) ** 3, Poly([-0.2, 1]) ** 2
    assert classify(half, f).codimension == 3
    d = subspace_distance(half, f, g)
    assert 0.3 <= d and abs(d - orbit_distance(half, f, g)) < 1e-10


def test_a_generator_with_a_pole_near_the_circle_reads_a_relative_distance(half):
    # pole at 1.0001: c and |f|_b both come from the Taylor polynomial of
    # degree D_TRUNC, so the ratio stays in [0, 1] (c of the rational f over
    # the truncated norm read about 24)
    f = RationalFn(Poly([1]), Poly([1, -1 / 1.0001]))
    d = subspace_distance(half, f, ZM1)
    assert 0.0 <= d <= 1.0
    assert d <= orbit_distance(half, f, ZM1) + 1e-12


@pytest.mark.parametrize("delta", [2e-4, 1e-5])
def test_close_simple_zeros_are_not_merged(half, delta):
    # the zero rule's 1e-7 band reads (z - 0.3)(z - 0.3002) as a double zero
    # at 0.3001; at the root finder's residual the two zeros stay apart
    g = Poly.from_roots([0.3, 0.3 + delta])
    roots = classify(half, g).inner_roots
    assert len(set(roots)) == 2
    assert max(abs(r - w) for r, w in zip(roots, (0.3, 0.3 + delta))) < 1e-10
    inner, _ = inner_outer(g)
    assert len(set(np.round(poly_roots(inner.num), 8))) == 2
    assert subspace_distance(half, g, g) < 1e-12


def test_singular_kernel_gram_matrix_names_the_codimension(half):
    # the mate zero listed twice: two equal kernels, so Gamma is singular
    target = dataclasses.replace(classify(half, ZM1), boundary_orders=((1.0, 1), (1.0, 1)))
    with pytest.raises(RankDeficiencyError, match="codimension 2"):
        _distance_to(half, as_rational(ONE), target)


@pytest.mark.parametrize("name", ["half", "model2", "deg8", "complex"])
def test_distance_does_not_depend_on_earlier_calls(name):
    pair = (ZM1**2, ZM1)
    wider = (RationalFn(ZM1, Poly([1, -0.5])), ZM1)  # Taylor-truncated: a larger factor
    for distance in (orbit_distance, subspace_distance):
        space = HbSpace(SYMBOLS[name]())
        before = repr(distance(space, *pair))
        distance(space, *wider)
        assert repr(distance(space, *pair)) == before
        assert repr(distance(HbSpace(SYMBOLS[name]()), *pair)) == before
        wider_first = HbSpace(SYMBOLS[name]())
        distance(wider_first, *wider)
        assert repr(distance(wider_first, *pair)) == before


@pytest.mark.parametrize("name, dtype", [("half", np.float64), ("complex", np.complex128)])
def test_distance_qr_runs_in_real_arithmetic_for_real_data(name, dtype, monkeypatch):
    seen = []
    qr = np.linalg.qr

    def spy(a, *args, **kwargs):
        seen.append(np.asarray(a).dtype)
        return qr(a, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "qr", spy)
    space = HbSpace(SYMBOLS[name]())
    for f, g in REFERENCE_PAIRS:
        orbit_distance(space, f, g)
    # one QR per direction, and one factor per size: 136 for the polynomial
    # pairs (windows 130-133), 200 for the Taylor-truncated one (window 193)
    assert len(seen) == 2 * len(REFERENCE_PAIRS) + 2
    assert set(seen) == {np.dtype(dtype)}


def test_distance_builds_no_gram_matrix(half, monkeypatch):
    def refuse(n):
        raise AssertionError("gram_matrix called")

    monkeypatch.setattr(half, "gram_matrix", refuse)
    assert subspace_distance(half, ZM1 * ZM1, ZM1) <= 0.1


def test_directed_distance_rank_check():
    rng = np.random.default_rng(3)
    x, y, v = (rng.standard_normal(12) + 1j * rng.standard_normal(12) for _ in range(3))
    with pytest.raises(RankDeficiencyError, match="orbit of 3 iterates has numerical rank 2"):
        directed_distance(np.column_stack([x, y, x]), v)
    with pytest.raises(RankDeficiencyError, match="orbit span collapsed to zero"):
        directed_distance(np.zeros((12, 3), dtype=complex), v)
    # a vector in the span sits at distance zero, one orthogonal to it at one
    orbit = np.column_stack([x, y])
    assert directed_distance(orbit, 2 * x - 1j * y) < 1e-14
    q, _ = np.linalg.qr(np.column_stack([x, y, v]))
    assert abs(directed_distance(orbit, q[:, 2]) - 1.0) < 1e-14


# generator roots off an annulus around the circle, so every orbit keeps full rank
_ROOT = st.builds(
    lambda r, t: r * complex(math.cos(t), math.sin(t)),
    st.floats(0.0, 0.8) | st.floats(1.25, 3.0),
    st.floats(0.0, 2 * math.pi),
)
_GENERATOR = st.lists(_ROOT, max_size=4).map(Poly.from_roots)


@settings(max_examples=25, deadline=None, database=None, derandomize=True)
@given(st.sampled_from(["half", "model2", "complex"]), _GENERATOR, _GENERATOR)
def test_distance_property(name, f, g):
    space = symbol_space(name)
    d = subspace_distance(space, f, g)
    assert abs(orbit_distance(space, f, g) - cholesky_distance(space, f, g)) < 1e-9
    assert 0.0 <= d <= 1.0 + 1e-12
    assert subspace_distance(space, f, f) < 1e-12
    for exact, orbit in zip(exact_distances(space, f, g), orbit_distances(space, f, g)):
        assert exact <= orbit + 1e-12


@pytest.fixture(scope="module")
def model4():
    return HbSpace(build_model(4).b)


def test_classify_divides_out_the_full_order_at_a_mate_zero(model4):
    lam, mult = model4.boundary_zeros[0]
    assert mult == 4
    zl = Poly([-lam, 1])
    d = classify(model4, zl**4 * Poly([-0.5, 1]))
    assert d.inner_degree == 1
    assert abs(d.inner_roots[0] - 0.5) < 1e-10
    assert d.boundary_orders[0][1] == 4
    d5 = classify(model4, zl**5 * Poly([2, 1]))
    assert d5.inner_degree == 0
    assert d5.same_as(classify(model4, zl**4))


@functools.lru_cache(maxsize=None)
def model_space(n: int) -> HbSpace:
    return HbSpace(build_model(n).b)


# p with p(1) well away from 0 relative to its Horner bound sum |p_k| at 1
_COEFF = st.builds(complex, st.floats(-2.0, 2.0), st.floats(-2.0, 2.0))
_AWAY_FROM_ONE = st.lists(_COEFF, min_size=1, max_size=5).map(Poly).filter(
    lambda p: abs(p(1.0)) >= 0.1 * sum(abs(c) for c in p.coeffs) > 0
)


@settings(max_examples=40, deadline=None, database=None, derandomize=True)
@given(_AWAY_FROM_ONE, st.integers(0, 4), st.integers(1, 4))
def test_three_readings_of_the_order_at_one_agree(p, k, n):
    f = p * ZM1**k
    order, quot = _zero_order(f, 1.0)
    assert order == k
    assert (quot - p).scale() <= 1e-10 * p.scale()
    assert boundary_order(f, 1.0) == k
    space = model_space(n)
    assert classify(space, f).boundary_orders[0][1] == min(k, n)


@pytest.mark.parametrize("m", [4, 5, 6])
def test_classify_multiple_mate_zero_times_inner_factor(half, m):
    d = classify(half, ZM1**m * Poly([-0.5, 1]))
    assert d.inner_degree == 1
    assert abs(d.inner_roots[0] - 0.5) < 1e-10
    assert d.boundary_orders[0][1] == 1


def test_classify_and_inner_outer_share_the_inner_zeros(half):
    f = Poly.from_roots([0.3, -0.5j, 0.2 + 0.6j, 2.0, -1.0])
    inner, _ = inner_outer(f)
    assert classify(half, f).inner_roots == _inner_roots(f)
    assert np.allclose(sorted(poly_roots(inner.num), key=abs), sorted(_inner_roots(f), key=abs))


@pytest.mark.parametrize("den", [Poly([1, -2]), Poly([1, -1])])  # poles at 1/2 and at 1
def test_distance_rejects_pole_in_closed_disk(half, den):
    with pytest.raises(PoleInDiskError):
        subspace_distance(half, RationalFn(ONE, den), ONE)
    with pytest.raises(PoleInDiskError):
        subspace_distance(half, ZM1, RationalFn(ONE, den))


# -- one gate for generators from outside the space ------------------------

NAN = float("nan")
CANCELLING = RationalFn(Poly([-0.5, 1]) * Poly([1, 1]), Poly([-0.5, 1]))  # (z - 1/2)(z + 1)/(z - 1/2)
NEAR_CIRCLE_POLE = RationalFn(ONE, Poly([1, -1 / (1 + 1e-9)]))  # pole at 1 + 1e-9
NOT_FINITE = RationalFn(Poly([NAN, 1]))  # NaN + z


def _gate_apis(space):
    """The five APIs that take a generator, each reduced to whether it admits f."""
    return {
        "membership": lambda f: membership(space, f),
        "classify": lambda f: classify(space, f) is not None,
        "subspace_distance": lambda f: subspace_distance(space, f, ONE) >= 0.0,
        "inner_outer": lambda f: inner_outer(f) is not None,
        "truncated_vector": lambda f: space.truncated_vector(f, 16) is not None,
    }


def _admits(space, f) -> dict:
    """API name -> True (admitted), False, or the type of the ValidationError raised."""
    out = {}
    for name, call in _gate_apis(space).items():
        try:
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                out[name] = call(f)
        except ValidationError as exc:
            out[name] = type(exc)
    return out


def test_gate_answers_on_the_three_inputs(half):
    assert _admits(half, CANCELLING) == dict.fromkeys(_gate_apis(half), True)
    assert orbit_distance(half, CANCELLING, ONE) == pytest.approx(0.0621, abs=1e-4)
    assert _admits(half, NEAR_CIRCLE_POLE) == {
        "membership": False,
        "classify": InputFormatError,
        **dict.fromkeys(
            ["subspace_distance", "inner_outer", "truncated_vector"],
            PoleInDiskError,
        ),
    }
    assert _admits(half, NOT_FINITE) == dict.fromkeys(_gate_apis(half), InputFormatError)


def test_orbit_window_closes_in_at_its_exact_rate(half):
    # on half the window of W + 1 shift iterates reads exactly 1/sqrt(W + 2)
    # for (z - 1)^2 against z - 1, which generate one subspace
    for window in (8, 16, 32, 64, 128, 256):
        got = cholesky_distance(half, ZM1**2, ZM1, orbit=window)
        assert abs(got - 1 / math.sqrt(window + 2)) <= 1e-14
    assert abs(orbit_distance(half, ZM1**2, ZM1) - 1 / math.sqrt(ORBIT + 2)) <= 1e-14
    assert subspace_distance(half, ZM1**2, ZM1) <= 1e-12


def test_exact_distance_is_zero_where_the_orbit_route_lags(half):
    # generators of one subspace that differ by a factor vanishing on the
    # circle (past the capped order at 1, or at -1, off the mate's zeros):
    # the orbit window closes in only at a 1/sqrt(window) rate
    assert orbit_distance(half, ZM1 * ZM1, ZM1) == pytest.approx(0.0877, abs=1e-4)
    assert subspace_distance(half, ZM1 * ZM1, ZM1) <= 1e-12
    assert orbit_distance(half, CANCELLING, ONE) == pytest.approx(0.0621, abs=1e-4)
    assert subspace_distance(half, CANCELLING, ONE) == 0.0


def _polar(radius, angle):
    return radius * complex(math.cos(angle), math.sin(angle))


_POLE_RADIUS = {
    "inside": st.floats(0.2, 0.9),
    "band": st.floats(-5e-7, 5e-7).map(lambda d: 1.0 + d),
    "just_outside": st.floats(1e-5, 1e-3).map(lambda d: 1.0 + d),
    "far": st.floats(1.5, 4.0),
}


@st.composite
def _gate_case(draw):
    """(f, admitted): one pole of the given kind, optional common factor and bad coefficient.

    Numerator roots sit in the upper half plane, the pole in the lower one
    and the common factor on the negative axis, so no two roots collide.
    """
    num = Poly.from_roots(draw(st.lists(st.builds(
        _polar, st.floats(0.0, 0.8) | st.floats(1.25, 3.0), st.floats(0.1, math.pi - 0.1),
    ), max_size=2)))
    kind = draw(st.sampled_from(["none", *_POLE_RADIUS]))
    den = ONE
    if kind != "none":
        angle = draw(st.floats(math.pi + 0.1, 2 * math.pi - 0.1))
        den = Poly([-_polar(draw(_POLE_RADIUS[kind]), angle), 1])
    if draw(st.booleans()):
        common = Poly([draw(st.floats(0.2, 3.0)), 1])  # root on the negative axis
        num, den = num * common, den * common
    bad = draw(st.sampled_from([None, "num", "den"]))
    if bad is not None:
        part = num if bad == "num" else den
        coeffs = list(part.coeffs)
        coeffs[draw(st.integers(0, len(coeffs) - 1))] = draw(st.sampled_from([NAN, math.inf]))
        if bad == "num":
            num = Poly(coeffs)
        elif not any(math.isinf(abs(c)) for c in coeffs):  # an infinite den is refused earlier
            den = Poly(coeffs)
        else:
            bad = None
    admitted = bad is None and kind in ("none", "just_outside", "far")
    return RationalFn(num, den), admitted


@settings(max_examples=30, deadline=None, database=None, derandomize=True)
@example(case=(CANCELLING, True))
@example(case=(NEAR_CIRCLE_POLE, False))
@example(case=(NOT_FINITE, False))
@given(case=_gate_case())
def test_gate_property(case):
    f, admitted = case
    space = symbol_space("half")
    answers = _admits(space, f)
    assert set(answers.values()) <= {admitted, InputFormatError, PoleInDiskError}
    assert {a is True for a in answers.values()} == {admitted}


@pytest.fixture
def root_calls(monkeypatch):
    """The degrees of the polynomials the gate and the descriptor root, in call order."""
    calls = []
    original = factorization.poly_roots

    def counting(p, rng=None):
        calls.append(p.degree)
        return original(p, rng=rng)

    monkeypatch.setattr(factorization, "poly_roots", counting)
    return calls


def test_classify_roots_each_polynomial_once(half, root_calls):
    # num and den of f in lowest terms, then the numerator left after the
    # boundary zero at 1 is divided out
    f = RationalFn(Poly.from_roots([1, 0.3, -2]), Poly([1, -0.4]) * Poly([1, 0.25j]))
    d = classify(half, f)
    assert d.inner_degree == 1 and d.boundary_orders[0][1] == 1
    assert len(root_calls) <= 3


def test_subspace_distance_gates_each_generator_once(half, root_calls):
    # a rational generator roots its den and num in the gate, and only the
    # part of its numerator off the mate zero after it
    rational = RationalFn(ZM1, Poly([1, -0.5]))  # (z - 1)/(1 - z/2)
    assert subspace_distance(half, rational, ZM1) == 0.0
    assert len(root_calls) == 2
    root_calls.clear()
    inner = Poly([-0.3, 1])
    assert subspace_distance(half, RationalFn(inner, Poly([1, -0.5])), inner) <= 1e-12
    assert len(root_calls) == 4


# -- the rank rule: a Cholesky certificate first, the SVD rule as fallback ----


def _svd_rule_passes(r: np.ndarray) -> bool:
    s = np.linalg.svd(r, compute_uv=False)
    return bool(s[0] > 0.0 and np.all(s > RANK_TOL * s[0]))


def _random_unitary(rng, n: int) -> np.ndarray:
    return np.linalg.qr(rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n)))[0]


def _graded_triangle(rng) -> tuple[np.ndarray, float]:
    """(R, cond): the R factor of U diag(s) V^H, scaled, with a graded spectrum s.

    n is 2..40, cond up to 1e14 and the scale 1e-5..1e5; s falls
    geometrically from 1 to 1/cond, or steps from 1 down to 1/cond.
    """
    n = int(rng.integers(2, 41))
    cond = 10.0 ** rng.uniform(0.0, 14.0)
    if rng.random() < 0.5:
        s = np.geomspace(1.0, 1.0 / cond, n)
    else:
        s = np.where(np.arange(n) < rng.integers(1, n), 1.0, 1.0 / cond)
    m = (_random_unitary(rng, n) * s) @ _random_unitary(rng, n).conj().T
    return np.linalg.qr(m * 10.0 ** rng.uniform(-5.0, 5.0), mode="r"), cond


def test_rank_certificate_never_accepts_what_the_svd_rule_rejects():
    rng = np.random.default_rng(17)
    trials, accepted = 1000, 0
    for _ in range(trials):
        r, cond = _graded_triangle(rng)
        if rank_certified(r):
            accepted += 1
            # what the certificate proves, and the rule it stands in for
            assert np.linalg.svd(r, compute_uv=False)[-1] > RANK_TOL * np.linalg.norm(r)
            assert _svd_rule_passes(r)
        else:
            assert cond > 1e5  # a well-conditioned R is always certified
    assert accepted >= trials // 4


# (name, REFERENCE_PAIRS index): (z - 1)^4 against (z - 1)^3, whose orbits have
# |R|_F / sigma_min of 7e6 to 9e6 there.  Cholesky of R^H R at n = 129 cannot
# prove the rank beyond 1 / sqrt(4 gamma_131), about 4.1e6: the rounding of
# R^H R is then as large as sigma_min^2 itself.
BEYOND_THE_CERTIFICATE = {("affine", 2), ("deg8", 2), ("complex", 2)}


def test_distance_runs_svd_only_beyond_the_certificate(monkeypatch):
    spaces = {name: symbol_space(name) for name in SYMBOLS}
    svd, calls = np.linalg.svd, set()

    def counting(*args, **kwargs):
        calls.add(key)
        return svd(*args, **kwargs)

    monkeypatch.setattr(np.linalg, "svd", counting)
    for name, space in spaces.items():
        for i, (f, g) in enumerate(REFERENCE_PAIRS):
            key = (name, i)
            assert 0.0 <= orbit_distance(space, f, g) <= 1.0 + 1e-12
    assert calls == BEYOND_THE_CERTIFICATE


def test_ill_conditioned_orbit_falls_back_to_the_svd_rule(monkeypatch):
    rng = np.random.default_rng(5)
    x, y, w, v = (rng.standard_normal(12) + 1j * rng.standard_normal(12) for _ in range(4))
    calls = []
    svd = np.linalg.svd

    def counting(*args, **kwargs):
        calls.append(1)
        return svd(*args, **kwargs)

    monkeypatch.setattr(np.linalg, "svd", counting)
    orbit = np.column_stack([x, y, x + 1e-8 * w])  # sigma_min / sigma_max near 1e-8
    r = np.linalg.qr(np.column_stack([orbit, v]), mode="r")
    s = svd(r[:-1, :-1], compute_uv=False)
    assert 1e-10 < s[-1] / s[0] < 1e-7
    assert not rank_certified(r[:-1, :-1])
    assert directed_distance(orbit, v) == float(abs(r[-1, -1]) / np.linalg.norm(v))
    assert len(calls) == 1
    # well-conditioned: certified, no SVD
    directed_distance(np.column_stack([x, y, w]), v)
    assert len(calls) == 1
    with pytest.raises(RankDeficiencyError, match="orbit of 3 iterates has numerical rank 2"):
        directed_distance(np.column_stack([x, y, x + 1e-13 * w]), v)
    assert len(calls) == 2


@pytest.mark.parametrize("name", list(SYMBOLS))
def test_gram_matrix_bytes_match_the_out_of_place_expression(name):
    # in the arithmetic _real_if_exact picks for the phi window
    space = symbol_space(name)
    for n in (1, 2, 17, 256):
        c = _upper_toeplitz(_real_if_exact(np.conj(space.phi_coeffs(n - 1))))
        h = c.conj().T @ c
        expected = np.eye(n) + 0.5 * (h + h.conj().T)
        g = space.gram_matrix(n)
        assert g.dtype == expected.dtype
        assert g.tobytes() == expected.tobytes()


def test_gram_matrix_clears_the_signed_zeros_the_identity_clears():
    # b = -0.4 + 0.2i z^2: at n = 3, 0.5 (h + h^H) holds -0.0 real parts off
    # the diagonal (OpenBLAS zgemm), which eye(n)'s +0.0 turns into +0.0
    space = HbSpace(RationalFn(Poly([-0.4, 0, 0.2j])))
    for n in range(1, 8):
        c = _upper_toeplitz(_real_if_exact(np.conj(space.phi_coeffs(n - 1))))
        h = c.conj().T @ c
        expected = np.eye(n) + 0.5 * (h + h.conj().T)
        assert space.gram_matrix(n).tobytes() == expected.tobytes()


# the N x N arrays of gram_matrix(256) alive at its peak: C and C^H C, and
# conj(C) for a complex C; the out-of-place expression reads 4.01 and 4.13
@pytest.mark.parametrize("name, dtype, arrays", [("model2", np.float64, 2.25),
                                                 ("deg8", np.complex128, 3.25)])
def test_gram_matrix_peak_memory_in_arrays_of_its_size(name, dtype, arrays):
    space = symbol_space(name)
    assert space.gram_matrix(256).dtype == dtype  # phi and BLAS warmed up
    tracemalloc.start()
    try:
        g = space.gram_matrix(256)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= arrays * g.nbytes


@pytest.mark.parametrize("name", ["model2", "deg8"])
def test_gram_matrix_returns_a_fresh_array_apart_from_phi(name):
    space = symbol_space(name)
    first = space.gram_matrix(17)
    want = first.tobytes()
    first[:] = 7.0
    second = space.gram_matrix(17)
    assert second.tobytes() == want
    assert not np.shares_memory(first, second)
    assert not np.shares_memory(second, space.phi_coeffs(16))


# default towers: real symbols, since t = pi gives the exact unit u = -1
REAL_TOWERS = ("model2", "model3")


@pytest.mark.parametrize("name", list(SYMBOLS))
def test_gram_matrix_at_the_bench_size_keeps_the_complex_expressions_bytes(name):
    space = symbol_space(name)
    c = _upper_toeplitz(np.conj(space.phi_coeffs(255)))
    h = c.conj().T @ c
    expected = np.eye(256, dtype=complex) + 0.5 * (h + h.conj().T)
    g = space.gram_matrix(256)
    if name in REAL_TOWERS:
        # real BLAS in place of complex BLAS: the same values to rounding
        # (3.4e-15 and 8.1e-16 relative measured), not the same bytes
        assert g.dtype == np.float64
        bound = 256 * np.finfo(float).eps * np.max(np.abs(g))
        assert np.max(np.abs(g - expected)) <= bound
    else:
        assert np.asarray(g, dtype=complex).tobytes() == expected.tobytes()


# the largest n whose phi window phi_0..phi_(n-1) is exactly real (None: every n)
REAL_WINDOW = {"half": None, "affine": None, "model1": None, "model2": None, "model3": None,
               "deg8": 0, "complex": 0}


@pytest.mark.parametrize("name", list(SYMBOLS))
def test_gram_matrix_is_real_exactly_when_the_phi_window_is(name):
    space = symbol_space(name)
    last = REAL_WINDOW[name]
    for n in (1, 2, 17, 256):
        g = space.gram_matrix(n)
        real = last is None or n <= last
        assert g.dtype == (np.float64 if real else np.complex128)
        assert np.array_equal(g, g.conj().T)  # exactly symmetric or Hermitian
