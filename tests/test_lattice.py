"""Invariant subspace classification, cyclicity, membership, distances."""

import functools
import math
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from hbspace import lattice, polynomials
from hbspace.config import D_TRUNC, DISTANCE_ORBIT
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
    _RANK_TOL,
    _directed_distance,
    _rank_certified,
    classify,
    is_cyclic,
    ladder_spaces,
    membership,
    subspace_distance,
)
from hbspace.polynomials import Poly, RationalFn, _zero_order, as_rational, poly_roots
from hbspace.space import HbSpace, _real_if_exact, _upper_toeplitz

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


# -- the (f, f+) route against the Cholesky reference -------------------------


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
    rank = int(np.sum(s > _RANK_TOL * s[0]))
    if rank < m.shape[1]:
        raise RankDeficiencyError(f"orbit of {m.shape[1]} iterates has numerical rank {rank}")
    return u[:, :rank]


def cholesky_distance(space, f, g, orbit=DISTANCE_ORBIT, degree=D_TRUNC) -> float:
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
        got = subspace_distance(space, f, g)
        assert abs(got - cholesky_distance(space, f, g)) < 1e-10


# -- the metric factor's coordinates against the stacked (f, f+) ones ----------


def stacked_distance(space, f, g, orbit=DISTANCE_ORBIT, degree=D_TRUNC) -> float:
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
        assert abs(subspace_distance(space, f, g) - stacked_distance(space, f, g)) < 1e-10


@pytest.mark.parametrize("name", list(SYMBOLS))
def test_metric_factor_reproduces_the_gram_matrix(name):
    # Bound, set before measuring: Householder QR returns the exact R of
    # M + dM with |dM e_k| <= 2N^2 u |M e_k| per column (Higham, ASNA,
    # Thm 19.4, gamma~_(mn) with m n = 2N^2 and c = 1), so R^H R is within
    # about 2 * 2N^2 u sqrt(G_jj G_kk) of M^H M = G; forming R^H R here and
    # C^H C in gram_matrix add gamma_N each.  6 N^2 u covers all three.
    space = symbol_space(name)
    for n in (1, 8, 136, 200):
        r = space._metric_factor(n)
        assert r.shape == (n, n) and not r.flags.writeable
        assert np.array_equal(np.tril(r, -1), np.zeros_like(r))
        g = space.gram_matrix(n)
        scale = np.sqrt(np.outer(np.diag(g).real, np.diag(g).real))
        assert np.all(np.abs(r.conj().T @ r - g) <= 6 * n * n * 2.0**-53 * scale)


@pytest.mark.parametrize("name", ["half", "model2", "deg8", "complex"])
def test_distance_does_not_depend_on_earlier_calls(name):
    pair = (ZM1**2, ZM1)
    wider = (RationalFn(ZM1, Poly([1, -0.5])), ZM1)  # Taylor-truncated: a larger factor
    space = HbSpace(SYMBOLS[name]())
    before = repr(subspace_distance(space, *pair))
    subspace_distance(space, *wider)
    assert repr(subspace_distance(space, *pair)) == before
    assert repr(subspace_distance(HbSpace(SYMBOLS[name]()), *pair)) == before
    wider_first = HbSpace(SYMBOLS[name]())
    subspace_distance(wider_first, *wider)
    assert repr(subspace_distance(wider_first, *pair)) == before


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
        subspace_distance(space, f, g)
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
        _directed_distance(np.column_stack([x, y, x]), v)
    with pytest.raises(RankDeficiencyError, match="orbit span collapsed to zero"):
        _directed_distance(np.zeros((12, 3), dtype=complex), v)
    # a vector in the span sits at distance zero, one orthogonal to it at one
    orbit = np.column_stack([x, y])
    assert _directed_distance(orbit, 2 * x - 1j * y) < 1e-14
    q, _ = np.linalg.qr(np.column_stack([x, y, v]))
    assert abs(_directed_distance(orbit, q[:, 2]) - 1.0) < 1e-14


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
    assert abs(d - cholesky_distance(space, f, g)) < 1e-9
    assert 0.0 <= d <= 1.0 + 1e-12
    assert subspace_distance(space, f, f) < 1e-12


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
    assert subspace_distance(half, CANCELLING, ONE) == pytest.approx(0.0621, abs=1e-4)
    assert _admits(half, NEAR_CIRCLE_POLE) == {
        "membership": False,
        "classify": InputFormatError,
        **dict.fromkeys(
            ["subspace_distance", "inner_outer", "truncated_vector"],
            PoleInDiskError,
        ),
    }
    assert _admits(half, NOT_FINITE) == dict.fromkeys(_gate_apis(half), InputFormatError)


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


def test_classify_roots_each_polynomial_once(half, monkeypatch):
    # num and den of f in lowest terms, then the numerator left after the
    # boundary zero at 1 is divided out
    f = RationalFn(Poly.from_roots([1, 0.3, -2]), Poly([1, -0.4]) * Poly([1, 0.25j]))
    calls = []
    original = polynomials.poly_roots

    def counting(p, rng=None):
        calls.append(p.degree)
        return original(p, rng=rng)

    monkeypatch.setattr(polynomials, "poly_roots", counting)
    d = classify(half, f)
    assert d.inner_degree == 1 and d.boundary_orders[0][1] == 1
    assert len(calls) <= 3


# -- the rank rule: a Cholesky certificate first, the SVD rule as fallback ----


def _svd_rule_passes(r: np.ndarray) -> bool:
    s = np.linalg.svd(r, compute_uv=False)
    return bool(s[0] > 0.0 and np.all(s > _RANK_TOL * s[0]))


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
        if _rank_certified(r):
            accepted += 1
            # what the certificate proves, and the rule it stands in for
            assert np.linalg.svd(r, compute_uv=False)[-1] > _RANK_TOL * np.linalg.norm(r)
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

    monkeypatch.setattr(lattice.np.linalg, "svd", counting)
    for name, space in spaces.items():
        for i, (f, g) in enumerate(REFERENCE_PAIRS):
            key = (name, i)
            assert 0.0 <= subspace_distance(space, f, g) <= 1.0 + 1e-12
    assert calls == BEYOND_THE_CERTIFICATE


def test_ill_conditioned_orbit_falls_back_to_the_svd_rule(monkeypatch):
    rng = np.random.default_rng(5)
    x, y, w, v = (rng.standard_normal(12) + 1j * rng.standard_normal(12) for _ in range(4))
    calls = []
    svd = np.linalg.svd

    def counting(*args, **kwargs):
        calls.append(1)
        return svd(*args, **kwargs)

    monkeypatch.setattr(lattice.np.linalg, "svd", counting)
    orbit = np.column_stack([x, y, x + 1e-8 * w])  # sigma_min / sigma_max near 1e-8
    r = np.linalg.qr(np.column_stack([orbit, v]), mode="r")
    s = svd(r[:-1, :-1], compute_uv=False)
    assert 1e-10 < s[-1] / s[0] < 1e-7
    assert not _rank_certified(r[:-1, :-1])
    assert _directed_distance(orbit, v) == float(abs(r[-1, -1]) / np.linalg.norm(v))
    assert len(calls) == 1
    # well-conditioned: certified, no SVD
    _directed_distance(np.column_stack([x, y, w]), v)
    assert len(calls) == 1
    with pytest.raises(RankDeficiencyError, match="orbit of 3 iterates has numerical rank 2"):
        _directed_distance(np.column_stack([x, y, x + 1e-13 * w]), v)
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


@pytest.mark.parametrize("name", list(SYMBOLS))
def test_gram_matrix_at_the_bench_size_keeps_the_complex_expressions_bytes(name):
    space = symbol_space(name)
    c = _upper_toeplitz(np.conj(space.phi_coeffs(255)))
    h = c.conj().T @ c
    expected = np.eye(256, dtype=complex) + 0.5 * (h + h.conj().T)
    assert np.asarray(space.gram_matrix(256), dtype=complex).tobytes() == expected.tobytes()


# the largest n whose phi window phi_0..phi_(n-1) is exactly real (None: every n)
REAL_WINDOW = {"half": None, "affine": None, "model1": None, "model2": 1, "model3": 1,
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
