"""Spectral factorization on the unit circle.

The central operation takes a rational b = p/q in the closed unit ball of
H-infinity and produces its outer companion a = r/q with
|a|^2 + |b|^2 = 1 on the circle and a(0) > 0.  The numerator r comes from
factoring the Laurent polynomial |q|^2 - |p|^2: roots off the circle pair
as zeta <-> 1/conj(zeta) and the member outside the closed disk is kept,
while circle roots occur with even multiplicity and are split evenly.

Circle-root clusters shrink like eps^(1/(2m)) for multiplicity m, far
wider than any fixed tolerance once m > 1, so the clustering distance is
chosen adaptively from a ladder and the winner is whichever candidate
actually drives the circle residual below tolerance.

``boundary_order`` applies the two point rules of ``polynomials``: a pole
at lam when |den(lam)| <= TOL.pole * B_den(lam), else order k when k
synthetic divisions each leave a remainder within TOL.boundary * B(lam)
of the quotient divided.  ``_inner_roots`` is the one rule for which
computed roots are inner zeros; ``inner_outer`` and ``lattice.classify``
build their Blaschke factor from it.

For rational nonextreme b, a rational f lies in H(b) exactly when it is
analytic on the closed disk (Sarason 1994), so one gate, ``_lowest_terms``,
admits every function from outside the space by its nearest pole.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

import numpy as np

from .config import CIRCLE_BAND, CIRCLE_GRID, DEFAULT_TOLERANCES as TOL
from .errors import (
    ExtremeFunctionError,
    FactorizationError,
    InputFormatError,
    NotInUnitBallError,
    PoleInDiskError,
    ZeroFunctionError,
)
from .polynomials import (
    Poly,
    RationalFn,
    _match_roots,
    _zero_order,
    as_rational,
    cluster_points,
    complex_to_json,
    poly_roots,
    polish_multiple_root,
    synthetic_division,
)

_CLUSTER_LADDER = (1e-7, 1e-6, 1e-5, 1e-4, 1e-3, 1e-2, 5e-2)

# Roots this close to the circle may be shadows of a multiple circle zero:
# a multiplicity-m zero splatters by roughly eps^(1/m), 1e-3 around m = 5.
_NEAR_BAND = 1e-3


def circle_grid() -> np.ndarray:
    return np.exp(2j * np.pi * np.arange(CIRCLE_GRID) / CIRCLE_GRID)


@dataclass(frozen=True)
class MateResult:
    """Outer companion of b together with its circle zero structure.

    a               the mate, a = r/q with the same denominator as b
    boundary_zeros  [(unit-modulus point, multiplicity), ...] sorted by angle
    residual        max over the circle grid of | |a|^2 + |b|^2 - 1 |
    pole_radius     modulus of the nearest root of q (inf for polynomial b),
                    found once while validating b; not part of the JSON form
    """

    a: RationalFn
    boundary_zeros: tuple[tuple[complex, int], ...]
    residual: float
    pole_radius: float

    def to_json(self) -> dict:
        return {
            "a": self.a.to_json(),
            "boundary_zeros": [
                {"point": complex_to_json(lam), "multiplicity": int(m)}
                for lam, m in self.boundary_zeros
            ],
            "residual": self.residual,
        }


def _check_finite(f: RationalFn) -> None:
    if not all(cmath.isfinite(c) for c in f.num.coeffs + f.den.coeffs):
        raise InputFormatError("coefficients must be finite")


def _clear_of_disk(radius: float) -> float:
    """radius, unless the pole sits in the closed disk or on the circle band."""
    if radius <= 1.0 + CIRCLE_BAND:
        raise PoleInDiskError(
            f"denominator root at modulus {radius:.6f}, in the closed disk or within "
            f"{CIRCLE_BAND:g} of the circle"
        )
    return radius


def _disk_pole_check(b: RationalFn) -> float:
    """The symbol rule: finite, nearest pole (inf if none) clear of the disk; b is not reduced."""
    _check_finite(b)
    return _clear_of_disk(float(np.min(np.abs(b.poles()), initial=np.inf)))


def _cancel_common_roots(num: Poly, den: Poly) -> tuple[Poly, Poly, list[complex]]:
    """Divide out numerator/denominator root pairs that match within the gcd tolerance.

    Returns (num, den, roots of den) after the cancellation, the same num
    and den objects if nothing matched; num must be nonzero.
    """
    if den.degree == 0:
        return num, den, []
    matched, new_rd, keep_n = _match_roots(poly_roots(den), poly_roots(num), TOL.gcd)
    if not matched:
        return num, den, new_rd
    lead_n = num.coeffs[-1]
    lead_d = den.coeffs[-1]
    return Poly.from_roots(keep_n, lead_n), Poly.from_roots(new_rd, lead_d), new_rd


def _lowest_terms(f) -> tuple[RationalFn, float]:
    """The gate for f from outside the space: f finite and in lowest terms,
    with the modulus of its nearest pole (inf if none) read from the roots
    the cancellation found.  PoleInDiskError for a pole inside the circle
    band; a pole on the band is for the caller to judge."""
    f = as_rational(f)
    _check_finite(f)
    if f.num.is_zero:
        return RationalFn(Poly()), math.inf
    num, den, poles = _cancel_common_roots(f.num, f.den)
    radius = float(np.min(np.abs(poles), initial=np.inf))
    if radius < 1.0 - CIRCLE_BAND:
        raise PoleInDiskError(f"denominator root at modulus {radius:.6f} inside the disk")
    return (f if num is f.num else RationalFn(num, den)), radius


def _analytic_lowest_terms(f) -> tuple[RationalFn, float]:
    """``_lowest_terms``, with a pole on the circle band rejected as well."""
    f, radius = _lowest_terms(f)
    return f, _clear_of_disk(radius)


def _validate(b: RationalFn):
    """One pass over b = p/q: finite, no pole in the closed disk, in the closed ball.

    The ball rule rejects b (NotInUnitBallError) when, on the grid,
    sup |b| > 1 + 10 TOL.mate or the density |q|^2 - |p|^2 dips below
    -10 TOL.mate max |q|^2.  Returns the modulus of q's nearest root, the
    grid zs, q and p on it, the density, the coefficients of
    z^d (|q|^2 - |p|^2) (full length 2d + 1) with their scale, and whether
    b is nonextreme.
    """
    radius = _disk_pole_check(b)
    zs = circle_grid()
    qv, pv = b.den(zs), b.num(zs)
    sup = np.max(np.abs(pv / qv))
    density = np.abs(qv) ** 2 - np.abs(pv) ** 2
    if (sup > 1.0 + 10.0 * TOL.mate
            or np.min(density) < -10.0 * TOL.mate * np.max(np.abs(qv)) ** 2):
        raise NotInUnitBallError(f"sup |b| on the circle is {sup:.12f}")
    p, q = b.num, b.den
    d = int(max(p.degree if not p.is_zero else 0, q.degree))
    arr = (q * q.reflect(d)).coeff_array(2 * d + 1)
    scale = float(np.max(np.abs(arr)))
    if not p.is_zero:
        arr = arr - (p * p.reflect(d)).coeff_array(2 * d + 1)
    return radius, zs, qv, pv, density, arr, scale, bool(np.max(np.abs(arr)) > 1e-10 * scale)


def is_nonextreme(b) -> bool:
    """True iff 1 - |b|^2 is not identically zero on the circle.

    Raises InputFormatError for non-finite coefficients, PoleInDiskError
    for poles in the closed disk and NotInUnitBallError for b outside the
    closed ball, by the one rule of ``_validate`` that ``HbSpace`` and
    ``pythagorean_mate`` apply too.
    """
    return _validate(as_rational(b))[-1]


def _strip_symmetric_zeros(arr: np.ndarray, scale: float) -> np.ndarray:
    k = 0
    while (
        len(arr) - 2 * k > 1
        and abs(arr[k]) <= 1e-12 * scale
        and abs(arr[len(arr) - 1 - k]) <= 1e-12 * scale
    ):
        k += 1
    return arr[k : len(arr) - k]


def _circle_center(p: Poly, cluster: np.ndarray) -> complex:
    """The mean of a near-circle root cluster, refined as a len(cluster)-fold
    root of p and snapped onto the circle; 0 if the refinement lands on 0."""
    center = polish_multiple_root(p, complex(np.mean(cluster)), len(cluster))
    return center / abs(center) if center else 0j


def _candidate_factor(
    p1: Poly,
    roots: np.ndarray,
    tau: float,
    pair_tol: float,
) -> tuple[Poly, list[tuple[complex, int]]] | None:
    """Try to split the root set at circle window tau; None if inconsistent."""
    mods = np.abs(roots)
    on_circle = np.abs(mods - 1.0) <= tau
    circle_roots = roots[on_circle]
    rest = roots[~on_circle]
    inside = [complex(r) for r in rest[np.abs(rest) < 1.0]]
    outside = [complex(r) for r in rest[np.abs(rest) >= 1.0]]
    if len(inside) != len(outside):
        return None
    # Every inside root must find its reflected partner outside.
    _, unmatched, _ = _match_roots([1.0 / r.conjugate() for r in inside], outside, pair_tol)
    if unmatched:
        return None

    pairs: list[tuple[complex, int]] = []
    if len(circle_roots):
        for cluster in cluster_points(circle_roots, 3.0 * tau):
            if len(cluster) % 2 != 0:
                return None
            center = _circle_center(p1, cluster)
            if center == 0:
                return None
            pairs.append((center, len(cluster) // 2))
    factor = Poly([1])
    for w in outside:
        factor = factor * Poly([-w, 1])
    for mu, m in pairs:
        factor = factor * Poly([-mu, 1]) ** m
    return factor, pairs


def pythagorean_mate(b, rng: np.random.Generator | None = None) -> MateResult:
    """Outer a = r/q with |a|^2 + |b|^2 = 1 on the circle and a(0) > 0.

    Raises the symbol errors of ``is_nonextreme``, ExtremeFunctionError
    when |b| = 1 a.e., and FactorizationError when no clustering on the
    ladder meets the residual tolerance or the mate vanishes at the origin.
    The density |q|^2 - |p|^2 on the grid, from ``_validate``, fixes the
    scale gamma^2 of each candidate factor.
    """
    b = as_rational(b)
    radius, zs, qv, pv, density, arr, scale, nonextreme = _validate(b)
    if not nonextreme:
        raise ExtremeFunctionError("b is an extreme point; no mate exists")

    sym_gap = np.max(np.abs(arr - np.conj(arr[::-1])))
    if sym_gap > 1e-10 * scale:
        raise FactorizationError(
            f"Laurent coefficients not conjugate-symmetric (gap {sym_gap:.3e})"
        )
    arr = 0.5 * (arr + np.conj(arr[::-1]))  # enforce the symmetry exactly
    p1 = Poly(_strip_symmetric_zeros(arr, scale))

    if p1.degree <= 0:
        roots = np.zeros(0, dtype=complex)
    else:
        roots = poly_roots(p1, rng=rng)

    best: tuple[float, Poly, list[tuple[complex, int]]] | None = None
    for tau in _CLUSTER_LADDER:
        cand = _candidate_factor(p1, roots, tau, pair_tol=max(1e-6, tau))
        if cand is None:
            continue
        factor, pairs = cand
        mag2 = np.abs(factor(zs)) ** 2
        mask = mag2 > 1e-10 * np.max(mag2)
        if not np.any(mask):
            continue
        gamma2 = float(np.median(density[mask] / mag2[mask]))
        if gamma2 <= 0:
            continue
        residual = float(np.max(np.abs(gamma2 * mag2 - density) / np.abs(qv) ** 2))
        if best is None or residual < best[0]:
            best = (residual, factor * np.sqrt(gamma2), pairs)
        if residual <= TOL.mate:
            break
    if best is None or best[0] > TOL.mate:
        got = "no consistent clustering" if best is None else f"residual {best[0]:.3e}"
        raise FactorizationError(f"mate factorization failed: {got}")
    _, r, pairs = best
    return _finalize(b, r, pairs, zs, qv, pv, radius)


def _finalize(b, r: Poly, pairs, zs, qv, pv, pole_radius: float) -> MateResult:
    a = RationalFn(r, b.den)
    a0 = a(0)
    if abs(a0) < 1e-15:
        raise FactorizationError("mate vanishes at the origin")
    a = RationalFn(a.num * (a0.conjugate() / abs(a0)), a.den)
    av = a(zs)
    bv = pv / qv
    residual = float(np.max(np.abs(np.abs(av) ** 2 + np.abs(bv) ** 2 - 1.0)))
    zeros = tuple(sorted(((lam, m) for lam, m in pairs), key=lambda t: np.angle(t[0])))
    return MateResult(a=a, boundary_zeros=zeros, residual=residual, pole_radius=pole_radius)


def boundary_order(f: RationalFn, lam: complex) -> int:
    """Largest k with f, f', ..., f^(k-1) all vanishing at lam.

    The order of the numerator's zero by ``_zero_order``; PoleAtPointError
    where the denominator vanishes at lam by the pole rule of
    ``RationalFn.__call__``.
    """
    f = as_rational(f)
    if f.num.is_zero:
        raise ZeroFunctionError("the zero function vanishes to every order")
    f(lam)  # raises PoleAtPointError at a pole
    return _zero_order(f.num, lam)[0]


def _inner_roots(num: Poly) -> tuple[complex, ...]:
    """Zeros of num strictly inside the disk, with circle shadows removed.

    A multiplicity-m zero on the circle splatters into a cluster of m
    computed roots of radius ~eps^(1/m), some inside the disk.  Each
    near-circle cluster is audited by ``_zero_order`` at its center
    (``_circle_center``), and that many members nearest the center are
    discarded as shadows.
    """
    if num.degree < 1:
        return ()
    roots = poly_roots(num)
    inner = [complex(r) for r in roots if abs(r) < 1.0 - _NEAR_BAND]
    near = roots[np.abs(np.abs(roots) - 1.0) <= _NEAR_BAND]
    for cluster in cluster_points(near, link=3 * _NEAR_BAND):
        center = _circle_center(num, cluster)
        m, _ = _zero_order(num, center)
        members = sorted((complex(r) for r in cluster), key=lambda r: abs(r - center))
        inner.extend(r for r in members[m:] if abs(r) < 1.0)
    return tuple(sorted(inner, key=lambda w: (w.real, w.imag)))


def _blaschke(zeros) -> RationalFn:
    """prod (z - zeta) / (1 - conj(zeta) z) over the given open-disk zeros."""
    num, den = Poly([1]), Poly([1])
    for zeta in zeros:
        num = num * Poly([-zeta, 1])
        den = den * Poly([1, -zeta.conjugate()])
    return RationalFn(num, den)


def inner_outer(f) -> tuple[RationalFn, RationalFn]:
    """Blaschke inner factor over the open-disk zeros, and the outer rest.

    The inner part is prod (z - zeta_i) / (1 - conj(zeta_i) z) over the
    numerator zeros that ``_inner_roots`` keeps; the outer part keeps
    boundary zeros and everything else.
    """
    f, _ = _analytic_lowest_terms(f)
    if f.num.is_zero:
        raise ZeroFunctionError("cannot factor the zero function")
    zeros = _inner_roots(f.num)
    deflated = f.num
    for zeta in zeros:
        deflated, _ = synthetic_division(deflated, zeta, 1)
    inner = _blaschke(zeros)
    return inner, RationalFn(deflated * inner.den, f.den)
