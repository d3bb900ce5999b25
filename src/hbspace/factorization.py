"""Spectral factorization on the unit circle.

The central operation takes a rational b = p/q in the closed unit ball of
H-infinity and produces its outer companion a = r/q with
|a|^2 + |b|^2 = 1 on the circle and a(0) > 0.  The numerator r comes from
factoring the Laurent polynomial |q|^2 - |p|^2: roots off the circle pair
as zeta <-> 1/conj(zeta) and the member outside the closed disk is kept,
while circle roots occur with even multiplicity and are split evenly.
One number certifies the mate: max | |a|^2 + |b|^2 - 1 | over
``circle_grid()``, which ``pythagorean_mate`` checks against TOL.mate
and reports, the factorization's only acceptance test: roots that do
not pair leave |a|^2 off the density, and the FactorizationError names
the residual.  Its two other FactorizationErrors guard arithmetic:
gamma^2 <= 0 before a square root, a(0) = 0 before a division.

Circle zeros are decided before anything is rooted, because rooting
splatters an m-fold circle zero into a cluster of radius ~eps^(1/m).  The
circle rule (``_circle_zeros``, the grid-seeded case of Zeng, Math. Comp.
2005): each local minimum of |p| on the grid below 1e-2 of its maximum is
a zero when ``_zero_order`` reads the least order at the grid point or at
the root polished from it; its multiplicity is the largest m whose m-fold
polish, snapped to the circle, the caller's value test accepts and the
zero rule reads in full, and that pass divides it out.  The mate applies
it to the density with least order 2, ``_inner_roots`` to a numerator
with least order 1; only the quotient is rooted.  The value test keeps a
root pair just off the circle, which the zero rule reads as a zero too,
for the root finder: a numerator vanishes at lambda within the root
finder's residual TOL.root_residual * B(lambda), and the density where
|q|^2 - |p|^2 is within both that residual and TOL.mate/2 * |q|^2, so a
divided-out zero costs the mate at most half its tolerance.

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
import functools
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
    _horner_bound,
    _zero_order,
    as_rational,
    complex_to_json,
    poly_roots,
    polish_multiple_root,
    synthetic_division,
)


@functools.cache
def circle_grid() -> np.ndarray:
    """The CIRCLE_GRID roots of unity, computed on the first call; one read-only array."""
    zs = np.exp(2j * np.pi * np.arange(CIRCLE_GRID) / CIRCLE_GRID)
    zs.flags.writeable = False
    return zs


def _median(x: np.ndarray) -> float:
    """np.median(x) bit for bit without its first-call import of numpy.ma.

    The mean of the middle one or two entries of np.partition, as np.median
    takes it; NaN when x is empty or holds a NaN (without np.median's warning).
    """
    k = len(x)
    if k == 0 or np.isnan(x).any():
        return math.nan
    lo, hi = (k - 1) // 2, k // 2
    return float(np.partition(x, [lo, hi])[lo : hi + 1].mean())


@dataclass(frozen=True)
class MateResult:
    """Outer companion of b together with its circle zero structure.

    a               the mate, a = r/q with the same denominator as b
    boundary_zeros  [(unit-modulus point, multiplicity), ...] sorted by angle
    residual        max over the circle grid of | |a|^2 + |b|^2 - 1 |, the
                    number checked against TOL.mate
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
    -10 TOL.mate max |q|^2.  A value that overflows on the grid fails it
    too: q(0) = 1 and q has no root in the closed disk, so |q| <= 2^deg q
    there and only |p| can overflow.  Returns the modulus of q's nearest
    root, b = p/q on the grid, the density, the coefficients of
    z^d (|q|^2 - |p|^2) (full length 2d + 1) with their scale, and whether
    b is nonextreme.
    """
    radius = _disk_pole_check(b)
    zs = circle_grid()
    with np.errstate(over="ignore", invalid="ignore"):
        qv, pv = b.den(zs), b.num(zs)
        bv = pv / qv
        sup = np.max(np.abs(bv))
        density = np.abs(qv) ** 2 - np.abs(pv) ** 2
    if not (sup <= 1.0 + 10.0 * TOL.mate
            and np.min(density) >= -10.0 * TOL.mate * np.max(np.abs(qv)) ** 2):
        raise NotInUnitBallError(f"sup |b| on the circle is {sup:.12f}")
    p, q = b.num, b.den
    d = int(max(p.degree if not p.is_zero else 0, q.degree))
    arr = (q * q.reflect(d)).coeff_array(2 * d + 1)
    scale = float(np.max(np.abs(arr)))
    if not p.is_zero:
        arr = arr - (p * p.reflect(d)).coeff_array(2 * d + 1)
    return radius, bv, density, arr, scale, bool(np.max(np.abs(arr)) > 1e-10 * scale)


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


def _on_circle(w: complex) -> complex | None:
    """w pushed radially onto the circle; None for 0 or a non-finite w."""
    return w / abs(w) if w and cmath.isfinite(w) else None


def _circle_zeros(
    p: Poly, magnitude: np.ndarray, least: int, vanishes
) -> tuple[list[tuple[complex, int]], Poly]:
    """The circle rule: ([(lambda, m), ...], p with those zeros divided out).

    ``magnitude`` is |p| on ``circle_grid()``.  Each local minimum below
    1e-2 of its maximum is a zero when ``_zero_order`` reads ``least`` at
    the grid point or else at ``polish_multiple_root(p, ., least)`` from
    it, snapped to the circle.  Its multiplicity is the largest m, counted
    down from deg p in steps of ``least``, whose m-fold polish from the
    point that read, snapped, ``vanishes`` accepts and ``_zero_order`` reads
    in full; that pass divides it out.  The zero rule alone also reads a root pair
    just off the circle, so the caller's ``vanishes(lambda)`` says where
    its function is zero at lambda itself.
    """
    low = ((magnitude <= np.roll(magnitude, 1)) & (magnitude <= np.roll(magnitude, -1))
           & (magnitude < 1e-2 * np.max(magnitude)))
    zeros = []
    for z0 in circle_grid()[low]:
        if p.degree < least:
            break
        z0 = complex(z0)
        if _zero_order(p, z0, least)[0] < least:
            z0 = _on_circle(polish_multiple_root(p, z0, least))
            if z0 is None or _zero_order(p, z0, least)[0] < least:
                continue
        for m in range(p.degree, least - 1, -least):
            lam = _on_circle(polish_multiple_root(p, z0, m))
            if lam is None or not vanishes(lam):
                continue
            order, quot = _zero_order(p, lam, m)
            if order == m:
                zeros.append((lam, m))
                p = quot
                break
    return zeros, p


def pythagorean_mate(b, rng: np.random.Generator | None = None) -> MateResult:
    """Outer a = r/q with |a|^2 + |b|^2 = 1 on the circle and a(0) > 0.

    Raises the symbol errors of ``is_nonextreme``, ExtremeFunctionError
    when |b| = 1 a.e., and FactorizationError when the scale gamma^2 that
    the density fixes is not positive, the mate vanishes at the origin,
    or the residual the result reports exceeds TOL.mate.  r takes the
    roots on or outside the circle, so a is outer whether or not the rest
    pair as zeta <-> 1/conj(zeta); the residual shows when they do not.
    The Laurent coefficients are symmetrized exactly before rooting.  The
    circle zeros of the density |q|^2 - |p|^2 (on the grid, from
    ``_validate``) come first; each 2m-fold one gives the mate an m-fold
    zero.
    """
    b = as_rational(b)
    radius, bv, density, arr, scale, nonextreme = _validate(b)
    if not nonextreme:
        raise ExtremeFunctionError("b is an extreme point; no mate exists")

    arr = 0.5 * (arr + np.conj(arr[::-1]))  # enforce the symmetry exactly
    dens = Poly(_strip_symmetric_zeros(arr, scale))

    def vanishes(w: complex) -> bool:
        # 1 - |b|^2 at w, times |q|^2: below the root finder's residual, which
        # could not part a root pair there, and below half the mate tolerance
        q2 = abs(b.den(w)) ** 2
        return q2 - abs(b.num(w)) ** 2 <= min(
            TOL.root_residual * _horner_bound(dens.coeffs, w), 0.5 * TOL.mate * q2
        )

    circle, rest = _circle_zeros(dens, density, 2, vanishes)
    outside = [complex(r) for r in poly_roots(rest, rng=rng) if abs(r) >= 1.0]
    pairs = [(lam, m // 2) for lam, m in circle]
    factor = Poly.from_roots(outside)
    for lam, m in pairs:
        factor = factor * Poly([-lam, 1]) ** m
    zs = circle_grid()
    mag2 = np.abs(factor(zs)) ** 2
    mask = mag2 > 1e-10 * np.max(mag2)
    gamma2 = _median(density[mask] / mag2[mask])
    if not gamma2 > 0:
        raise FactorizationError(f"mate factorization failed: scale gamma^2 = {gamma2:.3e}")
    a = RationalFn(factor * np.sqrt(gamma2), b.den)
    a0 = a(0)
    if abs(a0) < 1e-15:
        raise FactorizationError("mate vanishes at the origin")
    a = RationalFn(a.num * (a0.conjugate() / abs(a0)), a.den)
    residual = float(np.max(np.abs(np.abs(a(zs)) ** 2 + np.abs(bv) ** 2 - 1.0)))
    if not residual <= TOL.mate:
        raise FactorizationError(f"mate factorization failed: residual {residual:.3e}")
    zeros = tuple(sorted(pairs, key=lambda t: np.angle(t[0])))
    return MateResult(a=a, boundary_zeros=zeros, residual=residual, pole_radius=radius)


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
    """Zeros of num strictly inside the disk: with its circle zeros divided
    out by the circle rule at least order 1, the roots of the quotient
    inside 1 - CIRCLE_BAND."""
    if num.degree < 1:
        return ()
    _, rest = _circle_zeros(
        num, np.abs(num(circle_grid())), 1,
        lambda w: abs(num(w)) <= TOL.root_residual * _horner_bound(num.coeffs, w),
    )
    inner = [complex(r) for r in poly_roots(rest) if abs(r) < 1.0 - CIRCLE_BAND]
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
