"""Shift-invariant subspaces of H(b) generated by rational members.

For rational nonextreme b the closed shift-invariant subspace [f]
generated by a member f is pinned down by finite data: the Blaschke
factor theta collecting f's zeros in the open disk, and at each
boundary zero lambda_i of the mate (multiplicity m_i) the capped
vanishing order j_i = min(ord_{lambda_i} f, m_i).  Zeros of f elsewhere
on the circle do not matter.  Two members generate the same subspace
exactly when those data agree, and

    canonical(f) = theta(z) * prod_i (z - lambda_i)^(j_i)

is the simplest generator.  [f] is all of H(b) (f is cyclic) when theta
is trivial and every j_i = 0.

Every generator first passes the gate factorization._lowest_terms, so
it is finite and in lowest terms; a pole inside the disk raises
PoleInDiskError, and one on the circle band is not a member.

classify reads ord_{lambda_i} f and divides it out of the numerator in
one pass (polynomials._zero_order) before rooting the rest, so a
multiple zero at a mate zero cannot splatter into theta (see
factorization._inner_roots).

subspace_distance gives the numeric side: the gap between the spans of
the first K shift iterates of two generators, measured in the H(b)
inner product.  Equal subspaces show a small gap that decays as K
grows; distinct ones stay separated.

The monomial Gram matrix is G = I + C^H C = M^H M with M = [I; C], C the
companion map (see space.py).  The space keeps R_N, the triangular QR
factor of the 2N x N matrix M_N = [I_N; C_N], so R_N^H R_N = G_N and
x -> R_N x carries the H(b) metric onto euclidean space for every
polynomial of degree below N; no Gram matrix is formed or factored.  An
orbit is R_N F, F the Toeplitz matrix of its generator's coefficients,
F[j, k] = f_(j-k), built by space's upper Toeplitz builder and transposed:
N rows, against the 2N of the stacked (f, f+) coordinates M_N F.

N depends on the window alone: window + 1 rounded up to a multiple of 8.
So a distance never depends on which distances came before it, and
nearby windows (130-133 for generators of degree 1-4) share one factor:
the space keeps only the last size's, and the rounding is what lets two
distances in a row on one space, as in a gram query, reuse it.
A larger factor's leading block is not bitwise the smaller one, so a
factor is never read off a larger one.  For a polynomial generator any
N at least the window gives the same geometry in exact arithmetic.

When phi_0..phi_(N-1) are real, R_N is float64; with a real generator the
orbit is too, and its QR and the rank certificate below run in real
arithmetic.

Each direction of the distance needs the orbit to have full numerical
rank.  The rule is the one of its singular values: with R the triangular
QR factor of the orbit, sigma_min(R) > _RANK_TOL * sigma_max(R), else
RankDeficiencyError.  An SVD per direction is costly, so the rule is
first certified without one: a floating-point Cholesky of
R^H R - delta I with

    delta = (_RANK_TOL^2 + 4 gamma_(n+2)) |R|_F^2,
    gamma_k = k u / (1 - k u),  u = 2^-53,  n the order of R,

that runs to completion proves sigma_min(R) > _RANK_TOL |R|_F, which is
at least _RANK_TOL sigma_max(R).  In 2-norm, relative to |R|_F^2 =
trace(R^H R), the 4 gamma_(n+2) covers three roundings:

- forming A = R^H R: inner products of length n, complex or real, are
  off by at most gamma_(n+2) |R|^H |R| entrywise, whose 2-norm is
  <= |R|_F^2;
- the diagonal shift: u;
- the Cholesky: one that runs to completion is exact for a matrix within
  2 gamma_(n+2) sqrt(a_ii a_jj) entrywise (Demmel's real-arithmetic
  bound gamma_(n+1) / (1 - gamma_(n+1)), doubled here for complex), a
  perturbation of 2-norm at most 2 gamma_(n+2) trace(A).  This is the
  condition of Rump, "Verification of positive definiteness", BIT 46
  (2006).  A real orbit needs only half of that term, so the one delta
  stays a proof in real arithmetic.

What is left, about gamma_(n+2) - u > 0, keeps the proof strict and
puts sigma_min above sqrt(gamma_(n+2) / 2) |R|_F, at least 1e-8 |R|_F:
far above the SVD's own rounding, so the SVD rule would pass as well.
Because R^H R squares the condition number, the certificate reaches no
further than |R|_F / sigma_min of about 1 / sqrt(4 gamma_(n+2)), 4.1e6
for the 129-iterate orbits.  Beyond that, and when R is zero, non-finite
or so small that u |R|_F^2 underflows, the SVD rule runs, with its
messages.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .config import CIRCLE_BAND, D_TRUNC, DISTANCE_ORBIT
from .errors import (
    InputFormatError,
    MultipleBoundaryZeroError,
    RankDeficiencyError,
)
from .factorization import _analytic_lowest_terms, _blaschke, _inner_roots, _lowest_terms
from .polynomials import Poly, RationalFn, _zero_order, complex_to_json
from .space import HbSpace, _real_if_exact, _upper_toeplitz

_RANK_TOL = 1e-10

# Unit roundoff of double precision, and the least |R|_F^2 the rank
# certificate accepts: above it u |R|_F^2 is a normal number, so
# underflow stays far below the rounding terms of the certificate.
_UNIT_ROUNDOFF = 2.0**-53
_CERTIFIABLE_FRO2 = np.finfo(float).tiny / _UNIT_ROUNDOFF


@dataclass(frozen=True, eq=False)
class SubspaceDescriptor:
    """Classifying data of the invariant subspace [f]."""

    form: str  # "zero" | "full" | "proper"
    inner_roots: tuple[complex, ...]
    boundary_orders: tuple[tuple[complex, int], ...]
    canonical: RationalFn
    description: str

    @property
    def inner_degree(self) -> int:
        return len(self.inner_roots)

    def same_as(self, other: "SubspaceDescriptor") -> bool:
        """Same form, boundary orders and inner roots (within 1e-8)."""
        if self.form != other.form:
            return False
        if [j for _, j in self.boundary_orders] != [j for _, j in other.boundary_orders]:
            return False
        if self.inner_degree != other.inner_degree:
            return False
        mine = sorted(self.inner_roots, key=lambda w: (w.real, w.imag))
        theirs = sorted(other.inner_roots, key=lambda w: (w.real, w.imag))
        return all(abs(x - y) <= 1e-8 for x, y in zip(mine, theirs))

    def to_json(self) -> dict:
        return {
            "form": self.form,
            "inner_roots": [complex_to_json(w) for w in self.inner_roots],
            "boundary_orders": [
                {"lambda": complex_to_json(lam), "order": j}
                for lam, j in self.boundary_orders
            ],
            "canonical": self.canonical.to_json(),
            "description": self.description,
        }


def membership(space: HbSpace, f) -> bool:
    """Whether the rational function f belongs to H(b).

    For rational nonextreme b that only depends on f: analytic on the
    closed disk means member, a pole on the circle means not, and a pole
    inside the disk is rejected outright (f is not even in H^2).
    """
    _, radius = _lowest_terms(f)
    return radius > 1.0 + CIRCLE_BAND


def classify(space: HbSpace, f) -> SubspaceDescriptor:
    """The descriptor of [f]; InputFormatError unless f is a member of H(b)."""
    f, radius = _lowest_terms(f)
    if f.num.is_zero:
        return SubspaceDescriptor(
            form="zero",
            inner_roots=(),
            boundary_orders=tuple((lam, m) for lam, m in space.boundary_zeros),
            canonical=RationalFn(Poly([]), Poly([1])),
            description="the zero subspace",
        )
    if radius <= 1.0 + CIRCLE_BAND:
        raise InputFormatError("not a member of the space: pole on the unit circle")
    orders = []
    canonical_poly = Poly([1])
    rest = f.num  # f.num with its full order at each mate zero divided out
    for lam, mult in space.boundary_zeros:
        k, rest = _zero_order(rest, lam)
        j = min(k, mult)
        orders.append((lam, j))
        canonical_poly = canonical_poly * Poly([-lam, 1]) ** j
    inner_roots = _inner_roots(rest)
    theta = _blaschke(inner_roots)
    canonical = RationalFn(canonical_poly * theta.num, theta.den)
    full = not inner_roots and all(j == 0 for _, j in orders)
    if full:
        desc = "the whole space (cyclic generator)"
    else:
        parts = []
        if inner_roots:
            parts.append(f"inner factor of degree {len(inner_roots)}")
        hit = [(lam, j) for lam, j in orders if j > 0]
        if hit:
            txt = ", ".join(f"order {j} at {lam:.6g}" for lam, j in hit)
            parts.append(f"boundary vanishing {txt}")
        desc = "proper subspace: " + "; ".join(parts)
    return SubspaceDescriptor(
        form="full" if full else "proper",
        inner_roots=inner_roots,
        boundary_orders=tuple(orders),
        canonical=canonical,
        description=desc,
    )


def is_cyclic(space: HbSpace, f) -> bool:
    """True when the shift iterates of f span a dense subspace."""
    return classify(space, f).form == "full"


def ladder_spaces(space: HbSpace) -> list[SubspaceDescriptor]:
    """The chain [1] > [(z-lam)] > ... > [(z-lam)^m] for the single
    boundary zero lam of the mate; descriptor j = 0 is the whole space."""
    if len(space.boundary_zeros) != 1:
        raise MultipleBoundaryZeroError(
            f"ladder needs exactly one boundary zero, found {len(space.boundary_zeros)}"
        )
    lam, mult = space.boundary_zeros[0]
    return [classify(space, Poly([-lam, 1]) ** j) for j in range(mult + 1)]


def _orbit_matrix(space: HbSpace, f: RationalFn, window: int) -> np.ndarray:
    """The n x (DISTANCE_ORBIT+1) matrix R_n F of the iterates z^k f.

    F[j, k] = f_(j-k) holds the iterates' coefficients (the leading columns
    of the transposed upper Toeplitz matrix of f's coefficients, zero-padded
    to n) and R_n is the space's metric factor, R_n^H R_n = G_n, so euclidean
    geometry on the columns is the H(b) geometry.  A real f keeps F real.
    The window must be at least DISTANCE_ORBIT + deg f + 1, so that every
    iterate fits; ``subspace_distance`` sizes it so.
    """
    base = (f.as_poly() if f.is_polynomial else f.taylor_poly(D_TRUNC)).coeff_array()
    base = _real_if_exact(base)
    # the size rule of the module docstring: n > window, so the QR of
    # [orbit, v] has more rows than its DISTANCE_ORBIT + 2 columns
    n = -(-(window + 1) // 8) * 8
    column = np.zeros(n, dtype=base.dtype)
    column[: len(base)] = base
    # C order, so the BLAS call of the product does not depend on F's strides
    lagged = _upper_toeplitz(column).T[:, : DISTANCE_ORBIT + 1].copy()
    return space._metric_factor(n) @ lagged


def _rank_certified(r: np.ndarray) -> bool:
    """True when a Cholesky proves sigma_min(r) > _RANK_TOL * |r|_F.

    The shift delta and its constant are derived in the module docstring,
    with n = max(r.shape), which bounds both the inner-product length and
    the Cholesky order.  False means "not proved", not "rank deficient".
    """
    a = r.conj().T @ r
    fro2 = float(np.trace(a).real)
    if not _CERTIFIABLE_FRO2 < fro2 < np.inf:
        return False
    n = max(r.shape)
    gamma = (n + 2) * _UNIT_ROUNDOFF / (1.0 - (n + 2) * _UNIT_ROUNDOFF)
    a[np.diag_indices(n)] -= (_RANK_TOL**2 + 4.0 * gamma) * fro2
    try:
        np.linalg.cholesky(a)
    except np.linalg.LinAlgError:
        return False
    return True


def _directed_distance(orbit: np.ndarray, v: np.ndarray) -> float:
    """Distance from v to the column span of orbit, relative to |v|.

    In the R factor of [orbit, v], |R[-1, -1]| is the norm of the part of
    v orthogonal to the span, and R[:-1, :-1] carries the singular values
    of orbit for the rank rule sigma_min > _RANK_TOL * sigma_max.  The
    rule is proved by ``_rank_certified`` where it can be; otherwise the
    singular values decide, and RankDeficiencyError names the rank.
    """
    r = np.linalg.qr(np.column_stack([orbit, v]), mode="r")
    if not _rank_certified(r[:-1, :-1]):
        s = np.linalg.svd(r[:-1, :-1], compute_uv=False)
        if s[0] == 0.0:
            raise RankDeficiencyError("orbit span collapsed to zero")
        rank = int(np.sum(s > _RANK_TOL * s[0]))
        if rank < orbit.shape[1]:
            raise RankDeficiencyError(
                f"orbit of {orbit.shape[1]} iterates has numerical rank {rank}"
            )
    return float(abs(r[-1, -1]) / np.linalg.norm(v))


def subspace_distance(space: HbSpace, f, g) -> float:
    """How far apart the invariant subspaces [f] and [g] sit, probed on
    the window {z^k h, k = 0..DISTANCE_ORBIT} in the H(b) metric.

    The statistic is mutual generator approximation: the distance from f
    to the orbit span of g (relative to |f|_b), maximized over both
    directions.  The naive span-to-span gap is useless here, since for
    nested windows the freshest shift iterate always sticks out and the
    gap saturates near 1 even for equal subspaces.  With the mutual
    statistic, equal subspaces decay to zero as the window grows (slowly,
    like 1/sqrt(orbit), when the generators differ by a factor vanishing
    on the circle), while distinct subspaces stay separated.

    Since G = R^H R with R the space's metric factor, each orbit is the
    matrix R F of its iterates, in coordinates where the H(b) metric is
    euclidean; one QR per direction gives the distance.  Each generator
    is put in lowest terms, a rational one is truncated at degree D_TRUNC,
    and a pole in the closed disk (or on the circle band) raises
    PoleInDiskError.
    """
    f, _ = _analytic_lowest_terms(f)
    g, _ = _analytic_lowest_terms(g)
    if f.num.is_zero and g.num.is_zero:
        return 0.0
    if f.num.is_zero or g.num.is_zero:
        return 1.0
    fd = int(f.num.degree if f.is_polynomial else D_TRUNC)
    gd = int(g.num.degree if g.is_polynomial else D_TRUNC)
    window = DISTANCE_ORBIT + max(fd, gd) + 1
    mf = _orbit_matrix(space, f, window)
    mg = _orbit_matrix(space, g, window)
    return max(_directed_distance(mf, mg[:, 0]), _directed_distance(mg, mf[:, 0]))
