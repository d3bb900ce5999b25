"""The orbit route to subspace distances: a second path, independent of the
annihilator formula in ``hbspace.lattice``.

The distance from f to [g] is probed on the window of shift iterates
{z^k g, k = 0..ORBIT} in the H(b) metric: relative to |f|_b, the part of
f orthogonal to their span.  The window spans part of [g], so in each
direction this distance sits at or above the exact one; it decays like
1/sqrt(ORBIT) when the two generators differ by a factor vanishing on
the circle, and matches the exact distance when the subspaces are apart.

The monomial Gram matrix is G = I + C^H C = M^H M with M = [I; C], C the
companion map.  ``metric_factor`` is R_N, the triangular QR factor of
the 2N x N matrix M_N = [I_N; C_N], so R_N^H R_N = G_N and x -> R_N x
carries the H(b) metric onto euclidean space for every polynomial of
degree below N; no Gram matrix is formed or factored.  An orbit is R_N F,
F the Toeplitz matrix of its generator's coefficients, F[j, k] = f_(j-k).

N depends on the window alone: window + 1 rounded up to a multiple of 8,
so a distance never depends on which distances came before it, and the
last factor is kept, so the two orbits of one distance share it.  A
larger factor's leading block is not bitwise the smaller one, so a factor
is never read off a larger one.  When phi_0..phi_(N-1) are real, R_N is
float64; with a real generator the orbit is too, and its QR and the rank
certificate below run in real arithmetic.

Each direction needs the orbit to have full numerical rank.  The rule is
the one of its singular values: with R the triangular QR factor of the
orbit, sigma_min(R) > RANK_TOL * sigma_max(R), else RankDeficiencyError.
An SVD per direction is costly, so the rule is first certified without
one: a floating-point Cholesky of R^H R - delta I with

    delta = (RANK_TOL^2 + 4 gamma_(n+2)) |R|_F^2,
    gamma_k = k u / (1 - k u),  u = 2^-53,  n the order of R,

that runs to completion proves sigma_min(R) > RANK_TOL |R|_F, which is
at least RANK_TOL sigma_max(R).  In 2-norm, relative to |R|_F^2 =
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

Because R^H R squares the condition number, the certificate reaches no
further than |R|_F / sigma_min of about 1 / sqrt(4 gamma_(n+2)), 4.1e6
for the 129-iterate orbits.  Beyond that, and when R is zero, non-finite
or so small that u |R|_F^2 underflows, the SVD rule runs, with its
messages.
"""

from __future__ import annotations

import functools

import numpy as np

from hbspace.config import D_TRUNC
from hbspace.errors import RankDeficiencyError
from hbspace.factorization import _analytic_lowest_terms
from hbspace.polynomials import RationalFn
from hbspace.space import HbSpace, _real_if_exact, _upper_toeplitz

ORBIT = 128
RANK_TOL = 1e-10

# Unit roundoff of double precision, and the least |R|_F^2 the rank
# certificate accepts: above it u |R|_F^2 is a normal number, so
# underflow stays far below the rounding terms of the certificate.
UNIT_ROUNDOFF = 2.0**-53
CERTIFIABLE_FRO2 = np.finfo(float).tiny / UNIT_ROUNDOFF


@functools.lru_cache(maxsize=1)
def metric_factor(space: HbSpace, n: int) -> np.ndarray:
    """The triangular R_n with R_n^H R_n = I + C^H C = gram_matrix(n), read-only.

    The QR factor of [I_n; C_n], with C_n's dtype; the last factor is kept.
    """
    r = np.linalg.qr(np.vstack([np.eye(n), space._companion(n)]), mode="r")
    r.flags.writeable = False
    return r


def orbit_matrix(space: HbSpace, f: RationalFn, window: int) -> np.ndarray:
    """The n x (ORBIT + 1) matrix R_n F of the iterates z^k f, n > window.

    The window must be at least ORBIT + deg f + 1, so that every iterate
    fits.  A real f keeps F real.
    """
    base = (f.as_poly() if f.is_polynomial else f.taylor_poly(D_TRUNC)).coeff_array()
    base = _real_if_exact(base)
    # n > window, so the QR of [orbit, v] has more rows than its ORBIT + 2 columns
    n = -(-(window + 1) // 8) * 8
    column = np.zeros(n, dtype=base.dtype)
    column[: len(base)] = base
    # C order, so the BLAS call of the product does not depend on F's strides
    lagged = _upper_toeplitz(column).T[:, : ORBIT + 1].copy()
    return metric_factor(space, n) @ lagged


def rank_certified(r: np.ndarray) -> bool:
    """True when a Cholesky proves sigma_min(r) > RANK_TOL * |r|_F.

    n = max(r.shape) bounds both the inner-product length and the Cholesky
    order.  False means "not proved", not "rank deficient".
    """
    a = r.conj().T @ r
    fro2 = float(np.trace(a).real)
    if not CERTIFIABLE_FRO2 < fro2 < np.inf:
        return False
    n = max(r.shape)
    gamma = (n + 2) * UNIT_ROUNDOFF / (1.0 - (n + 2) * UNIT_ROUNDOFF)
    a[np.diag_indices(n)] -= (RANK_TOL**2 + 4.0 * gamma) * fro2
    try:
        np.linalg.cholesky(a)
    except np.linalg.LinAlgError:
        return False
    return True


def directed_distance(orbit: np.ndarray, v: np.ndarray) -> float:
    """Distance from v to the column span of orbit, relative to |v|.

    In the R factor of [orbit, v], |R[-1, -1]| is the norm of the part of
    v orthogonal to the span, and R[:-1, :-1] carries the singular values
    of orbit for the rank rule.
    """
    r = np.linalg.qr(np.column_stack([orbit, v]), mode="r")
    if not rank_certified(r[:-1, :-1]):
        s = np.linalg.svd(r[:-1, :-1], compute_uv=False)
        if s[0] == 0.0:
            raise RankDeficiencyError("orbit span collapsed to zero")
        rank = int(np.sum(s > RANK_TOL * s[0]))
        if rank < orbit.shape[1]:
            raise RankDeficiencyError(
                f"orbit of {orbit.shape[1]} iterates has numerical rank {rank}"
            )
    return float(abs(r[-1, -1]) / np.linalg.norm(v))


def orbit_distances(space: HbSpace, f, g) -> tuple[float, float]:
    """(f to the orbit span of g, g to the orbit span of f), each relative.

    Both generators must be nonzero; a rational one is truncated at D_TRUNC.
    """
    f, _ = _analytic_lowest_terms(f)
    g, _ = _analytic_lowest_terms(g)
    fd = int(f.num.degree if f.is_polynomial else D_TRUNC)
    gd = int(g.num.degree if g.is_polynomial else D_TRUNC)
    window = ORBIT + max(fd, gd) + 1
    mf = orbit_matrix(space, f, window)
    mg = orbit_matrix(space, g, window)
    return directed_distance(mg, mf[:, 0]), directed_distance(mf, mg[:, 0])


def orbit_distance(space: HbSpace, f, g) -> float:
    """The larger of the two directed orbit distances, as the seed computed it."""
    return max(orbit_distances(space, f, g))
