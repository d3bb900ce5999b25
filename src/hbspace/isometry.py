"""Higher-order isometry checks for the shift acting on H(b).

The shift S f = z f acts boundedly on H(b) when b is rational and
nonextreme.  Its m-th defect operator is

    beta_m = sum_{k=0}^m (-1)^(m-k) C(m, k) S*^k S^k,

and S is an m-isometry when beta_m = 0.  defect_form evaluates the weak
form <beta_m f, g>_b from inner products:

    defect_form(f, g, m) = sum_k (-1)^(m-k) C(m, k) <z^k f, z^k g>_b.

The searches below read the rank-one defect straight from the Taylor
coefficients of phi = b/a (see ``hbspace.space``): the defect direction w
pairs as <w, z^j>_b = phi_(j+1),
<beta_1 z^k, z^j>_b = phi_(j+1) conj(phi_(k+1)), and
beta_(m+1) = S* beta_m S - beta_m, so on monomials beta_m is the (m-1)-th
diagonal difference X[j+1, k+1] - X[j, k] of that outer product.

One difference engine serves both searches.  With u_j = phi_(j+1) and E
the index shift, (E u)_j = <w, z^(j+1)>_b, so

    <w, (z - lam)^k z^j>_b = ((E - conj(lam))^k u)_j,

and ``_difference_rows`` builds the rows (E - mu)^a u once per call:
annihilation_check reads them at mu = conj(lam), isometry_order at
mu = 1, Delta = E - I.  The diagonal difference D = E (x) E - I splits as
D = Delta (x) E + I (x) Delta, and the two terms commute, so

    D^r (u u^H)[j, k] = sum_a C(r, a) (Delta^a u)_j conj((Delta^(r-a) u)_(k+a)).

The order search takes every r in one batched product, whose right
factor at (r, a) is one slice of the rows, conj(rows[r - a, a : a + window]),
and zero for a > r.  Each term then rounds like
eps |Delta^a u| |Delta^(r-a) u|, where differencing the outer product
itself rounds like 2^m eps defect_1: on a tower phi_k is a polynomial in
k, so the high differences are small and the defect at the order, zero
exactly, reads several times closer to zero.  At a lone mate zero lam != 1,
phi_k = conj(lam)^k poly(k) and differencing cancels nothing, so the search
reads phi(lam z), b.num and a.num times lam^k: f -> f(lam z) is unitary onto
H(b(lam z)), so the order is rotation invariant (rotated towers to n = 4).

The entries satisfy a fixed linear recurrence along diagonals (phi is
rational), so once the m-th defect vanishes on a window wider than the
recurrence length plus the transient, it vanishes for all indices.  The
probe window, 2n + m_max + 8 for a degree-n symbol, adds a comfortable
margin on top of that length.

defect_form and rank_one_identity_check stay on inner products and the
closed-form vector Lb, independent paths to the same defect.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .config import D_TRUNC, DEFAULT_TOLERANCES as TOL
from .errors import InputFormatError
from .polynomials import Poly, RationalFn
from .space import HbSpace

# Monomials z^0 .. z^12 probed by annihilation_check.
_ANNIHILATION_PROBE = 12


@dataclass(frozen=True)
class DefectReport:
    """Outcome of an isometry-order search.

    order is the smallest m with max-defect below the iso tolerance, or
    None if no m up to m_max qualifies.  defects[m - 1] is the largest
    probed |<beta_m z^k, z^j>_b|.  strict_margin is the defect one level
    below the found order (large means the order is sharp).
    """

    order: int | None
    defects: tuple[float, ...]
    strict_margin: float | None
    probe_degree: int
    m_max: int
    tol_iso: float
    tol_strict: float

    def to_json(self) -> dict:
        return {
            "order": self.order,
            "defects": list(self.defects),
            "strict_margin": self.strict_margin,
            "probe_degree": self.probe_degree,
            "m_max": self.m_max,
            "tol_iso": self.tol_iso,
            "tol_strict": self.tol_strict,
        }


def defect_form(space: HbSpace, f, g, m: int) -> complex:
    """<beta_m f, g>_b for polynomials f, g; exact Toeplitz arithmetic."""
    u = f if isinstance(f, Poly) else space.vector(f).f
    v = g if isinstance(g, Poly) else space.vector(g).f
    total = 0j
    for k in range(m + 1):
        sign = (-1) ** (m - k) * math.comb(m, k)
        total += sign * space.inner_product(u.shifted(k), v.shifted(k))
    return total


@functools.lru_cache(maxsize=64)
def _binomials(m_max: int) -> np.ndarray:
    """binom[r, a] = C(r, a) for r, a < m_max, zero for a > r; read-only, since
    the cache hands the same array to every call."""
    binom = np.array([[math.comb(i, j) for j in range(m_max)] for i in range(m_max)], dtype=float)
    binom.flags.writeable = False
    return binom


def _difference_rows(u: np.ndarray, depth: int, mu: complex) -> np.ndarray:
    """rows[a] = (E - mu)^a u for a < depth, E the index shift, in a
    (depth, len(u)) array; row a is zero past its len(u) - a entries."""
    rows = np.zeros((depth, u.size), dtype=complex)
    rows[0] = u
    for a in range(1, depth):
        np.subtract(rows[a - 1, 1 : u.size - a + 1], mu * rows[a - 1, : u.size - a],
                    out=rows[a, : u.size - a])
    return rows


def isometry_order(space: HbSpace, m_max: int = 8) -> DefectReport:
    """Search for the smallest m making the shift an m-isometry.

    InputFormatError for m_max < 1.
    """
    if m_max < 1:
        raise InputFormatError(f"isometry order search needs m_max >= 1, got {m_max}")
    probe_degree = 2 * space.n + m_max + 8
    window = probe_degree + 1
    lam = space.boundary_zeros[0][0] if len(space.boundary_zeros) == 1 else 1.0
    if lam == 1.0:
        phi = space.phi_coeffs(probe_degree + m_max)
    else:  # phi(lam z), the lone boundary zero's own frame, where its zero sits at 1
        num, den = (Poly(p.coeff_array() * lam ** np.arange(len(p.coeffs)))
                    for p in (space.b.num, space.a.num))
        phi = RationalFn(num, den).taylor(probe_degree + m_max)
    rows = _difference_rows(phi[1:], m_max, 1.0)
    left = _binomials(m_max)[:, None, :] * rows[:, :window].T
    # right[r, a] = conj(rows[r - a, a : a + window]), zero for a > r
    conj = rows.conj()
    right = np.zeros((m_max, m_max, window), dtype=complex)
    for a in range(m_max):
        right[a:, a] = conj[: m_max - a, a : a + window]
    defects = [float(x) for x in np.max(np.abs(left @ right), axis=(1, 2))]
    order = None
    strict = None
    for m in range(1, m_max + 1):
        if defects[m - 1] <= TOL.iso:
            order = m
            if m >= 2:
                strict = defects[m - 2]
            else:
                # max |G| on the window: G is Hermitian >= 0 with the
                # increasing diagonal G[j, j] = 1 + sum_(i <= j) |phi_i|^2
                strict = 1.0 + float(np.sum(np.abs(phi[:window]) ** 2))
            break
    return DefectReport(
        order=order,
        defects=tuple(defects),
        strict_margin=strict,
        probe_degree=probe_degree,
        m_max=m_max,
        tol_iso=TOL.iso,
        tol_strict=TOL.strict,
    )


def rank_one_identity_check(space: HbSpace, f, g) -> dict:
    """Residual of <zf, zg>_b - <f, g>_b = (1 + |b|_b^2) <f, w>_b <w, g>_b.

    w = sqrt(1 + |b|_b^2) Lb is the defect direction of the shift; the
    identity says beta_1 is the rank-one projection onto it.
    """
    u = space.vector(f)
    v = space.vector(g)
    lb = space.vector_Lb(max(D_TRUNC, int(max(u.f.degree, v.f.degree, 0)) + 2))
    lhs = space.pair(space.shift(u), space.shift(v)) - space.pair(u, v)
    rhs = (1.0 + space.norm_b_sq) * space.pair(u, lb) * space.pair(lb, v)
    scale = max(1.0, abs(lhs), abs(rhs))
    return {
        "lhs": lhs,
        "rhs": rhs,
        "residual": abs(lhs - rhs),
        "relative": abs(lhs - rhs) / scale,
    }


def annihilation_check(space: HbSpace, lam: complex, k_max: int) -> tuple[float, ...]:
    """residual_k = max_j |<w, (z - lam)^k z^j>_b| for k = 0..k_max, j <= 12.

    When b has a lone boundary zero at lam of multiplicity n, the defect
    direction w pairs to zero against every (z - lam)^k z^j with k >= n,
    and against none below; the drop in the returned sequence reads off
    that multiplicity.  The pairings are the rows of the one difference
    engine, <w, (z - lam)^k z^j>_b = ((E - conj(lam))^k u)_j with
    u_j = phi_(j+1).  InputFormatError for k_max < 0.
    """
    if k_max < 0:
        raise InputFormatError(f"annihilation check needs k_max >= 0, got {k_max}")
    u = space.phi_coeffs(_ANNIHILATION_PROBE + k_max + 1)[1:]
    rows = _difference_rows(u, k_max + 1, np.conj(lam))
    return tuple(float(x) for x in np.max(np.abs(rows[:, : _ANNIHILATION_PROBE + 1]), axis=1))
