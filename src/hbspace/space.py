"""The space H(b) for rational nonextreme b, with exact inner products.

For nonextreme b with mate a, a function f lies in H(b) exactly when
there is an f+ in H^2 with T_conj(a) f+ = T_conj(b) f, and then

    <f, g>_b = <f, g>_H2 + <f+, g+>_H2.

Since a and b share a denominator, the quotient phi = b/a is rational
and T_conj(a) T_conj(phi) = T_conj(b), so f+ = T_conj(phi) f.  For a
polynomial f the companion is a polynomial of degree at most deg f, the
correlation of f with the Taylor coefficients of phi:

    f+_j = sum_i conj(phi_i) f_(i+j).

On monomials the companion map is the upper-triangular Toeplitz matrix
C[j, k] = conj(phi_(k-j)), so the Gram matrix of the monomials is
G = I + C^H C.  Inner products of polynomials are exact up to rounding.

One builder gives C_N to both of its consumers, and one rule,
``_real_if_exact``, sets its dtype: C_N is float64 when phi_0..phi_(N-1)
have exactly zero imaginary parts, else complex128.  So for a real
window the Gram matrix is float64 and exactly symmetric, and its
eigenvalues come from the real symmetric solver.

The space also keeps the metric factor R_N of the last size N asked
for: the triangular QR factor of [I_N; C_N], so R_N^H R_N = G_N without
G being formed.  It has C_N's dtype, and ``lattice`` measures subspace
distances in its coordinates.  One factor is kept, not one per size, so
a long-lived space holds a single N x N array; the two distances of a
query share one N.

The same coefficients carry the shift's rank-one defect.  The defect
direction w = Lb / a(0) pairs with the monomials as

    <w, z^j>_b = phi_(j+1),

so beta_1 = S*S - I, in monomial coordinates
<beta_1 z^k, z^j>_b = G[j+1, k+1] - G[j, k], is the outer product
phi' phi'^H of phi' = (phi_1, phi_2, ...).  ``HbSpace.phi_coeffs`` is the
one source of these coefficients.

A handful of rational members have closed-form companions, derived from
the Toeplitz calculus (P denotes the analytic projection):

    b+    = 1/a(0) - a          since T_conj(b) b = 1 - T_conj(a) a
    (Lb)+ = -La                 where L is the backward shift
    K_w+  = conj(b(w)) a k_w    for the reproducing kernel K_w

Vectors built from those forms pair exactly against polynomials because
the H^2 pairing only reads coefficients up to the polynomial's degree.

Each such member is a pair of numerators over one denominator, which
``HbSpace._member_den`` builds from (conj(w), i): q = b.den for b, b+, Lb,
La and the boundary kernels, q (1 - conj(w) z)^(i+1) for u_w^i at an
interior w.  So their Taylor coefficients are the numerators convolved
with one cached series of 1/q, times the closed-form series of
(1 - conj(w) z)^-(i+1) at an interior w; the recurrence of
``RationalFn.taylor`` runs once per space for them.  phi = b/a stays on
that recurrence: the Gram matrix I + C^H C sits one rounding away from
its bound >= I (a one-ulp perturbation of phi on a degree-8 symbol pushed
the smallest eigenvalue of gram_matrix(256) below 1 in 15 of 20 trials),
so phi keeps its exact bits.

Their Taylor tails are bounded from the decay radius, which needs no root
finding: the radius is rho_b, the modulus of the nearest root of q, or
min(rho_b, 1/|w|) for an interior w.  The mate computation finds rho_b
once, while validating b.

At a mate boundary zero w, (z - w)^(i+1) must cancel from the derivative
kernel's numerator by the zero rule of ``polynomials`` (each remainder
within TOL.boundary times the quotient's Horner bound), else
VerificationError; poles follow its rule |den(z)| <= TOL.pole * B_den(z).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .config import CIRCLE_BAND, D_TRUNC, DEFAULT_TOLERANCES as TOL
from .errors import InputFormatError, OrderTooHighError, VerificationError
from .factorization import MateResult, _analytic_lowest_terms, circle_grid, pythagorean_mate
from .polynomials import Poly, RationalFn, _zero_order, as_rational, synthetic_division

# Largest degree _degree_for_tail asks for.
_TAIL_DEGREE_CAP = 4096

# Largest derivative order i whose i! is finite in double precision.
_MAX_DERIVATIVE_ORDER = 170


@dataclass(frozen=True)
class HbVector:
    """A member of H(b) carried as the pair (f, f+).

    For vectors built from polynomials the pair satisfies the defining
    Toeplitz relation exactly.  Vectors truncated from rational members
    carry geometric tail bounds on the dropped coefficients.
    """

    f: Poly
    f_plus: Poly
    tail_f: float = 0.0
    tail_plus: float = 0.0


def _decay_profile(g: RationalFn, radius: float) -> tuple[float, float]:
    """(M, rho) with |g_k| <= M * rho^(-k) for g analytic on |z| < radius (inf: polynomial)."""
    if math.isinf(radius):
        return float(max(g.num.scale(), 1.0)), math.inf
    rho = radius**0.75
    zs = rho * circle_grid()[::4]
    m = 2.0 * float(np.max(np.abs(g.num(zs) / g.den(zs))))
    return m, rho


def _degree_for_tail(g: RationalFn, radius: float, target: float) -> int:
    """Smallest degree D with the coefficient bound of g (poles at modulus
    >= radius) below target past D, at most _TAIL_DEGREE_CAP."""
    m, rho = _decay_profile(g, radius)
    if math.isinf(rho):
        return int(max(g.num.degree, 0))
    if m <= target:
        return 0
    need = math.log(m / target) / math.log(rho)
    return min(_TAIL_DEGREE_CAP, max(0, math.ceil(need)))


def _tail_bound(g: RationalFn, degree: int, radius: float) -> float:
    m, rho = _decay_profile(g, radius)
    if math.isinf(rho):
        return 0.0
    # sum_{k > D} |g_k| <= M rho^(-(D+1)) / (1 - 1/rho)
    return m * rho ** (-(degree + 1)) / (1.0 - 1.0 / rho)


class HbSpace:
    """H(b) for a rational nonextreme b in the closed unit ball.

    Members
    -------
    b, a : RationalFn      the symbol and its Pythagorean mate
    n : int                degree of b
    boundary_zeros : tuple of (unit-modulus point, multiplicity)
    pole_radius : float    modulus of b's nearest pole, inf for polynomial b
    norm_b_sq : float      |b|_b^2 = a(0)^(-2) - 1
    norm_Lb_sq : float     |Lb|_b^2 = 1 - |b(0)|^2 - a(0)^2
    """

    def __init__(self, b, rng: np.random.Generator | None = None):
        b = as_rational(b)
        self.b = b
        # raises the typed validation errors for poles, ball, extremality
        self.mate: MateResult = pythagorean_mate(b, rng=rng)
        self.a = self.mate.a
        self.n = int(max(b.degree, 0))
        self.boundary_zeros = self.mate.boundary_zeros
        self.pole_radius = self.mate.pole_radius
        # pythagorean_mate rejects a(0) = 0 and makes a(0) real and positive
        self._a0 = float(self.a(0).real)
        self.norm_b_sq = 1.0 / self._a0**2 - 1.0
        b0 = b(0)
        self.norm_Lb_sq = 1.0 - abs(b0) ** 2 - self._a0**2
        self._phi = np.zeros(0, dtype=complex)
        self._inv_q = np.zeros(0, dtype=complex)
        self._factor = np.zeros((0, 0))

    # -- the plus companion -------------------------------------------------

    def phi_coeffs(self, n: int) -> np.ndarray:
        """Taylor coefficients phi_0..phi_n of phi = b/a, read-only.

        The cache grows by doubling; see the module docstring for the
        companion, Gram and shift-defect identities these coefficients give.
        """
        # a and b share the denominator b.den, so phi = b.num / a.num
        self._phi = _grown_series(self._phi, self.b.num, self.a.num, n)
        return self._phi[: n + 1]

    def _inv_q_coeffs(self, n: int) -> np.ndarray:
        """Taylor coefficients of 1/q through degree n, q = b.den; cached like phi."""
        self._inv_q = _grown_series(self._inv_q, Poly([1]), self.b.den, n)
        return self._inv_q[: n + 1]

    def plus_function(self, f: Poly) -> Poly:
        """The unique polynomial f+ with T_conj(a) f+ = T_conj(b) f.

        f+ = T_conj(phi) f, row j the correlation of conj(phi) with the
        coefficients of f from index j on; deg f+ <= deg f.
        """
        if f.is_zero:
            return Poly()
        n = int(f.degree)
        return Poly(_correlate(np.conj(self.phi_coeffs(n)), f.coeff_array(n + 1)))

    def plus_residual(self, v: HbVector) -> float:
        """Max residual of T_conj(a) f+ = T_conj(b) f over represented rows.

        Reads the Taylor coefficients of a and b themselves, never phi, so
        it checks the companion along an independent path.
        """
        n = int(max(v.f.degree, v.f_plus.degree, 0))
        lhs = _correlate(np.conj(self.a.taylor(n)), v.f_plus.coeff_array(n + 1))
        rhs = _correlate(np.conj(self.b.taylor(n)), v.f.coeff_array(n + 1))
        return float(np.max(np.abs(lhs - rhs)))

    # -- vectors -----------------------------------------------------------

    def vector(self, f) -> HbVector:
        """Exact vector for a polynomial (or polynomial-valued rational)."""
        if isinstance(f, HbVector):
            return f
        if isinstance(f, RationalFn):
            if not f.is_polynomial:
                raise InputFormatError(
                    "vector takes a polynomial; carry a rational member with "
                    "truncated_vector, vector_b, vector_Lb or the kernel vectors"
                )
            f = f.as_poly()
        elif not isinstance(f, Poly):
            f = Poly([f]) if np.isscalar(f) else Poly(f)
        return HbVector(f=f, f_plus=self.plus_function(f))

    def truncated_vector(self, f: RationalFn, degree: int = D_TRUNC) -> HbVector:
        """Taylor truncation of a rational member; the companion is the phi
        correlation of the truncated polynomial, exact for that polynomial.

        Against the member itself the companion inherits an O(tail) error
        at every index from the dropped coefficients, so this is for coarse
        geometry (subspace angles), not for certified identities.  Raises
        PoleInDiskError when f has a pole in the closed disk.
        """
        f, radius = _analytic_lowest_terms(f)
        ft = f.taylor_poly(degree)
        return HbVector(
            f=ft,
            f_plus=self.plus_function(ft),
            tail_f=_tail_bound(f, degree, radius),
            tail_plus=0.0,
        )

    def vector_b(self, degree: int = D_TRUNC) -> HbVector:
        """b itself: b+ = 1/a(0) - a."""
        q = self.b.den
        return self._member(self.b.num, q * (1.0 / self._a0) - self.a.num, degree)

    def vector_Lb(self, degree: int = D_TRUNC) -> HbVector:
        """Lb = (b - b(0))/z: companion -La."""
        q = self.b.den
        return self._member(
            _backward(self.b.num - self.b(0) * q), -_backward(self.a.num - self.a(0) * q), degree
        )

    def vector_w(self, degree: int = D_TRUNC) -> HbVector:
        """The defect vector w = sqrt(1 + |b|_b^2) Lb = Lb / a(0)."""
        u = self.vector_Lb(degree)
        c = 1.0 / self._a0
        return HbVector(u.f * c, u.f_plus * c, u.tail_f * c, u.tail_plus * c)

    def _member_den(self, wbar: complex, i: int) -> Poly:
        """The denominator of a closed-form member: q, or q (1 - wbar z)^(i+1) for wbar != 0."""
        return self.b.den if wbar == 0 else self.b.den * Poly([1, -wbar]) ** (i + 1)

    def _member(
        self, num: Poly, plus_num: Poly, degree: int, wbar: complex = 0j, i: int = 0
    ) -> HbVector:
        """num/den and its companion plus_num/den, den = ``_member_den(wbar, i)``,
        truncated at degree; their tails are bounded on |z| < min(rho_b, 1/|wbar|)."""
        series = self._inv_q_coeffs(degree)
        radius = self.pole_radius
        if wbar != 0:
            series = np.convolve(series, _inverse_power_series(wbar, i, degree))[: degree + 1]
            radius = min(radius, 1.0 / abs(wbar))
        den = self._member_den(wbar, i)
        return HbVector(
            f=Poly(_truncated_product(num, series)),
            f_plus=Poly(_truncated_product(plus_num, series)),
            tail_f=_tail_bound(RationalFn(num, den), degree, radius),
            tail_plus=_tail_bound(RationalFn(plus_num, den), degree, radius),
        )

    # -- inner products ------------------------------------------------------

    def pair(self, u: HbVector, v: HbVector) -> complex:
        """<u, v>_b, linear in u and conjugate-linear in v."""
        return _h2_dot(u.f, v.f) + _h2_dot(u.f_plus, v.f_plus)

    def inner_product(self, f, g) -> complex:
        u = f if isinstance(f, HbVector) else self.vector(f)
        v = g if isinstance(g, HbVector) else self.vector(g)
        return self.pair(u, v)

    def gram_matrix(self, n: int) -> np.ndarray:
        """n x n matrix with entry (j, k) = <z^k, z^j>_b; Hermitian, >= I up to rounding.

        Column k of C holds the companion of z^k, so G = I + C^H C, with
        C's dtype: float64 (G exactly symmetric) when phi_0..phi_(n-1) are
        exactly real, else complex128 (see ``_companion``).  The
        product is averaged with its adjoint, since BLAS does not round
        the (j, k) and (k, j) entries alike.  The sum is assembled in place
        with the roundings of eye(n) + 0.5 (h + h^H) (a floating-point sum
        commutes exactly), so its bytes are that expression's, signed zeros
        included, without its temporaries.  InputFormatError for n < 1.
        """
        if n < 1:
            raise InputFormatError("gram size must be at least 1")
        c = self._companion(n)
        h = c.conj().T @ c
        g = h + h.conj().T
        g *= 0.5
        g += np.eye(n)
        return g

    def _companion(self, n: int) -> np.ndarray:
        """C_n[j, k] = conj(phi_(k-j)), float64 when phi_0..phi_(n-1) are exactly real."""
        return _upper_toeplitz(_real_if_exact(np.conj(self.phi_coeffs(n - 1))))

    def _metric_factor(self, n: int) -> np.ndarray:
        """The triangular R_n with R_n^H R_n = I + C^H C = gram_matrix(n), read-only.

        R_n is the QR factor of the 2n x n matrix [I_n; C_n], so no Gram
        matrix is formed or factored, and |R_n x| = |x|_b for every
        polynomial x of degree below n.  It has C_n's dtype, float64 when
        phi_0..phi_(n-1) are real.  The last size's factor is kept; a factor
        is never read off a larger one.
        """
        r = self._factor
        if len(r) != n:
            r = np.linalg.qr(np.vstack([np.eye(n), self._companion(n)]), mode="r")
            r.flags.writeable = False
            self._factor = r
        return r

    # -- shifts ------------------------------------------------------------

    def shift(self, f) -> HbVector:
        """Multiplication by z, companion recomputed exactly."""
        u = f if isinstance(f, HbVector) else self.vector(f)
        return self.vector(u.f.shifted(1))

    # -- reproducing kernels ---------------------------------------------------

    def kernel(self, lam: complex, z: complex) -> complex:
        """K_lam(z) = (1 - conj(b(lam)) b(z)) / (1 - conj(lam) z), through ``kernel_derivative``."""
        return self.kernel_derivative(lam, 0)(z)

    def kernel_derivative(self, w: complex, i: int) -> RationalFn:
        """d^i/d(conj(w))^i K_w as a rational function of z.

        Interior w: defined for every i.  Boundary w: w must be a mate
        boundary zero of multiplicity m and i <= m - 1, in which case the
        circle pole cancels and the result is analytic on the closed disk.
        """
        num, _, wbar = self._kernel_numerators(w, i)
        return RationalFn(num, self._member_den(wbar, i))

    def kernel_vector(self, lam: complex, degree: int = D_TRUNC) -> HbVector:
        """Truncated kernel with its exact companion conj(b(lam)) a k_lam."""
        return self.derivative_kernel_vector(lam, 0, degree=degree)

    def derivative_kernel_vector(self, w: complex, i: int, degree: int = D_TRUNC) -> HbVector:
        num, plus_num, wbar = self._kernel_numerators(w, i)
        return self._member(num, plus_num, degree, wbar, i)

    def _kernel_numerators(self, w: complex, i: int) -> tuple[Poly, Poly, complex]:
        """Numerators of u_w^i and its companion over ``_member_den(wbar, i)``, and wbar.

        wbar is conj(w) inside the disk.  At a mate boundary zero w it is 0:
        (z - w)^(i+1) is cancelled from both numerators, so the two share q.
        """
        if i < 0:
            raise InputFormatError(f"derivative order must be nonnegative, got {i}")
        if i > _MAX_DERIVATIVE_ORDER:
            raise InputFormatError(
                f"derivative order {i} exceeds {_MAX_DERIVATIVE_ORDER}, past which i! overflows"
            )
        if abs(w) > 1.0 + CIRCLE_BAND:
            raise InputFormatError(f"kernel point {w} lies outside the closed unit disk")
        on_circle = abs(abs(w) - 1.0) <= CIRCLE_BAND
        if on_circle:
            mult = next((m for lam, m in self.boundary_zeros if abs(w - lam) <= CIRCLE_BAND), 0)
            if i >= mult:
                raise OrderTooHighError(
                    f"derivative order {i} at boundary point {w} exceeds multiplicity {mult}"
                )
        wbar = w.conjugate()
        pole = Poly([1, -wbar])  # 1 - conj(w) z
        # Term j carries C(i, j) (i - j)! conj(b^(j)(w)) = i! conj(t_j) with
        # t_j = b^(j)(w) / j! the Taylor coefficients of b(w + h); repeated
        # quotient-rule derivatives would square the denominator each time.
        if i == 0:
            ts = [self.b(w)]
        else:
            # p(w + h): the deg p remainders of p at w, then p's leading coefficient
            shifts = [synthetic_division(p, w, len(p.coeffs)) for p in (self.b.num, self.b.den)]
            ts = RationalFn(*(Poly(r + list(q.coeffs)) for q, r in shifts)).taylor(i)
        acc = Poly()
        for j, t in enumerate(ts):
            acc = acc + (math.factorial(i) * t.conjugate()) * (pole**j).shifted(i - j)
        nums = (math.factorial(i) * self.b.den.shifted(i) - self.b.num * acc, self.a.num * acc)
        if not on_circle:
            return *nums, wbar
        # on the circle 1 - conj(w) z = -conj(w) (z - w): cancel (z - w)^(i+1)
        unit = 1.0 / (-wbar) ** (i + 1)
        cancelled = []
        for num in nums:
            k, work = _zero_order(num, w, at_most=i + 1)
            if k <= i:
                raise VerificationError(f"boundary kernel cancellation of (z - w)^{i + 1} "
                                        f"stopped at order {k}")
            cancelled.append(work * unit)
        return *cancelled, 0j

    # -- identities ----------------------------------------------------------

    def norm_identities_check(self) -> dict:
        """Closed forms for |b|_b^2 and |Lb|_b^2 against Gram arithmetic.

        The Gram side pairs the closed-form vectors of b and Lb, truncated
        where the tail bound falls below 1e-16.  For polynomial b
        (rho_b = inf) the degree max(D_TRUNC, deg b, deg a) keeps every
        coefficient and the tail bound is 0, so one route serves both.
        """
        tails = (_degree_for_tail(g, self.pole_radius, 1e-16) for g in (self.b, self.a))
        degree = max(D_TRUNC, *tails)
        vb = self.vector_b(degree)
        vl = self.vector_Lb(degree)
        bb = float(self.pair(vb, vb).real)
        lb = float(self.pair(vl, vl).real)
        trunc = {
            "mode": "taylor",
            "degree": degree,
            "tail_bound": max(vb.tail_f, vb.tail_plus, vl.tail_f, vl.tail_plus),
        }
        report: dict = {
            name: {"closed": closed, "gram": gram, "diff": abs(closed - gram)}
            for name, closed, gram in (("norm_b_sq", self.norm_b_sq, bb),
                                       ("norm_Lb_sq", self.norm_Lb_sq, lb))
        }
        ok = all(entry["diff"] <= TOL.gram for entry in report.values())
        report.update(truncation=trunc, tolerance=TOL.gram, ok=bool(ok))
        return report

    def __repr__(self):
        return f"HbSpace(b={self.b!r}, n={self.n})"


def _h2_dot(f: Poly, g: Poly) -> complex:
    n = min(len(f.coeffs), len(g.coeffs))
    if n == 0:
        return 0j
    return complex(np.dot(f.coeff_array(n), np.conj(g.coeff_array(n))))


def _correlate(c: np.ndarray, f: np.ndarray) -> np.ndarray:
    """Row j = sum_i c[i] f[i + j] for equal-length c, f: T f for T below."""
    return np.convolve(c, f[::-1])[len(f) - 1 :: -1]


def _grown_series(cache: np.ndarray, num: Poly, den: Poly, n: int) -> np.ndarray:
    """cache if it reaches degree n, else num/den expanded by doubling; read-only."""
    if len(cache) > n:
        return cache
    out = RationalFn(num, den).taylor(max(n, 2 * len(cache) + 8))
    out.flags.writeable = False
    return out


def _truncated_product(p: Poly, series: np.ndarray) -> np.ndarray:
    """Coefficients 0..len(series)-1 of p times the power series."""
    return np.convolve(p.coeff_array(max(len(p.coeffs), 1)), series)[: len(series)]


def _inverse_power_series(wbar: complex, i: int, n: int) -> np.ndarray:
    """Coefficients 0..n of (1 - wbar z)^-(i+1): c_k = c_(k-1) wbar (k + i) / k."""
    k = np.arange(1, n + 1)
    return np.concatenate(([1.0 + 0j], np.cumprod(wbar * (k + i) / k)))


def _upper_toeplitz(c: np.ndarray) -> np.ndarray:
    """The upper-triangular Toeplitz matrix T[j, k] = c[k - j].

    Row j is the length-n window of (0, ..., 0, c) starting at n - j.
    """
    n = len(c)
    padded = np.concatenate([np.zeros(n, dtype=c.dtype), c])
    return sliding_window_view(padded, n)[n:0:-1].copy()


def _real_if_exact(x: np.ndarray) -> np.ndarray:
    """x as float64 when its imaginary part is exactly zero, else x itself.

    The one rule for when Gram matrices and subspace distances run in real
    arithmetic: the companion C_n and the orbit generators both pass
    through it.
    """
    return x if x.imag.any() else x.real


def _backward(p: Poly) -> Poly:
    """The backward shift L: p's constant term dropped, the rest divided by z."""
    return Poly(p.coeffs[1:])
