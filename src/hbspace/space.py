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

One builder, ``HbSpace._companion``, gives C_N, and one rule,
``_real_if_exact``, sets its dtype: C_N is float64 when phi_0..phi_(N-1)
have exactly zero imaginary parts, else complex128.  So for a real
window the Gram matrix is float64 and exactly symmetric, and its
eigenvalues come from the real symmetric solver.

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
``HbSpace._member_den`` builds from the points left in it:
q prod_k (1 - conj(x_k) z), q = b.den.  No point is left for b, b+, Lb,
La and the boundary kernels, so their denominator is q.  Their Taylor
coefficients are the numerators convolved with one cached series of 1/q
and one geometric series per nonzero point; the recurrence of
``RationalFn.taylor`` runs once per space for them.  phi = b/a stays on
that recurrence: the Gram matrix I + C^H C sits one rounding away from
its bound >= I (a one-ulp perturbation of phi on a degree-8 symbol pushed
the smallest eigenvalue of gram_matrix(256) below 1 in 15 of 20 trials),
so phi keeps its exact bits.  Both cached series grow by doubling, each
growth one fresh expansion, so the caches hold a fresh expansion's bits.

A member's coefficients are computed on read, and only as far as read:
``pair`` reads the overlap of its two vectors, the smaller of their sizes,
so pairing a degree-6 vector with a degree-96 kernel expands 1/q and both
products to 7 coefficients, not 97.  Every read computes its prefix
afresh, so a pair value depends on nothing read before it; a member's f
and f+ read at one size within one ``pair`` share that read's 1/den head.

Their Taylor tails are bounded from the decay radius, which needs no root
finding: the radius is rho_b, the modulus of the nearest root of q, or
min(rho_b, 1/|x_k|) over the points left.  The mate computation finds
rho_b once, while validating b, from the certified companion eigenvalues
of ``RationalFn.poles``.  A member's ``HbVector`` bounds its tails on first
read, not when built: only ``norm_identities_check`` reads them, and the
kernels and the Lb that other checks pair never pay for a bound, nor for
the denominator ``_member_den`` builds for it.  Both bounds of a member
come from one pass of that denominator over the circle of ``_decay_profile``.
At the pole radius that circle is the space's own, |z| = rho_b^(3/4), and
the space evaluates each polynomial there once (``_on_decay_circle``): q
serves the degree profiles of ``norm_identities_check`` and the tails of
b and Lb alike, and b.num serves two of them.

Every kernel comes from one builder, ``HbSpace._newton_numerators``: the
divided difference of K_w in conj(w) over points x_0..x_s, which pairs as
<f, K[..]>_b = f[x_0, ..., x_s]; at one point repeated it is a derivative
kernel over s!, inside the disk and at a mate boundary zero alike.  One
sweep over a point sequence gives the kernels of all its prefixes, each
numerator one step from the last: N_s = z N_(s-1) - c_s b.num h_s, with
c_s = conj(b[x_0..x_s]) and h_s = prod_(k<s) (1 - conj(x_k) z), and the
companion's with a.num and a plus sign.  Each space keeps its last sweep,
so at a mate zero of multiplicity m one sweep serves every order below m.
At a mate boundary zero w, each step divides both numerators once by
1 - conj(w) z by the zero rule of ``polynomials``, so h_s stays 1 and no
point is left; a division failing at prefix k raises VerificationError for
orders k on; lower orders return.  Poles: |den(z)| <= TOL.pole * B_den(z).
"""

from __future__ import annotations

import math

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .config import CIRCLE_BAND, D_TRUNC, DEFAULT_TOLERANCES as TOL
from .errors import InputFormatError, OrderTooHighError, VerificationError
from .factorization import MateResult, _analytic_lowest_terms, circle_grid, pythagorean_mate
from .polynomials import Poly, RationalFn, _zero_order, as_rational

# Largest degree _degree_for_tail asks for.
_TAIL_DEGREE_CAP = 4096

# Largest derivative order i whose i! is finite in double precision.
_MAX_DERIVATIVE_ORDER = 170

# Largest gram_matrix size: C (which becomes G), conj(C) and C^H C then
# take 256 MiB each in complex128, conj(C) only for complex C.
_MAX_GRAM_SIZE = 4096


class HbVector:
    """A member of H(b) carried as the pair (f, f+).

    For vectors built from polynomials the pair satisfies the defining
    Toeplitz relation exactly and the tails are zero.  Truncated rational
    members carry geometric tail bounds on the dropped coefficients:
    tails() returns (tail_f, tail_plus), run on the first read of either,
    since the bounds evaluate the member's numerators and denominator on
    256 circle points and kernels are paired far more often than their tails
    are read.  A bound read is the one an eager build would have stored,
    bit for bit.

    A member's f and f+ are computed on read, and only as far as read:
    ``HbSpace.pair`` reads the overlap of its two vectors, so a degree-6
    vector paired with a degree-96 kernel expands 7 coefficients of the
    kernel, not 97, and f and f+ read at one size share one series head.
    Reading f or f_plus expands it all, once.
    """

    __slots__ = ("_f", "_f_plus", "_tails")

    def __init__(self, f: Poly | _OnRead, f_plus: Poly | _OnRead, tails=lambda: (0.0, 0.0)):
        object.__setattr__(self, "_f", f)
        object.__setattr__(self, "_f_plus", f_plus)
        object.__setattr__(self, "_tails", tails)

    def __setattr__(self, name, value):
        raise AttributeError("HbVector is immutable")

    @property
    def f(self) -> Poly:
        return self._f if isinstance(self._f, Poly) else self._f.poly()

    @property
    def f_plus(self) -> Poly:
        return self._f_plus if isinstance(self._f_plus, Poly) else self._f_plus.poly()

    def _tail_pair(self) -> tuple[float, float]:
        if callable(self._tails):
            object.__setattr__(self, "_tails", self._tails())
        return self._tails

    @property
    def tail_f(self) -> float:
        return self._tail_pair()[0]

    @property
    def tail_plus(self) -> float:
        return self._tail_pair()[1]

    def __repr__(self):
        return f"HbVector(f={self.f!r}, f_plus={self.f_plus!r})"


class _OnRead:
    """Coefficients 0..size-1 of num times a power series, computed on read.

    series(n) computes the series' first n coefficients afresh, head(n)
    the product's; poly() keeps the whole.
    """

    __slots__ = ("size", "series", "_num", "_poly")

    def __init__(self, num: Poly, series, size: int):
        self.size, self.series, self._poly = size, series, None
        self._num = num.coeff_array(max(len(num.coeffs), 1))

    def head(self, n: int, series: np.ndarray | None = None) -> np.ndarray:
        """The first n coefficients, from ``series`` = self.series(n) when given.

        The series is np.convolve's first operand, as it is in the whole
        product when num is the shorter, so a read then has the whole
        product's bits.
        """
        if series is None:
            series = self.series(n)
        return np.convolve(series, self._num[:n])[:n]

    def poly(self) -> Poly:
        if self._poly is None:
            self._poly = Poly(self.head(self.size))
        return self._poly


def _decay_profile(nums, den: Poly, radius: float, values=None) -> list[tuple[float, float]]:
    """One (M, rho) per num with |(num/den)_k| <= M rho^(-k), for num/den analytic
    on |z| < radius: den is evaluated once, on |z| = rho = radius^(3/4), or
    read from ``values(p)``, p on that circle, when given.  A polynomial
    (radius inf) computes nothing and reads (inf, inf), which ``_tail_bound``
    takes as no tail."""
    if math.isinf(radius):
        return [(math.inf, math.inf)] * len(nums)
    rho = radius**0.75
    if values is None:
        zs = rho * circle_grid()[::4]
        values = lambda p: p(zs)
    d = values(den)
    return [(2.0 * float(np.max(np.abs(values(num) / d))), rho) for num in nums]


def _degree_for_tail(m: float, rho: float, target: float) -> int:
    """Smallest degree D with the bound M rho^(-k) below target past D, at
    most _TAIL_DEGREE_CAP; rho finite."""
    if m <= target:
        return 0
    need = math.log(m / target) / math.log(rho)
    return min(_TAIL_DEGREE_CAP, max(0, math.ceil(need)))


def _tail_bound(m: float, rho: float, degree: int) -> float:
    """sum_{k > D} |g_k| <= M rho^(-(D+1)) / (1 - 1/rho) for D = degree; 0 for rho inf."""
    if math.isinf(rho):
        return 0.0
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

    def __init__(self, b, rng: np.random.Generator | int | None = None):
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
        self._sweep = (None, [])  # (point sequence, its ``_newton_numerators``)
        self._decay_values: dict = {}  # coefficients -> values, see _on_decay_circle
        self._Lb_nums: tuple[Poly, Poly] | None = None  # see vector_Lb

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

    def _on_decay_circle(self, p: Poly) -> np.ndarray:
        """p on |z| = rho_b^(3/4), the circle of ``_decay_profile`` at the pole
        radius, evaluated once per coefficient tuple.  Tuples that compare
        equal differ at most in signs of zero, so their values differ at most
        there too, and every |num / den| the profile reads keeps its bits."""
        values = self._decay_values.get(p.coeffs)
        if values is None:
            zs = self.pole_radius**0.75 * circle_grid()[::4]
            values = self._decay_values[p.coeffs] = p(zs)
        return values

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
        return HbVector(f, self.plus_function(f))

    def truncated_vector(self, f: RationalFn, degree: int = D_TRUNC) -> HbVector:
        """Taylor truncation of a rational member; the companion is the phi
        correlation of the truncated polynomial, exact for that polynomial.

        Against the member itself the companion inherits an O(tail) error
        at every index from the dropped coefficients, so this is for coarse
        geometry (subspace angles), not for certified identities.  Raises
        PoleInDiskError when f has a pole in the closed disk.
        """
        _check_degree(degree)
        f, radius = _analytic_lowest_terms(f)
        ft = f.taylor_poly(degree)
        return HbVector(ft, self.plus_function(ft), lambda: (
            _tail_bound(*_decay_profile([f.num], f.den, radius)[0], degree), 0.0))

    def vector_b(self, degree: int = D_TRUNC) -> HbVector:
        """b itself: b+ = 1/a(0) - a."""
        q = self.b.den
        return self._member(self.b.num, q * (1.0 / self._a0) - self.a.num, degree)

    def vector_Lb(self, degree: int = D_TRUNC) -> HbVector:
        """Lb = (b - b(0))/z: companion -La.  Its two numerators are built
        on the first call and kept for the space's later ones."""
        if self._Lb_nums is None:
            q = self.b.den
            self._Lb_nums = (_backward(self.b.num - self.b(0) * q),
                             -_backward(self.a.num - self.a(0) * q))
        return self._member(*self._Lb_nums, degree)

    def _member_den(self, points) -> Poly:
        """The one denominator rule: q prod_k (1 - conj(x_k) z) over points, q = b.den."""
        return self.b.den * math.prod((Poly([1, -x.conjugate()]) for x in points), start=Poly([1]))

    def _member(self, num: Poly, plus_num: Poly, degree: int, points=()) -> HbVector:
        """num/den and its companion plus_num/den, den = ``_member_den(points)``,
        truncated at degree and expanded on read; their tails are bounded on
        |z| < min(rho_b, 1/|x_k|), from the space's pass at radius rho_b.
        1/den is the cached 1/q series times one geometric series per
        nonzero x_k."""
        _check_degree(degree)
        radius = self.pole_radius
        for x in points:
            if x != 0:
                radius = min(radius, 1.0 / abs(x))

        def inverse_den(m: int) -> np.ndarray:
            series = self._inv_q_coeffs(m - 1)
            for x in points:
                if x != 0:
                    powers = np.cumprod(np.full(m - 1, x.conjugate()))
                    series = np.convolve(series, np.concatenate(([1.0], powers)))[:m]
            return series

        def tails() -> tuple[float, float]:
            den = self._member_den(points)
            s = 1.0 / den.coeff(0)  # the normalisation of RationalFn(num, den)
            shared = self._on_decay_circle if radius == self.pole_radius else None
            return tuple(_tail_bound(m, rho, degree) for m, rho in _decay_profile(
                [num * s, plus_num * s], den * s, radius, shared))

        return HbVector(_OnRead(num, inverse_den, degree + 1),
                        _OnRead(plus_num, inverse_den, degree + 1), tails)

    # -- inner products ------------------------------------------------------

    def pair(self, u: HbVector, v: HbVector) -> complex:
        """<u, v>_b, linear in u and conjugate-linear in v; reads each member
        only as far as the overlap of the two vectors, f and f+ from one
        series head when the two overlaps agree (see ``_heads``)."""
        n, m = _overlap(u._f, v._f), _overlap(u._f_plus, v._f_plus)
        uf, up = _heads(u, n, m)
        vf, vp = (uf, up) if v is u else _heads(v, n, m)
        return _h2_dot(uf, vf) + _h2_dot(up, vp)

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
        the (j, k) and (k, j) entries alike.  G is assembled in C's buffer,
        which the product no longer needs, with the roundings of
        eye(n) + 0.5 (h + h^H) (a floating-point sum commutes exactly):
        adding +0.0 clears the signed zeros that eye's zeros clear.  So its
        bytes are that expression's, signed zeros included, and at the peak
        the N x N arrays are C, conj(C) for complex C, and C^H C.
        InputFormatError for n < 1 or n > _MAX_GRAM_SIZE (4096).
        """
        if n < 1:
            raise InputFormatError("gram size must be at least 1")
        if n > _MAX_GRAM_SIZE:
            raise InputFormatError(f"gram size {n} exceeds {_MAX_GRAM_SIZE}")
        c = self._companion(n)
        h = c.conj().T @ c
        g = np.conjugate(h.T, out=c)
        g += h
        g *= 0.5
        g += 0.0
        g.flat[:: n + 1] += 1.0
        return g

    def _companion(self, n: int) -> np.ndarray:
        """C_n[j, k] = conj(phi_(k-j)), float64 when phi_0..phi_(n-1) are exactly real."""
        return _upper_toeplitz(_real_if_exact(np.conj(self.phi_coeffs(n - 1))))

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
        num, _, rest = self._kernel_numerators(w, i)
        return RationalFn(num, self._member_den(rest))

    def kernel_vector(self, lam: complex, degree: int = D_TRUNC) -> HbVector:
        """Truncated kernel with its exact companion conj(b(lam)) a k_lam."""
        return self.derivative_kernel_vector(lam, 0, degree=degree)

    def derivative_kernel_vector(self, w: complex, i: int, degree: int = D_TRUNC) -> HbVector:
        """u_w^i = ``kernel_derivative(w, i)``, <f, u_w^i>_b = f^(i)(w), truncated at
        degree with its exact companion and geometric tail bounds; w, i as there."""
        num, plus_num, rest = self._kernel_numerators(w, i)
        return self._member(num, plus_num, degree, rest)

    def _kernel_numerators(self, w: complex, i: int) -> tuple[Poly, Poly, list]:
        """Numerators of u_w^i = i! K[conj(w), ..., conj(w)] (i + 1 copies) and of its
        companion over ``_member_den(rest)``, and rest; the checks of the public calls.
        At a mate boundary zero of multiplicity m, one sweep of w repeated m times
        serves every order i < m."""
        if i < 0:
            raise InputFormatError(f"derivative order must be nonnegative, got {i}")
        if i > _MAX_DERIVATIVE_ORDER:
            raise InputFormatError(
                f"derivative order {i} exceeds {_MAX_DERIVATIVE_ORDER}, past which i! overflows"
            )
        if not abs(w) <= 1.0 + CIRCLE_BAND:  # NaN fails it too
            raise InputFormatError(f"kernel point {w} lies outside the closed unit disk")
        points = [w] * (i + 1)
        if abs(abs(w) - 1.0) <= CIRCLE_BAND:
            mult = next((m for lam, m in self.boundary_zeros if abs(w - lam) <= CIRCLE_BAND), 0)
            if i >= mult:
                raise OrderTooHighError(
                    f"derivative order {i} at boundary point {w} exceeds multiplicity {mult}"
                )
            points = [w] * mult
        num, plus_num, rest = _held(self._newton_numerators(points)[i])
        fact = float(math.factorial(i))
        return num * fact, plus_num * fact, rest

    def _newton_kernels(self, points) -> list[RationalFn]:
        """The representers K[conj(x_0), ..., conj(x_s)] of f -> f[x_0, ..., x_s],
        one per prefix of points, from one sweep."""
        return [RationalFn(num, self._member_den(rest))
                for num, _, rest in map(_held, self._newton_numerators(points))]

    def _newton_numerators(self, points) -> list:
        """Numerators of K[conj(x_0), ..., conj(x_s)] and of its companion over
        ``_member_den(rest)``, and rest, the points left in the denominator: one
        triple per prefix x_0..x_s of points, from one sweep; the space keeps
        the last sweep, so a repeated request for the same points reuses it.

        K[..] is the divided difference of K_w in conj(w), the representer of
        f -> f[x_0, ..., x_s], for points in the open disk or one mate boundary
        zero repeated.  K_w = (1 - conj(b(w)) b) S_w with
        S_w = 1 / (1 - conj(w) z), so the product rule gives

            K[..] = S[conj(x_0..x_s)] - b sum_i conj(b[x_0..x_i]) S[conj(x_i..x_s)],
            S[conj(x_i..x_s)] = z^(s-i) / prod_(k=i..s) (1 - conj(x_k) z),

        and the companion conj(b(w)) a S_w of K_w gives a.num times the same
        sum; rest is the prefix.  Prefix s is one step from prefix s - 1, with
        c_s = conj(b[x_0..x_s]) and h_s = prod_(k<s) (1 - conj(x_k) z):
        N_s = z N_(s-1) - c_s b.num h_s from N_0 = q - c_0 b.num, and
        P_s = z P_(s-1) + c_s a.num h_s from P_(-1) = 0.  At a mate boundary
        zero w repeated, each step divides N_s and P_s once by 1 - conj(w) z,
        so h_s stays 1 and rest is empty; a division failing at prefix k ends
        the sweep: prefixes k on hold its VerificationError message for ``_held``.
        """
        key = tuple(map(repr, points))
        if self._sweep[0] == key:
            return self._sweep[1]
        w = points[0]
        boundary = abs(abs(w) - 1.0) <= CIRCLE_BAND
        sweep = []
        nums, h = (self.b.den, Poly()), Poly([1])  # z N_(-1) = q, z P_(-1) = 0, h_0
        for s, (x, t) in enumerate(zip(points, self.b.divided_differences(points))):
            ch = complex(t).conjugate() * h
            nums = nums[0] - self.b.num * ch, nums[1] + self.a.num * ch
            if boundary:
                steps = [_zero_order(num, w, at_most=1) for num in nums]
                if not all(k for k, _ in steps):
                    sweep += [f"boundary kernel division failed at prefix {s}"] * (len(points) - s)
                    break
                nums = tuple(work * (-1.0 / w.conjugate()) for _, work in steps)
            else:
                h = h * Poly([1, -x.conjugate()])
            sweep.append((*nums, [] if boundary else points[: s + 1]))
            nums = nums[0].shifted(1), nums[1].shifted(1)
        self._sweep = key, sweep
        return sweep

    # -- identities ----------------------------------------------------------

    def norm_identities_check(self) -> dict:
        """Closed forms for |b|_b^2 and |Lb|_b^2 against Gram arithmetic.

        The Gram side pairs the closed-form vectors of b and Lb, truncated
        where the tail bound falls below 1e-16.  For polynomial b
        (rho_b = inf) the degree max(D_TRUNC, deg b, deg a) keeps every
        coefficient and the tail bound is 0, so one route serves both.
        """
        r = self.pole_radius
        tails = (g.num.degree if math.isinf(r) else _degree_for_tail(
            *_decay_profile([g.num], g.den, r, self._on_decay_circle)[0], 1e-16) for g in (self.b, self.a))
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


def _overlap(f: Poly | _OnRead, g: Poly | _OnRead) -> int:
    """The smaller of the two sizes: how far a pairing reads each."""
    return min(len(x.coeffs) if isinstance(x, Poly) else x.size for x in (f, g))


def _heads(v: HbVector, n: int, m: int) -> tuple[np.ndarray, np.ndarray]:
    """v's f to n coefficients and f+ to m.  A member's f and f+ at one size
    are read from one series head, computed afresh: the head each read
    alone would compute, so both keep their bits."""
    f, plus = v._f, v._f_plus
    if n and n == m and isinstance(f, _OnRead) and isinstance(plus, _OnRead) and f.series is plus.series:
        series = f.series(n)
        return f.head(n, series), plus.head(n, series)
    return _head(f, n), _head(plus, m)


def _head(x: Poly | _OnRead, n: int) -> np.ndarray:
    if n == 0:
        return np.zeros(0, dtype=complex)
    return x.coeff_array(n) if isinstance(x, Poly) else x.head(n)


def _h2_dot(f: np.ndarray, g: np.ndarray) -> complex:
    """sum_k f_k conj(g_k) over two heads of one length."""
    return complex(np.dot(f, np.conj(g))) if len(f) else 0j


def _check_degree(degree) -> None:
    """InputFormatError unless the truncation degree is an integer >= 0."""
    if isinstance(degree, bool) or not isinstance(degree, (int, np.integer)) or degree < 0:
        raise InputFormatError(f"truncation degree must be an integer >= 0, got {degree!r}")


def _held(entry) -> tuple[Poly, Poly, list]:
    """A sweep entry of ``_newton_numerators``, or the VerificationError it holds raised."""
    if isinstance(entry, str):
        raise VerificationError(entry)
    return entry


def _correlate(c: np.ndarray, f: np.ndarray) -> np.ndarray:
    """Row j = sum_i c[i] f[i + j] for equal-length c, f: T f for T below."""
    return np.convolve(c, f[::-1])[len(f) - 1 :: -1]


def _grown_series(cache: np.ndarray, num: Poly, den: Poly, n: int) -> np.ndarray:
    """cache if it reaches degree n, else num/den expanded afresh, read-only,
    to degree max(n, 2 len(cache) + 8): growth by doubling."""
    if len(cache) > n:
        return cache
    out = RationalFn(num, den).taylor(max(n, 2 * len(cache) + 8))
    out.flags.writeable = False
    return out


def _upper_toeplitz(c: np.ndarray) -> np.ndarray:
    """The upper-triangular Toeplitz matrix T[j, k] = c[k - j].

    Row j is the length-n window of (0, ..., 0, c) starting at n - j.
    """
    n = len(c)
    padded = np.concatenate([np.zeros(n, dtype=c.dtype), c])
    return sliding_window_view(padded, n)[n:0:-1].copy()


def _real_if_exact(x: np.ndarray) -> np.ndarray:
    """x as float64 when its imaginary part is exactly zero, else x itself.

    The one rule for when Gram matrices run in real arithmetic: the
    companion C_n passes through it.
    """
    return x if x.imag.any() else x.real


def _backward(p: Poly) -> Poly:
    """The backward shift L: p's constant term dropped, the rest divided by z."""
    return Poly(p.coeffs[1:])
