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

Every generator passes the gate factorization._lowest_terms once, so it
is finite and in lowest terms; a pole inside the disk raises
PoleInDiskError, and one on the circle band is not a member.  Before
the gate a numerator whose coefficients all sit below 2^-511 is lifted
exactly by a power of two: [f] does not change, and neither the Horner
bound's floor nor an underflowing |f|_b^2 is left to read.  One whose
scale reaches 2^500 is lowered to unit scale the same way, so |f|_b^2
does not overflow, unless a nonzero coefficient part would turn
subnormal; subspace_distance raises NumericalError for such a
generator.  Its descriptor reads ord_{lambda_i} f and divides it out of
the numerator in one pass (polynomials._zero_order) before rooting the
rest, so a multiple zero at a mate zero cannot splatter into theta.

subspace_distance gives the numeric side, exactly: the distance from f
to [g], relative to |f|_b.  The same data fix [g]^perp by one family of
functionals, divided differences over point sequences: the zeros of g in
the open disk with multiplicity (copies adjacent), and each mate zero
lambda repeated j_lambda times.  f lies in [g] exactly when

    f[x_0, ..., x_s] = 0   for s < len(x), over every sequence x.

At w repeated s + 1 times f[w, ..., w] = f^(s)(w) / s!; at distinct points
the divided differences span the same functionals as the values, and they
stay independent as points come together, where values would not.  Each
l_a(f), read by RationalFn.divided_differences, is <f, k_a>_b with k_a the
divided difference of K_w in conj(w) over the same points; one sweep of
HbSpace._newton_kernels gives a sequence's kernels, one per prefix.  The
part of f orthogonal to [g] is P f = sum_b y_b k_b over the d =
codimension kernels, and
<P f, k_a>_b = <f, k_a>_b = c_a reads

    Gamma y = c,   Gamma[a, b] = <k_b, k_a>_b = l_a(k_b),   c_a = l_a(f),

so |P f|_b^2 = c^H Gamma^-1 c.  Gamma, the Gram matrix of the kernels, is
Hermitian positive definite when they are independent, and one Cholesky
factor L solves it:

    d(f, [g])^2 = |L^-1 c|^2 / |f|_b^2.

Gamma is averaged with its adjoint so it is exactly Hermitian.  A
Cholesky that fails, or whose least pivot L_kk^2 is within d eps of
Gamma's largest diagonal entry (rounding level, which proves nothing),
raises RankDeficiencyError with the codimension d.  A polynomial f enters
exactly; a rational f is replaced by its Taylor polynomial of degree
D_TRUNC in both c and |f|_b, so the ratio is a true relative distance,
at most 1.  The statistic is the larger of the two directed distances.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .config import CIRCLE_BAND, D_TRUNC
from .errors import (
    InputFormatError,
    MultipleBoundaryZeroError,
    NumericalError,
    RankDeficiencyError,
)
from .factorization import _analytic_lowest_terms, _blaschke, _inner_roots, _lowest_terms
from .polynomials import (
    Poly, RationalFn, _dyadic_rescaled, _zero_order, as_rational, complex_to_json)
from .space import HbSpace

_EPS = np.finfo(float).eps
# Below this scale a generator's squared norm leaves the normal range;
# at or above the ceiling it can overflow.
_SQUARE_FLOOR = 2.0**-511
_SQUARE_CEILING = 2.0**500


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

    @property
    def codimension(self) -> int | float:
        """The dimension of the orthogonal complement, the order of the kernel
        Gram matrix Gamma of ``subspace_distance``: the inner zeros with
        multiplicity plus the capped boundary orders; inf for the zero subspace."""
        if self.form == "zero":
            return math.inf
        return self.inner_degree + sum(j for _, j in self.boundary_orders)

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


def _generator(f) -> RationalFn:
    """f, with its numerator brought exactly by a power of two to about
    unit scale when its scale is below ``_SQUARE_FLOOR`` or at or above
    ``_SQUARE_CEILING`` (``_dyadic_rescaled``).

    [f] is [c f] for every c != 0 and a distance relative to |f|_b does
    not see c either; lifted, the zero rule no longer reads every point as
    a zero under the Horner bound's floor, and |f|_b^2 does not underflow;
    lowered, |f|_b^2 does not overflow.  A numerator is not lowered when
    a nonzero part of a coefficient would turn subnormal; it keeps its
    scale, which ``subspace_distance`` refuses.
    """
    f = as_rational(f)
    num = _dyadic_rescaled(f.num, _SQUARE_FLOOR, _SQUARE_CEILING)
    return f if num is f.num else RationalFn(num, f.den)


def classify(space: HbSpace, f) -> SubspaceDescriptor:
    """The descriptor of [f]; InputFormatError unless f is a member of H(b)."""
    f, radius = _lowest_terms(_generator(f))
    if radius <= 1.0 + CIRCLE_BAND:
        raise InputFormatError("not a member of the space: pole on the unit circle")
    return _describe(space, f)


def _describe(space: HbSpace, f: RationalFn) -> SubspaceDescriptor:
    """The descriptor of [f] for f past the gate: in lowest terms, analytic on the closed disk."""
    if f.num.is_zero:
        return SubspaceDescriptor(
            form="zero",
            inner_roots=(),
            boundary_orders=tuple((lam, m) for lam, m in space.boundary_zeros),
            canonical=RationalFn(Poly([]), Poly([1])),
            description="the zero subspace",
        )
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


def _annihilators(target: SubspaceDescriptor) -> list[list[complex]]:
    """The point sequences whose divided differences vanish on target:
    functional s of sequence x is f[x_0, ..., x_s], for s < len(x).

    The inner zeros, copies adjacent, form one sequence; each mate zero
    lambda with j > 0 forms another, lambda repeated j times.
    """
    seqs = [list(target.inner_roots), *([lam] * j for lam, j in target.boundary_orders)]
    return [seq for seq in seqs if seq]


def _distance_to(space: HbSpace, f: RationalFn, target: SubspaceDescriptor) -> float:
    """Distance from the nonzero member f to the subspace target, relative to |f|_b.

    d^2 = c^H Gamma^-1 c / |f|_b^2 over target's annihilators; see the
    module docstring.
    """
    seqs = _annihilators(target)
    kernels = [k for seq in seqs for k in space._newton_kernels(seq)]
    if not kernels:
        return 0.0

    def functionals(h: RationalFn) -> np.ndarray:
        return np.concatenate([h.divided_differences(seq) for seq in seqs])

    # c and |f|_b from one function: a rational f by its Taylor polynomial
    p = f.as_poly() if f.is_polynomial else f.taylor_poly(D_TRUNC)
    c = functionals(RationalFn(p, Poly([1])))
    gamma = np.column_stack([functionals(k) for k in kernels])
    gamma = 0.5 * (gamma + gamma.conj().T)
    try:
        factor = np.linalg.cholesky(gamma)
        pivot = float(np.min(np.abs(np.diag(factor)))) ** 2
    except np.linalg.LinAlgError:
        pivot = 0.0
    # a pivot at the rounding level of Gamma's largest entry proves nothing
    if not pivot > len(kernels) * _EPS * float(np.max(gamma.diagonal().real)):
        raise RankDeficiencyError(
            f"kernel Gram matrix of codimension {target.codimension} is not numerically "
            f"positive definite (least pivot {pivot:.3e})"
        )
    norm_sq = space.inner_product(p, p).real
    return float(np.linalg.norm(np.linalg.solve(factor, c)) / math.sqrt(norm_sq))


def subspace_distance(space: HbSpace, f, g) -> float:
    """How far apart the invariant subspaces [f] and [g] sit in the H(b) metric.

    The statistic is mutual generator approximation: the distance from f
    to the closed subspace [g] (relative to |f|_b), maximized over both
    directions.  Each is exact, c^H Gamma^-1 c over the annihilating
    kernels of the target (module docstring), so equal subspaces read 0
    up to rounding and distinct ones their true separation.  Each
    generator passes the gate once and is put in lowest terms; a pole in
    the closed disk (or on the circle band) raises PoleInDiskError;
    RankDeficiencyError when a kernel Gram matrix is numerically singular;
    NumericalError for a generator at or above ``_SQUARE_CEILING`` that
    ``_generator`` cannot lower exactly, whose |f|_b^2 would overflow.
    """
    f, _ = _analytic_lowest_terms(_generator(f))
    g, _ = _analytic_lowest_terms(_generator(g))
    for h in (f, g):
        if h.num.scale() >= _SQUARE_CEILING:
            raise NumericalError(
                f"generator of scale {h.num.scale():.3e} spans too wide a range to "
                "be lowered exactly by a power of two; its squared norm would overflow")
    if f.num.is_zero and g.num.is_zero:
        return 0.0
    if f.num.is_zero or g.num.is_zero:
        return 1.0
    return max(_distance_to(space, f, _describe(space, g)),
               _distance_to(space, g, _describe(space, f)))
