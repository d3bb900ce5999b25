"""Complex polynomials and rational functions on the unit disk.

Coefficients are stored lowest degree first.  The JSON wire form for a
polynomial is ``{"coeffs": [[re, im], ...]}`` and a rational function is
``{"num": <poly>, "den": <poly>}``; complex scalars travel as ``[re, im]``
pairs.

Root finding uses a simultaneous Aberth-Ehrlich iteration started on a
randomly rotated circle, with the companion-matrix eigenvalue solver as a
fallback when the iteration stalls.
"""

from __future__ import annotations

import cmath
import math
from typing import Iterable, Sequence

import numpy as np

from .config import DEFAULT_TOLERANCES, Tolerances
from .errors import (
    InputFormatError,
    NonConvergenceError,
    PoleAtPointError,
    ZeroFunctionError,
)

NEG_INF = float("-inf")


def _as_complex_tuple(coeffs: Iterable[complex]) -> tuple[complex, ...]:
    return tuple(complex(c) for c in coeffs)


def _trim_exact(coeffs: tuple[complex, ...]) -> tuple[complex, ...]:
    last = len(coeffs)
    while last > 0 and coeffs[last - 1] == 0:
        last -= 1
    return coeffs[:last]


class Poly:
    """Immutable polynomial with complex coefficients, lowest degree first.

    >>> p = Poly([1, 0, -1])      # 1 - z^2
    >>> p.degree
    2
    >>> p(2.0)
    (-3+0j)
    >>> (p * Poly([0, 1])).coeffs
    (0j, (1+0j), 0j, (-1+0j))
    """

    __slots__ = ("coeffs",)

    def __init__(self, coeffs: Iterable[complex] = ()):
        object.__setattr__(self, "coeffs", _trim_exact(_as_complex_tuple(coeffs)))

    def __setattr__(self, name, value):
        raise AttributeError("Poly is immutable")

    # -- basic structure ------------------------------------------------

    @property
    def degree(self) -> int | float:
        """Index of the last nonzero coefficient; -inf for the zero polynomial."""
        return len(self.coeffs) - 1 if self.coeffs else NEG_INF

    @property
    def is_zero(self) -> bool:
        return not self.coeffs

    def coeff(self, k: int) -> complex:
        return self.coeffs[k] if 0 <= k < len(self.coeffs) else 0j

    def coeff_array(self, length: int | None = None) -> np.ndarray:
        n = len(self.coeffs) if length is None else length
        out = np.zeros(max(n, 0), dtype=complex)
        m = min(len(self.coeffs), len(out))
        out[:m] = self.coeffs[:m]
        return out

    def scale(self) -> float:
        """Largest coefficient magnitude (0.0 for the zero polynomial)."""
        return max((abs(c) for c in self.coeffs), default=0.0)

    def trim(self, rel_tol: float = 1e-13) -> "Poly":
        """Drop trailing coefficients below ``rel_tol`` times the scale."""
        s = self.scale()
        if s == 0.0:
            return self
        cs = list(self.coeffs)
        while cs and abs(cs[-1]) <= rel_tol * s:
            cs.pop()
        return Poly(cs)

    # -- evaluation ------------------------------------------------------

    def __call__(self, z):
        """Horner evaluation at a scalar or ndarray of points.

        Rounding is bounded by O(degree * eps * sum |c_k| |z|^k).
        """
        if not self.coeffs:
            return np.zeros_like(z, dtype=complex) if isinstance(z, np.ndarray) else 0j
        if isinstance(z, np.ndarray):
            acc = np.full_like(z, self.coeffs[-1], dtype=complex)
            for c in reversed(self.coeffs[:-1]):
                acc = acc * z + c
            return acc
        acc = self.coeffs[-1]
        for c in reversed(self.coeffs[:-1]):
            acc = acc * z + c
        return acc

    # -- ring operations ---------------------------------------------------

    def _coerce(self, other) -> "Poly | None":
        if isinstance(other, Poly):
            return other
        if isinstance(other, (int, float, complex)):
            return Poly([other])
        return None

    def __add__(self, other):
        q = self._coerce(other)
        if q is None:
            return NotImplemented
        n = max(len(self.coeffs), len(q.coeffs))
        return Poly([self.coeff(k) + q.coeff(k) for k in range(n)])

    __radd__ = __add__

    def __neg__(self):
        return Poly([-c for c in self.coeffs])

    def __sub__(self, other):
        q = self._coerce(other)
        if q is None:
            return NotImplemented
        return self + (-q)

    def __rsub__(self, other):
        q = self._coerce(other)
        if q is None:
            return NotImplemented
        return q + (-self)

    def __mul__(self, other):
        q = self._coerce(other)
        if q is None:
            return NotImplemented
        if self.is_zero or q.is_zero:
            return Poly()
        prod = np.convolve(self.coeff_array(), q.coeff_array())
        return Poly(prod)

    __rmul__ = __mul__

    def __pow__(self, n: int):
        if n < 0:
            raise ValueError("negative power of a polynomial")
        out = Poly([1])
        base = self
        while n:
            if n & 1:
                out = out * base
            base = base * base
            n >>= 1
        return out

    def __divmod__(self, other):
        q = self._coerce(other)
        if q is None:
            return NotImplemented
        if q.is_zero:
            raise ZeroDivisionError("polynomial division by zero")
        if self.is_zero or len(self.coeffs) < len(q.coeffs):
            return Poly(), self
        rem = list(self.coeffs)
        dq = len(q.coeffs) - 1
        lead = q.coeffs[-1]
        quot = [0j] * (len(rem) - dq)
        for k in range(len(quot) - 1, -1, -1):
            c = rem[k + dq] / lead
            quot[k] = c
            if c != 0:
                for j in range(dq + 1):
                    rem[k + j] -= c * q.coeffs[j]
        return Poly(quot), Poly(rem[:dq])

    def __floordiv__(self, other):
        return divmod(self, other)[0]

    def __mod__(self, other):
        return divmod(self, other)[1]

    def __eq__(self, other):
        if not isinstance(other, Poly):
            return NotImplemented
        return self.coeffs == other.coeffs

    def __hash__(self):
        return hash(self.coeffs)

    # -- calculus and symmetries -----------------------------------------

    def derivative(self, order: int = 1) -> "Poly":
        out = self
        for _ in range(order):
            out = Poly([k * c for k, c in enumerate(out.coeffs)][1:])
        return out

    def conjugate_coeffs(self) -> "Poly":
        """Coefficientwise conjugate, so q*(z) = conj(q(conj(z)))."""
        return Poly([c.conjugate() for c in self.coeffs])

    def reflect(self, d: int | None = None) -> "Poly":
        """Reversal z^d * conj(p)(1/z); d defaults to the degree.

        >>> Poly([1j, 1]).reflect(1).coeffs
        ((1-0j), -1j)
        """
        if self.is_zero:
            return Poly()
        if d is None:
            d = len(self.coeffs) - 1
        if d < len(self.coeffs) - 1:
            raise ValueError("reflection degree below the polynomial degree")
        padded = list(self.coeffs) + [0j] * (d + 1 - len(self.coeffs))
        return Poly([c.conjugate() for c in reversed(padded)])

    def shifted(self, k: int) -> "Poly":
        """Multiply by z^k."""
        if self.is_zero:
            return Poly()
        return Poly((0j,) * k + self.coeffs)

    # -- roots -------------------------------------------------------------

    def roots(
        self,
        tol: Tolerances = DEFAULT_TOLERANCES,
        rng: np.random.Generator | None = None,
    ) -> np.ndarray:
        """All roots, multiplicity included, as a complex array.

        Multiple roots are returned as the tight clusters the iteration
        resolves them into; each returned point r satisfies
        |p(r)| <= root_residual * sum |c_k| |r|^k.
        """
        return poly_roots(self, tol=tol, rng=rng)

    # -- serialization -------------------------------------------------------

    def to_json(self) -> dict:
        return {"coeffs": [[c.real, c.imag] for c in self.coeffs]}

    @classmethod
    def from_json(cls, obj) -> "Poly":
        if not isinstance(obj, dict) or "coeffs" not in obj:
            raise InputFormatError("polynomial JSON must be {'coeffs': [[re, im], ...]}")
        out = []
        for pair in obj["coeffs"]:
            if not isinstance(pair, (list, tuple)) or len(pair) != 2:
                raise InputFormatError(f"bad complex entry {pair!r}")
            out.append(complex_from_json(pair))
        return cls(out)

    @classmethod
    def from_roots(cls, roots: Sequence[complex], leading: complex = 1.0) -> "Poly":
        p = np.array([leading], dtype=complex)
        for r in roots:
            p = np.convolve(p, np.array([-r, 1.0], dtype=complex))
        return cls(p)

    def __repr__(self):
        if self.is_zero:
            return "Poly(0)"
        terms = []
        for k, c in enumerate(self.coeffs):
            if c == 0:
                continue
            if c.imag == 0:
                cs = f"{c.real:g}"
            else:
                cs = f"({c.real:g}{c.imag:+g}j)"
            terms.append(cs if k == 0 else (f"{cs}*z" if k == 1 else f"{cs}*z^{k}"))
        return "Poly[" + " + ".join(terms) + "]"


ZERO = Poly()
ONE = Poly([1])
Z = Poly([0, 1])


# -- root finding ------------------------------------------------------------


def _horner_many(c: np.ndarray, z: np.ndarray) -> np.ndarray:
    acc = np.full(z.shape, c[-1], dtype=complex)
    for ck in c[-2::-1]:
        acc = acc * z + ck
    return acc


def _residual_scale(c: np.ndarray, z: np.ndarray) -> np.ndarray:
    az = np.abs(z)
    acc = np.full(z.shape, abs(c[-1]))
    for ck in c[-2::-1]:
        acc = acc * az + abs(ck)
    return np.maximum(acc, 1e-300)


def _aberth(c: np.ndarray, rng: np.random.Generator, tol: Tolerances) -> np.ndarray | None:
    """Simultaneous root iteration; returns roots or None on a stall."""
    d = len(c) - 1
    dc = np.arange(1, d + 1) * c[1:]
    # Start on a circle whose radius blends the Cauchy bound with the
    # geometric-mean estimate, randomly rotated and jittered so symmetric
    # configurations cannot lock the iteration.
    cauchy = 1.0 + np.max(np.abs(c[:-1])) / abs(c[-1])
    if c[0] != 0:
        geo = abs(c[0] / c[-1]) ** (1.0 / d)
    else:
        geo = 0.5
    radius = min(cauchy, max(geo, 1e-3))
    theta = rng.uniform(0.0, 2.0 * np.pi)
    angles = theta + 2.0 * np.pi * np.arange(d) / d
    z = radius * np.exp(1j * angles) * (1.0 + 0.01 * rng.standard_normal(d))

    for _ in range(120):
        pz = _horner_many(c, z)
        scale = _residual_scale(c, z)
        if np.all(np.abs(pz) <= tol.root_residual * scale):
            return z
        dpz = _horner_many(dc, z) if d > 0 else np.zeros_like(z)
        bad = np.abs(dpz) < 1e-300
        if np.any(bad):
            z[bad] += 1e-8 * (1.0 + np.abs(z[bad])) * np.exp(1j * rng.uniform(0, 2 * np.pi, bad.sum()))
            continue
        w = pz / dpz
        diff = z[:, None] - z[None, :]
        np.fill_diagonal(diff, np.inf)
        s = np.sum(1.0 / diff, axis=1)
        denom = 1.0 - w * s
        small = np.abs(denom) < 1e-12
        denom[small] = 1.0
        z = z - w / denom
    pz = _horner_many(c, z)
    scale = _residual_scale(c, z)
    if np.all(np.abs(pz) <= tol.root_residual * scale):
        return z
    return None


def poly_roots(
    p: Poly,
    tol: Tolerances = DEFAULT_TOLERANCES,
    rng: np.random.Generator | None = None,
) -> np.ndarray:
    """Roots of p with multiplicity, lowest-degree-first coefficients.

    Raises ZeroFunctionError on the zero polynomial and
    NonConvergenceError if both the simultaneous iteration and the
    companion-matrix fallback miss the residual target.
    """
    if p.is_zero:
        raise ZeroFunctionError("the zero polynomial has no root set")
    work = p.trim(1e-14)
    c = work.coeff_array()
    if len(c) == 1:
        return np.zeros(0, dtype=complex)
    # Exact roots at the origin come off first.
    k0 = 0
    while k0 < len(c) - 1 and c[k0] == 0:
        k0 += 1
    c = c[k0:]
    c = c / np.max(np.abs(c))
    d = len(c) - 1
    if d == 0:
        found = np.zeros(0, dtype=complex)
    elif d == 1:
        found = np.array([-c[0] / c[1]])
    elif d == 2:
        a2, a1, a0 = c[2], c[1], c[0]
        disc = cmath.sqrt(a1 * a1 - 4.0 * a2 * a0)
        s = a1 + disc if abs(a1 + disc) >= abs(a1 - disc) else a1 - disc
        if s == 0:
            found = np.zeros(2, dtype=complex)
        else:
            found = np.array([-s / (2.0 * a2), -2.0 * a0 / s])
    else:
        if rng is None:
            rng = np.random.default_rng(0)
        found = _aberth(c, rng, tol)
        if found is None:
            found = np.roots(c[::-1])
            resid = np.abs(_horner_many(c, found)) / _residual_scale(c, found)
            if np.max(resid) > 1e3 * tol.root_residual:
                raise NonConvergenceError(
                    f"root residual {np.max(resid):.3e} after fallback"
                )
        found = _newton_polish(c, found)
    roots = np.concatenate([np.zeros(k0, dtype=complex), found])
    return roots


def _newton_polish(c: np.ndarray, z: np.ndarray, steps: int = 3) -> np.ndarray:
    """A few Newton steps per root; simple roots reach machine precision.

    Roots in a multiple-root cluster just shuffle within the cluster,
    which downstream consumers re-polish anyway.
    """
    dc = np.arange(1, len(c)) * c[1:]
    z = z.copy()
    for _ in range(steps):
        dpz = _horner_many(dc, z)
        ok = np.abs(dpz) > 1e-300
        step = np.zeros_like(z)
        step[ok] = _horner_many(c, z[ok]) / dpz[ok]
        # reject steps that increase the residual (cluster oscillation)
        trial = z - step
        better = np.abs(_horner_many(c, trial)) <= np.abs(_horner_many(c, z))
        z[better] = trial[better]
    return z


def cluster_points(points: np.ndarray, link: float) -> list[np.ndarray]:
    """Greedy union of points into chains with link distance ``link``."""
    n = len(points)
    parent = list(range(n))

    def find(i):
        while parent[i] != i:
            parent[i] = parent[parent[i]]
            i = parent[i]
        return i

    for i in range(n):
        for j in range(i + 1, n):
            if abs(points[i] - points[j]) <= link:
                ri, rj = find(i), find(j)
                if ri != rj:
                    parent[ri] = rj
    groups: dict[int, list[int]] = {}
    for i in range(n):
        groups.setdefault(find(i), []).append(i)
    return [points[idx] for idx in groups.values()]


def polish_multiple_root(p: Poly, center: complex, mult: int, steps: int = 30) -> complex:
    """Newton refinement of a multiplicity-``mult`` root via p^(mult-1)."""
    q = p
    for _ in range(mult - 1):
        q = q.derivative()
    dq = q.derivative()
    z = center
    for _ in range(steps):
        dv = dq(z)
        if abs(dv) == 0:
            break
        step = q(z) / dv
        z -= step
        if abs(step) <= 1e-16 * max(1.0, abs(z)):
            break
    return z


def gcd_by_roots(
    p: Poly,
    q: Poly,
    tol: Tolerances = DEFAULT_TOLERANCES,
    rng: np.random.Generator | None = None,
) -> Poly:
    """Monic gcd from greedily matched root pairs within the gcd tolerance.

    Purely numerical: two roots are "common" when they sit within
    ``tol.gcd`` of each other, measured relative to max(1, |root|).
    """
    if p.is_zero:
        return q if q.is_zero else Poly(np.array(q.coeffs) / q.coeffs[-1])
    if q.is_zero:
        return Poly(np.array(p.coeffs) / p.coeffs[-1])
    rp = list(poly_roots(p, tol=tol, rng=rng))
    rq = list(poly_roots(q, tol=tol, rng=rng))
    common: list[complex] = []
    for r in rp:
        best_j, best_d = -1, np.inf
        for j, s in enumerate(rq):
            dist = abs(r - s) / max(1.0, abs(r))
            if dist < best_d:
                best_j, best_d = j, dist
        if best_j >= 0 and best_d <= tol.gcd:
            common.append((r + rq.pop(best_j)) / 2.0)
    if not common:
        return ONE
    return Poly.from_roots(common)


# -- rational functions ------------------------------------------------------


class RationalFn:
    """Quotient of two polynomials, normalized so den(0) = 1 when possible.

    The denominator of anything this package produces is zero-free on the
    closed unit disk, but the class itself only requires den != 0.

    Members
    -------
    num, den : Poly
    """

    __slots__ = ("num", "den")

    def __init__(self, num: Poly | complex, den: Poly | complex = 1, reduce: bool = False,
                 tol: Tolerances = DEFAULT_TOLERANCES):
        num = num if isinstance(num, Poly) else Poly([num])
        den = den if isinstance(den, Poly) else Poly([den])
        if den.is_zero:
            raise ZeroDivisionError("rational function with zero denominator")
        if reduce and not num.is_zero:
            num, den = _cancel_common_roots(num, den, tol)
        d0 = den.coeff(0)
        if abs(d0) > 1e-12 * den.scale():
            num = num * (1.0 / d0)
            den = den * (1.0 / d0)
        else:
            lead = den.coeffs[-1]
            num = num * (1.0 / lead)
            den = den * (1.0 / lead)
        object.__setattr__(self, "num", num)
        object.__setattr__(self, "den", den)

    def __setattr__(self, name, value):
        raise AttributeError("RationalFn is immutable")

    @property
    def degree(self) -> int | float:
        return max(self.num.degree, self.den.degree)

    @property
    def is_zero(self) -> bool:
        return self.num.is_zero

    @property
    def is_polynomial(self) -> bool:
        return self.den.degree == 0

    def as_poly(self) -> Poly:
        if not self.is_polynomial:
            raise ValueError("not a polynomial")
        return self.num * (1.0 / self.den.coeff(0))

    # -- evaluation ------------------------------------------------------

    def __call__(self, z, tol: Tolerances = DEFAULT_TOLERANCES):
        dv = self.den(z)
        if isinstance(z, np.ndarray):
            guard = tol.pole * _residual_scale(self.den.coeff_array(), z)
            if np.any(np.abs(dv) <= guard):
                raise PoleAtPointError("evaluation at a pole of the denominator")
            return self.num(z) / dv
        # _residual_scale in plain floats: no arrays on the scalar path.
        az = abs(z)
        coeffs = self.den.coeffs
        acc = abs(coeffs[-1])
        for c in reversed(coeffs[:-1]):
            acc = acc * az + abs(c)
        guard = tol.pole * max(acc, 1e-300)
        if abs(dv) <= guard:
            raise PoleAtPointError(f"evaluation at a pole near z = {z}")
        return self.num(z) / dv

    # -- field operations --------------------------------------------------

    def _coerce(self, other) -> "RationalFn | None":
        if isinstance(other, RationalFn):
            return other
        if isinstance(other, Poly):
            return RationalFn(other)
        if isinstance(other, (int, float, complex)):
            return RationalFn(Poly([other]))
        return None

    def __add__(self, other):
        g = self._coerce(other)
        if g is None:
            return NotImplemented
        return RationalFn(self.num * g.den + g.num * self.den, self.den * g.den)

    __radd__ = __add__

    def __neg__(self):
        return RationalFn(-self.num, self.den)

    def __sub__(self, other):
        g = self._coerce(other)
        if g is None:
            return NotImplemented
        return self + (-g)

    def __rsub__(self, other):
        g = self._coerce(other)
        if g is None:
            return NotImplemented
        return g + (-self)

    def __mul__(self, other):
        g = self._coerce(other)
        if g is None:
            return NotImplemented
        return RationalFn(self.num * g.num, self.den * g.den)

    __rmul__ = __mul__

    def __truediv__(self, other):
        g = self._coerce(other)
        if g is None:
            return NotImplemented
        if g.num.is_zero:
            raise ZeroDivisionError("division by the zero rational function")
        return RationalFn(self.num * g.den, self.den * g.num)

    def __rtruediv__(self, other):
        g = self._coerce(other)
        if g is None:
            return NotImplemented
        return g / self

    def __eq__(self, other):
        if not isinstance(other, RationalFn):
            return NotImplemented
        return (self.num * other.den - other.num * self.den).is_zero

    def __hash__(self):
        return hash((self.num, self.den))

    # -- calculus ---------------------------------------------------------

    def derivative(self) -> "RationalFn":
        return RationalFn(
            self.num.derivative() * self.den - self.num * self.den.derivative(),
            self.den * self.den,
        )

    def derivative_at(self, z: complex, order: int = 1) -> complex:
        g = self
        for _ in range(order):
            g = g.derivative()
        return g(z)

    def conjugate_coeffs(self) -> "RationalFn":
        return RationalFn(self.num.conjugate_coeffs(), self.den.conjugate_coeffs())

    # -- structure ----------------------------------------------------------

    def reduce(self, tol: Tolerances = DEFAULT_TOLERANCES) -> "RationalFn":
        """Cancel numerator/denominator roots that agree within tol.gcd."""
        return RationalFn(self.num, self.den, reduce=True, tol=tol)

    def poles(self, tol: Tolerances = DEFAULT_TOLERANCES,
              rng: np.random.Generator | None = None) -> np.ndarray:
        if self.is_polynomial:
            return np.zeros(0, dtype=complex)
        return poly_roots(self.den, tol=tol, rng=rng)

    def taylor(self, n: int) -> np.ndarray:
        """Taylor coefficients at the origin through degree n inclusive.

        Requires den(0) != 0; solves den * c = num by forward recursion.
        """
        d0 = self.den.coeff(0)
        if abs(d0) <= 1e-14 * self.den.scale():
            raise PoleAtPointError("Taylor expansion at a pole at the origin")
        num = self.num.coeff_array(n + 1)
        den = self.den.coeff_array(min(len(self.den.coeffs), n + 1))
        out = np.zeros(n + 1, dtype=complex)
        for k in range(n + 1):
            acc = num[k]
            m = min(k, len(den) - 1)
            if m > 0:
                acc -= np.dot(den[1 : m + 1], out[k - 1 :: -1][:m])
            out[k] = acc / d0
        return out

    def taylor_poly(self, n: int) -> Poly:
        return Poly(self.taylor(n))

    def pole_radius(self) -> float:
        """Modulus of the nearest pole (inf for polynomials)."""
        ps = self.poles()
        return float(np.min(np.abs(ps))) if len(ps) else math.inf

    # -- serialization --------------------------------------------------------

    def to_json(self) -> dict:
        return {"num": self.num.to_json(), "den": self.den.to_json()}

    @classmethod
    def from_json(cls, obj) -> "RationalFn":
        if not isinstance(obj, dict):
            raise InputFormatError("rational JSON must be an object")
        if "num" in obj and "den" in obj:
            return cls(Poly.from_json(obj["num"]), Poly.from_json(obj["den"]))
        if "coeffs" in obj:
            return cls(Poly.from_json(obj))
        raise InputFormatError("expected {'num':..,'den':..} or {'coeffs':..}")

    def __repr__(self):
        if self.is_polynomial:
            return f"RationalFn({self.as_poly()!r})"
        return f"RationalFn({self.num!r} / {self.den!r})"


def _cancel_common_roots(num: Poly, den: Poly, tol: Tolerances) -> tuple[Poly, Poly]:
    """Divide out numerator/denominator root pairs that match within tol.gcd."""
    if den.degree == 0 or num.is_zero:
        return num, den
    rn = list(poly_roots(num, tol=tol))
    rd = list(poly_roots(den, tol=tol))
    keep_n = list(rn)
    matched: list[complex] = []
    new_rd = []
    for s in rd:
        hit = None
        for i, r in enumerate(keep_n):
            if abs(r - s) <= tol.gcd * max(1.0, abs(s)):
                hit = i
                break
        if hit is None:
            new_rd.append(s)
        else:
            matched.append((keep_n.pop(hit) + s) / 2.0)
    if not matched:
        return num, den
    lead_n = num.coeffs[-1]
    lead_d = den.coeffs[-1]
    return Poly.from_roots(keep_n, lead_n), Poly.from_roots(new_rd, lead_d)


def as_rational(obj) -> RationalFn:
    """Coerce Poly, RationalFn, scalar, or wire-format dict to RationalFn."""
    if isinstance(obj, RationalFn):
        return obj
    if isinstance(obj, Poly):
        return RationalFn(obj)
    if isinstance(obj, (int, float, complex)):
        return RationalFn(Poly([obj]))
    if isinstance(obj, dict):
        return RationalFn.from_json(obj)
    raise InputFormatError(f"cannot interpret {type(obj).__name__} as a rational function")


def complex_to_json(z: complex) -> list[float]:
    return [float(z.real), float(z.imag)]


def complex_from_json(pair) -> complex:
    """A number or an [re, im] pair; non-finite values are rejected."""
    z = None
    if isinstance(pair, (int, float)):
        z = complex(pair)
    elif isinstance(pair, (list, tuple)) and len(pair) == 2:
        try:
            z = complex(float(pair[0]), float(pair[1]))
        except (TypeError, ValueError):
            pass
    if z is None:
        raise InputFormatError(f"bad complex value {pair!r}; use a number or [re, im]")
    if not cmath.isfinite(z):
        raise InputFormatError(f"non-finite complex value {pair!r}")
    return z
