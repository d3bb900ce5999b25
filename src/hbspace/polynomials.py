"""Complex polynomials and rational functions on the unit disk.

Coefficients are stored lowest degree first.  The JSON wire form for a
polynomial is ``{"coeffs": [[re, im], ...]}`` and a rational function is
``{"num": <poly>, "den": <poly>}``; complex scalars travel as ``[re, im]``
pairs.  One grammar reads them back (``complex_from_json``): a polynomial
is a coefficient list, bare or under "coeffs", for a symbol or for either
part of a quotient, and every entry is a number or an [re, im] pair of
numbers.  Booleans are not numbers, and non-finite values are rejected.

Root finding uses a simultaneous Aberth-Ehrlich iteration started on a
randomly rotated circle, with the companion-matrix eigenvalue solver as a
fallback when the iteration stalls.  Newton steps polish the roots, and
Aberth steps part a close pair that Newton leaves above the rounding
bound.  Each step evaluates p, p' and the Horner bound at all roots in
one stacked Horner pass (``_horner_stacked``) that rounds exactly as
three separate Horner loops would.

Two point rules read their threshold off the Horner bound B_p(z) =
sum |c_k| |z|^k (``_horner_bound``): den has a pole at z when |den(z)| <=
TOL.pole * B_den(z), and p a zero of order k at w when k synthetic
divisions by (z - w) each leave a remainder within TOL.boundary * B(w) of
the quotient divided (``_zero_order``).
"""

from __future__ import annotations

import cmath
import math
from typing import Iterable, Sequence

import numpy as np

from .config import DEFAULT_TOLERANCES as TOL
from .errors import (
    InputFormatError,
    NonConvergenceError,
    PoleAtPointError,
    ZeroFunctionError,
)

NEG_INF = float("-inf")

# Trailing coefficients below this fraction of the scale are dropped
# before root finding.
_TRIM_REL = 1e-14


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
        if isinstance(coeffs, np.ndarray) and coeffs.ndim == 1:
            cs = tuple(coeffs.astype(complex, copy=False).tolist())
        else:
            cs = tuple(map(complex, coeffs))
        object.__setattr__(self, "coeffs", _trim_exact(cs))

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
        if length is None:
            return np.array(self.coeffs, dtype=complex)
        out = np.zeros(max(length, 0), dtype=complex)
        m = min(len(self.coeffs), len(out))
        out[:m] = self.coeffs[:m]
        return out

    def scale(self) -> float:
        """Largest coefficient magnitude (0.0 for the zero polynomial)."""
        return max((abs(c) for c in self.coeffs), default=0.0)

    def trim(self) -> "Poly":
        """Drop trailing coefficients at most ``_TRIM_REL`` times the scale."""
        s = self.scale()
        if s == 0.0:
            return self
        cs = list(self.coeffs)
        while cs and abs(cs[-1]) <= _TRIM_REL * s:
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
            return _horner_many(self.coeff_array(), z)
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
        if isinstance(other, (int, float, complex)):
            # np.convolve as for a constant Poly: a Python loop could round otherwise
            if self.is_zero or other == 0:
                return Poly()
            return Poly(np.convolve(self.coeff_array(), np.array([other], dtype=complex)))
        if not isinstance(other, Poly):
            return NotImplemented
        if self.is_zero or other.is_zero:
            return Poly()
        return Poly(np.convolve(self.coeff_array(), other.coeff_array()))

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

    # -- serialization -------------------------------------------------------

    def to_json(self) -> dict:
        return {"coeffs": [[c.real, c.imag] for c in self.coeffs]}

    @classmethod
    def from_json(cls, obj) -> "Poly":
        """A coefficient list, bare or as {"coeffs": [...]}; entries through ``complex_from_json``."""
        if isinstance(obj, dict) and "coeffs" in obj:
            obj = obj["coeffs"]
        if not isinstance(obj, list):
            raise InputFormatError("polynomial JSON must be a coefficient list or {'coeffs': [...]}")
        return cls([complex_from_json(c) for c in obj])

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


# -- root finding ------------------------------------------------------------


def _horner_many(c: np.ndarray, z: np.ndarray) -> np.ndarray:
    acc = np.full(z.shape, c[-1], dtype=complex)
    for ck in c[-2::-1]:
        acc *= z
        acc += ck
    return acc


def _horner_table(c: np.ndarray) -> np.ndarray:
    """Rows c, c' = (k c_k) and |c|: the table ``_horner_stacked`` reads.

    Row c' is one entry short and padded at the top; the pass never reads
    that entry.  |c_k| is numpy's scalar abs, as in ``_horner_bound``: the
    array abs rounds differently in about a third of the last bits.
    """
    d = len(c) - 1
    table = np.zeros((3, d + 1), dtype=complex)
    table[0] = c
    table[1, :d] = np.arange(1, d + 1) * c[1:]
    table[2] = [abs(ck) for ck in c]
    return table


def _horner_stacked(table: np.ndarray, z: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """p(z), p'(z) and ``_horner_bound(c, z)`` for the ``_horner_table`` of c, degree >= 1.

    One Horner pass over the three rows, with |z| as the bound row's
    point; every value is the one ``_horner_many`` and ``_horner_bound``
    return, bit for bit.  The bound row runs in complex arithmetic, exact
    on (x + 0j) while it stays finite; past an overflow inf * 0 would
    turn it into NaN, so that rare case takes the float loop.
    """
    points = np.empty((3, len(z)), dtype=complex)
    points[:2] = z
    points[2] = np.abs(z)
    acc = np.empty_like(points)
    acc[:] = table[:, -1:]
    acc *= points
    # p' starts one degree lower, at its top coefficient itself: -0 + x is x
    # for every x, a signed zero included, where 0 * z + x need not be
    acc[1] = complex(-0.0, -0.0)
    acc += table[:, -2:-1]
    for k in range(table.shape[1] - 3, -1, -1):
        acc *= points
        acc += table[:, k : k + 1]
    bound = np.maximum(acc[2].real, 1e-300)
    if not np.isfinite(bound).all():
        bound = _horner_bound(table[0], z)
    return acc[0], acc[1], bound


def synthetic_division(p: Poly, w: complex, k: int) -> tuple[Poly, list[complex]]:
    """Divide p by (z - w) k times, at most deg p times: (quotient, remainders).

    Remainder r_j = p^(j)(w)/j!.  Each pass is Horner's rule, the arithmetic
    of ``p(w)`` and of ``divmod`` by (z - w), so r_0 == p(w) bit for bit.

    >>> synthetic_division(Poly([1, -2, 1]), 1.0, 2)   # (z - 1)^2
    (Poly[1], [0j, 0j])
    """
    c = list(p.coeffs)
    rems = []
    for _ in range(min(k, len(c) - 1)):
        for j in range(len(c) - 2, -1, -1):
            c[j] += w * c[j + 1]
        rems.append(c.pop(0))
    return Poly(c), rems


def _horner_bound(coeffs, z):
    """sum |c_k| |z|^k of a coefficient tuple or array, floored at 1e-300; floats for scalar z."""
    az = abs(z)
    acc = abs(coeffs[-1])
    for c in coeffs[-2::-1]:
        acc = acc * az + abs(c)
    if isinstance(z, np.ndarray):
        return np.maximum(acc, np.full(z.shape, 1e-300))  # z's shape at degree 0 too
    return max(acc, 1e-300)


def _zero_order(p: Poly, w: complex, at_most: int | None = None) -> tuple[int, Poly]:
    """The zero rule: order k <= at_most of p at w, and the quotient p / (z - w)^k.

    >>> _zero_order(Poly([-1, 3, -3, 1]), 1.0)   # (z - 1)^3
    (3, Poly[1])
    """
    order = 0
    while at_most is None or order < at_most:
        quot, rems = synthetic_division(p, w, 1)
        if not rems or abs(rems[0]) > TOL.boundary * _horner_bound(p.coeffs, w):
            break
        p, order = quot, order + 1
    return order, p


def _aberth_step(z: np.ndarray, w: np.ndarray) -> np.ndarray:
    """The Aberth correction of all roots z from their Newton steps w;
    a root coinciding with another sees it as it sees itself, not at all."""
    diff = z[:, None] - z[None, :]
    diff[diff == 0] = np.inf
    s = np.sum(1.0 / diff, axis=1)
    denom = 1.0 - w * s
    small = np.abs(denom) < 1e-12
    denom[small] = 1.0
    return w / denom


def _aberth(c: np.ndarray, rng: np.random.Generator) -> np.ndarray | None:
    """Simultaneous root iteration; returns roots or None on a stall."""
    d = len(c) - 1
    table = _horner_table(c)
    # Start on a circle whose radius blends the Cauchy bound with the
    # geometric-mean estimate, randomly rotated and jittered so symmetric
    # configurations cannot lock the iteration.
    cauchy = 1.0 + np.max(np.abs(c[:-1])) / abs(c[-1])
    geo = abs(c[0] / c[-1]) ** (1.0 / d)
    radius = min(cauchy, max(geo, 1e-3))
    theta = rng.uniform(0.0, 2.0 * np.pi)
    angles = theta + 2.0 * np.pi * np.arange(d) / d
    z = radius * np.exp(1j * angles) * (1.0 + 0.01 * rng.standard_normal(d))

    for _ in range(120):
        pz, dpz, bound = _horner_stacked(table, z)
        if np.all(np.abs(pz) <= TOL.root_residual * bound):
            return z
        bad = np.abs(dpz) < 1e-300
        if np.any(bad):
            z[bad] += 1e-8 * (1.0 + np.abs(z[bad])) * np.exp(1j * rng.uniform(0, 2 * np.pi, bad.sum()))
            continue
        z = z - _aberth_step(z, pz / dpz)
    pz, _, bound = _horner_stacked(table, z)
    if np.all(np.abs(pz) <= TOL.root_residual * bound):
        return z
    return None


def poly_roots(p: Poly, rng: np.random.Generator | None = None) -> np.ndarray:
    """Roots of p with multiplicity, lowest-degree-first coefficients.

    Raises ZeroFunctionError on the zero polynomial and
    NonConvergenceError if both the simultaneous iteration and the
    companion-matrix fallback miss the residual target.
    """
    if p.is_zero:
        raise ZeroFunctionError("the zero polynomial has no root set")
    work = p.trim()
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
        found = _aberth(c, rng)
        if found is None:
            found = np.roots(c[::-1])
            resid = np.abs(_horner_many(c, found)) / _horner_bound(c, found)
            if np.max(resid) > 1e3 * TOL.root_residual:
                raise NonConvergenceError(
                    f"root residual {np.max(resid):.3e} after fallback"
                )
        found = _newton_polish(c, found)
    roots = np.concatenate([np.zeros(k0, dtype=complex), found])
    return roots


def _newton_polish(c: np.ndarray, z: np.ndarray) -> np.ndarray:
    """Three Newton steps per root, then Aberth steps for the roots whose
    residual is still above Horner's rounding bound 2 deg eps sum |c_k| |z|^k.

    Simple roots reach machine precision by Newton.  A close pair, which
    the iteration's residual target cannot part, stalls Newton between
    its two roots; the Aberth correction parts it.  Roots in a
    multiple-root cluster just shuffle within the cluster; the
    factorization divides circle zeros out before it roots.
    """
    table = _horner_table(c)
    z = z.copy()
    for _ in range(3):
        pz, dpz, _ = _horner_stacked(table, z)
        ok = np.abs(dpz) > 1e-300
        step = np.zeros_like(z)
        step[ok] = pz[ok] / dpz[ok]
        # reject steps that increase the residual (cluster oscillation)
        trial = z - step
        better = np.abs(_horner_many(c, trial)) <= np.abs(pz)
        z[better] = trial[better]
    rounding = 2 * (len(c) - 1) * np.finfo(float).eps
    for _ in range(8):
        pz, dpz, bound = _horner_stacked(table, z)
        stalled = np.abs(pz) > rounding * bound
        if not stalled.any() or np.any(np.abs(dpz) <= 1e-300):
            break
        z[stalled] -= _aberth_step(z, pz / dpz)[stalled]
    return z


def polish_multiple_root(p: Poly, center: complex, mult: int) -> complex:
    """Newton refinement (at most 30 steps) of a multiplicity-``mult`` root via p^(mult-1).

    A step that leaves z the same bit for bit ends the loop early: every
    later step would repeat it, so the result is that of all 30.
    """
    q = p.derivative(mult - 1)
    dq = q.derivative()
    z = center
    for _ in range(30):
        dv = dq(z)
        if abs(dv) == 0:
            break
        step = q(z) / dv
        moved = z - step
        if moved == z and repr(moved) == repr(z):  # == alone ignores the sign of a zero
            break
        z = moved
        if abs(step) <= 1e-16 * max(1.0, abs(z)):
            break
    return z


def _match_roots(rp, rq, pair_tol: float) -> tuple[list[complex], list[complex], list[complex]]:
    """Greedy pairing of each root of rp with its nearest unused root of rq.

    A pair counts when the two sit within pair_tol relative to
    max(1, |r|) for the rp root r.  Returns the pair midpoints and the
    unmatched roots of rp and of rq, each in input order.
    """
    rest_q = list(rq)
    common: list[complex] = []
    rest_p: list[complex] = []
    for r in rp:
        if rest_q:
            dists = [abs(r - s) for s in rest_q]
            j = int(np.argmin(dists))
            if dists[j] <= pair_tol * max(1.0, abs(r)):
                common.append((r + rest_q.pop(j)) / 2.0)
                continue
        rest_p.append(r)
    return common, rest_p, rest_q


# -- rational functions ------------------------------------------------------


class RationalFn:
    """Quotient of two polynomials, normalized so den(0) = 1 when possible.

    The denominator of anything this package produces is zero-free on the
    closed unit disk, but the class itself only requires den to be nonzero
    and free of infinite coefficients.

    Members
    -------
    num, den : Poly
    """

    __slots__ = ("num", "den")

    def __init__(self, num: Poly | complex, den: Poly | complex = 1):
        num = num if isinstance(num, Poly) else Poly([num])
        den = den if isinstance(den, Poly) else Poly([den])
        # normalising by an infinite coefficient would zero num and den; a NaN
        # survives normalising and is rejected where the symbol is validated
        if any(cmath.isinf(c) for c in den.coeffs):
            raise InputFormatError("rational denominator has an infinite coefficient")
        if den.is_zero:
            raise ZeroDivisionError("rational function with zero denominator")
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
    def is_polynomial(self) -> bool:
        return self.den.degree == 0

    def as_poly(self) -> Poly:
        if not self.is_polynomial:
            raise InputFormatError(f"as_poly needs a constant denominator, not {self.den!r}")
        return self.num * (1.0 / self.den.coeff(0))

    # -- evaluation ------------------------------------------------------

    def __call__(self, z):
        """num(z) / den(z); PoleAtPointError where |den(z)| <= TOL.pole * _horner_bound."""
        dv = self.den(z)
        at_pole = abs(dv) <= TOL.pole * _horner_bound(self.den.coeffs, z)
        if np.any(at_pole) if isinstance(z, np.ndarray) else at_pole:
            raise PoleAtPointError(f"evaluation at a pole of the denominator near z = {z}")
        return self.num(z) / dv

    def __eq__(self, other):
        if not isinstance(other, RationalFn):
            return NotImplemented
        return (self.num * other.den - other.num * self.den).is_zero

    # -- calculus ---------------------------------------------------------

    def derivative(self) -> "RationalFn":
        return RationalFn(
            self.num.derivative() * self.den - self.num * self.den.derivative(),
            self.den * self.den,
        )

    def derivative_at(self, z: complex) -> complex:
        return self.derivative()(z)

    # -- structure ----------------------------------------------------------

    def poles(self) -> np.ndarray:
        if self.is_polynomial:
            return np.zeros(0, dtype=complex)
        return poly_roots(self.den)

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

    # -- serialization --------------------------------------------------------

    def to_json(self) -> dict:
        return {"num": self.num.to_json(), "den": self.den.to_json()}

    @classmethod
    def from_json(cls, obj) -> "RationalFn":
        """A bare coefficient list, {"coeffs": ...}, or {"num": ..., "den": ...}.

        List entries are numbers or [re, im] pairs; num and den take
        either polynomial spelling.  A zero denominator is rejected.
        """
        if isinstance(obj, dict) and "num" in obj and "den" in obj:
            den = Poly.from_json(obj["den"])
            if den.is_zero:
                raise InputFormatError("rational denominator is the zero polynomial")
            return cls(Poly.from_json(obj["num"]), den)
        if isinstance(obj, list) or (isinstance(obj, dict) and "coeffs" in obj):
            return cls(Poly.from_json(obj))
        raise InputFormatError(
            "rational JSON must be a coefficient list, {'coeffs': ...}, "
            "or {'num': ..., 'den': ...}"
        )

    def __repr__(self):
        if self.is_polynomial:
            return f"RationalFn({self.as_poly()!r})"
        return f"RationalFn({self.num!r} / {self.den!r})"


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


def complex_from_json(value) -> complex:
    """A number or an [re, im] pair of numbers; booleans and non-finite values are rejected."""
    parts = value if isinstance(value, (list, tuple)) and len(value) == 2 else (value, 0.0)
    if not all(isinstance(x, (int, float)) and not isinstance(x, bool) for x in parts):
        raise InputFormatError(f"bad complex value {value!r}; use a number or [re, im]")
    try:
        z = complex(float(parts[0]), float(parts[1]))
    except OverflowError:  # an integer past the float range
        z = complex(math.inf)
    if not cmath.isfinite(z):
        raise InputFormatError(f"non-finite complex value {value!r}")
    return z
