"""One-step extensions of H(b) and the model symbols they generate.

Starting from a rational nonextreme b0 with b0(0) = 0, each extension
step picks a weight omega and a phase t, sets u = exp(-i t) and

    s = |omega|^2 / (1 + |w|_b^2 + |omega|^2),

where |w|_b^2 = a0(0)^(-2) - 1 is the squared norm of the defect
direction of the current space, and produces the degree-(deg b0 + 1)
symbol

    num = s z (q - u p) + (1 - s) u p (1 - z)
    den = [ s (1 + z)(q - u p) + (1 - z)((2 - s) q - s u p) ] / 2

with b0 = p/q.  The new symbol satisfies b(0) = 0, b(1) = 1 and
b'(1) = 1/s exactly; those are checked and reported as certificates.
The phase t = arg b0(1) is forbidden when |b0(1)| = 1, since then
q - u p vanishes at 1 and the construction degenerates.

Iterating n times from b0 = 0 with a fixed omega and t builds the model
symbols whose shift is a strict 2n-isometry.

The carried norm: each step adds |omega|^2 to the squared defect norm,
|w_t|_b^2 = |w|_b^2 + |omega|^2, that is a_t(0)^2 = (1 - s) a0(0)^2.  So
the symbol ``extend`` returns carries that number, and a step from it
reads the number instead of rooting the density of b0 for its mate.
Only symbols ``extend`` itself built carry it.  The plain zero symbol,
a zero numerator over the denominator 1 (the start of every tower, from
``build_model``, JSON ``[]`` or code), reads |0|_b^2 = 0 by inspection.
Any other symbol, including one read back from JSON or recentred by
``mobius_normalize``, is measured by its mate.  A carried symbol is a
RationalFn with the same num, den and JSON as ``RationalFn(num, den)``.
A space built on it, ``HbSpace(b)`` or the final space of
``build_model(verify=True)``, still roots the density and gates its mate
on TOL.mate, so its norm_b_sq is an independent witness of the carried
chain.

The phase rule: u is ``_unit(t)`` = cos t - i sin t, except that a part
no larger than |t| eps (the rounding of t itself) is 0 when the other
part is exactly +-1.  So every multiple of pi/2 gives an exact unit; at
the default t = pi, u = -1 and the towers from b0 = 0 are real rational
functions.  Every other phase gives exp(-i t) bit for bit.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

import numpy as np

from .config import DEFAULT_TOLERANCES as TOL
from .errors import (
    DegenerateOmegaError,
    ForbiddenPhaseError,
    InputFormatError,
    PoleAtPointError,
    VerificationError,
)
from .isometry import isometry_order
from .polynomials import Poly, RationalFn, as_rational, complex_to_json
from .space import HbSpace


class _Carried(RationalFn):
    """RationalFn(num, den) with its |w|_b^2 = a(0)^(-2) - 1 carried along."""

    __slots__ = ("norm_b_sq",)

    def __init__(self, num: Poly, den: Poly, norm_b_sq: float):
        super().__init__(num, den)
        object.__setattr__(self, "norm_b_sq", norm_b_sq)


@dataclass(frozen=True)
class ExtensionResult:
    b: RationalFn
    s: float
    t: float
    omega: complex
    certificates: dict

    def to_json(self) -> dict:
        return {
            "b": self.b.to_json(),
            "s": self.s,
            "t": self.t,
            "omega": complex_to_json(self.omega),
            "certificates": dict(self.certificates),
        }


@dataclass(frozen=True)
class ModelResult:
    b: RationalFn
    n: int
    steps: tuple[ExtensionResult, ...]
    isometry_order: int | None = None

    def to_json(self) -> dict:
        return {
            "b": self.b.to_json(),
            "n": self.n,
            "s_values": [st.s for st in self.steps],
            "steps": [st.to_json() for st in self.steps],
            "isometry_order": self.isometry_order,
        }


def mobius_normalize(b) -> RationalFn:
    """(b - alpha)/(1 - conj(alpha) b) with alpha = b(0), which recenters b to 0.

    Disk automorphisms of the value side leave H(b) unchanged as a set
    (with an equivalent norm), so this is the standard preprocessing for
    symbols that do not vanish at the origin.  |b(0)| must be below 1.
    """
    b = as_rational(b)
    alpha = b(0)
    if abs(alpha) >= 1:
        raise InputFormatError("mobius parameter b(0) must lie in the open disk")
    num = b.num - alpha * b.den
    den = b.den - np.conj(alpha) * b.num
    return RationalFn(num, den)


def forbidden_phase(b0) -> float | None:
    """arg b0(1) in [0, 2 pi) when |b0(1)| = 1, else None."""
    b0 = as_rational(b0)
    v = b0(1.0)
    if abs(abs(v) - 1.0) > TOL.phase:
        return None
    return float(np.angle(v) % (2 * np.pi))


def _phase_distance(t: float, t0: float) -> float:
    d = (t - t0) % (2 * np.pi)
    return min(d, 2 * np.pi - d)


def brownian_shift_symbol(sigma: float) -> RationalFn:
    """The symbol gamma z / (1 - beta z) of the shifted Brownian motion
    covariance, beta = 1/(1 + sigma^2), gamma = sigma^2/(1 + sigma^2).

    Coincides with one extension step from b0 = 0 at s = gamma.
    """
    if not sigma > 0:
        raise InputFormatError("sigma must be positive")
    beta = 1.0 / (1.0 + sigma**2)
    gamma = sigma**2 / (1.0 + sigma**2)
    return RationalFn(Poly([0, gamma]), Poly([1, -beta]))


def _unit(t: float) -> complex:
    """u = exp(-i t), exact at the multiples of pi/2 (the phase rule above)."""
    re, im = math.cos(t), -math.sin(t)
    rounding = abs(t) * np.finfo(float).eps
    if abs(re) == 1.0 and abs(im) <= rounding:
        im = 0.0
    elif abs(im) == 1.0 and abs(re) <= rounding:
        re = 0.0
    return complex(re, im)


def extend(b0, omega: complex = 1.0, t: float = math.pi) -> ExtensionResult:
    """One extension step; b0 must be rational, nonextreme, b0(0) = 0.

    u = ``_unit(t)``: exp(-i t), with the rounding of t dropped at the
    multiples of pi/2, so t = pi uses u = -1 and a real b0 extends to a
    real b.

    The one rule for omega is 0 < s < 1 in double precision
    (DegenerateOmegaError): omega = 0, or an |omega|^2 that underflows,
    gives s = 0, a huge omega rounds s to 1, and an |omega|^2 that
    overflows is rejected before s is formed.  A small omega inside the
    rule can still leave the certificates at z = 1 unevaluable, which is
    a VerificationError.
    """
    b0 = as_rational(b0)
    if not (cmath.isfinite(omega) and math.isfinite(t)):
        raise InputFormatError(f"extension needs finite omega and t, got {omega!r}, {t!r}")
    if abs(b0(0)) > 1e-12:
        raise InputFormatError(
            "extension requires b(0) = 0; apply mobius_normalize first"
        )
    if isinstance(b0, _Carried):
        w_sq = b0.norm_b_sq
    elif b0.num.is_zero and b0.den == Poly([1]):
        w_sq = 0.0
    else:
        w_sq = HbSpace(b0).norm_b_sq
    t0 = forbidden_phase(b0)
    if t0 is not None and _phase_distance(t, t0) <= TOL.phase:
        raise ForbiddenPhaseError(
            f"phase t = {t} collides with the degenerate direction arg b0(1) = {t0}"
        )
    omega_sq = abs(omega) * abs(omega)  # inf past the float range, no OverflowError
    if math.isinf(omega_sq):
        raise DegenerateOmegaError(
            f"extension weight omega = {omega} has |omega|^2 overflowing double precision"
        )
    s = omega_sq / (1.0 + w_sq + omega_sq)
    if not 0.0 < s < 1.0:
        raise DegenerateOmegaError(
            f"extension weight omega = {omega} gives s = {s}, outside (0, 1) in double precision"
        )
    u = _unit(t)
    p, q = b0.num, b0.den
    core = q - u * p
    num = s * core.shifted(1) + ((1.0 - s) * u) * (p - p.shifted(1))
    den = 0.5 * (
        s * (core + core.shifted(1))
        + (2.0 - s) * (q - q.shifted(1))
        - (s * u) * (p - p.shifted(1))
    )
    bt = _Carried(num, den, w_sq + omega_sq)
    deg0 = int(max(b0.degree, 0))
    if int(bt.degree) != deg0 + 1:
        raise VerificationError(
            f"extension degree {bt.degree}, expected {deg0 + 1}"
        )
    try:
        certs = {
            "value_at_origin": abs(bt(0.0)),
            "value_at_one": abs(bt(1.0) - 1.0),
            "derivative_at_one": abs(bt.derivative_at(1.0) - 1.0 / s),
            "degree": int(bt.degree),
        }
    except PoleAtPointError as exc:
        # den(1) ~ s and the quotient rule's den(1)^2 ~ s^2 sink under the pole guard
        raise VerificationError(
            f"certificate value_at_one or derivative_at_one unevaluable at s = {s:.3e}: {exc}"
        ) from None
    # np.max, not max: a NaN in any position must reach the test below
    worst = float(np.max([certs["value_at_origin"], certs["value_at_one"],
                          certs["derivative_at_one"] * s]))
    if not (worst <= 1e-9):
        raise VerificationError(f"extension certificates off by {worst:.3e}")
    return ExtensionResult(b=bt, s=float(s), t=float(t), omega=complex(omega),
                           certificates=certs)


def build_model(
    n: int,
    omega: complex = 1.0,
    t: float = math.pi,
    verify: bool = False,
) -> ModelResult:
    """n extension steps from b0 = 0; the shift becomes a strict
    2n-isometry on the resulting space (checked when verify is set).

    The steps carry the defect norm from |0|_b^2 = 0, so only the final
    space, built under verify, roots a density.
    """
    if n < 1:
        raise InputFormatError("model order must be at least 1")
    b = RationalFn(Poly([]), Poly([1]))
    steps = []
    for _ in range(n):
        step = extend(b, omega=omega, t=t)
        steps.append(step)
        b = step.b
    order = None
    if verify:
        order = isometry_order(HbSpace(b), m_max=2 * n + 2).order
        if order != 2 * n:
            raise VerificationError(
                f"model of order {n} produced isometry order {order}, expected {2 * n}"
            )
    return ModelResult(b=b, n=n, steps=tuple(steps), isometry_order=order)


# The kernel update's 21 points and its w x z matrix 1 - conj(w) z, read-only
_KERNEL_POINTS = (np.array([0.25, 0.55, 0.8])[:, None]
                  * np.exp(2j * np.pi * np.arange(1, 8) / 7.3)[None, :]).ravel()
_KERNEL_CROSS = 1.0 - np.conj(_KERNEL_POINTS)[:, None] * _KERNEL_POINTS[None, :]
_KERNEL_POINTS.flags.writeable = _KERNEL_CROSS.flags.writeable = False


def kernel_factorization_check(b0, ext: ExtensionResult) -> dict:
    """Max residual of the kernel update under one extension step:

        K_new(w, z) = e(z) conj(e(w)) + f(z) conj(f(w)) K_old(w, z)

    with e = sqrt(s)(1 - b_new)/(1 - z) and
    f = sqrt(1 - s)(1 - b_new)/(1 - u b0), over all pairs (w, z) of 21
    points on three circles of radius 0.25, 0.55 and 0.8.  The points and
    the matrix 1 - conj(w) z are built once, at import.  Each symbol is
    evaluated once on the point array and the w x z residual matrix is
    formed by broadcasting (rows w, columns z).  A non-finite residual
    raises VerificationError.
    """
    b0 = as_rational(b0)
    bt = ext.b
    s = ext.s
    u = _unit(ext.t)
    zs, cross = _KERNEL_POINTS, _KERNEL_CROSS

    bt_z = bt(zs)
    b0_z = b0(zs)
    e = math.sqrt(s) * (1.0 - bt_z) / (1.0 - zs)
    f = math.sqrt(1.0 - s) * (1.0 - bt_z) / (1.0 - u * b0_z)
    k_new = (1.0 - np.conj(bt_z)[:, None] * bt_z[None, :]) / cross
    k_old = (1.0 - np.conj(b0_z)[:, None] * b0_z[None, :]) / cross
    rhs = np.conj(e)[:, None] * e[None, :] + np.conj(f)[:, None] * f[None, :] * k_old
    worst = float(np.max(np.abs(k_new - rhs)))
    if not math.isfinite(worst):
        raise VerificationError(f"kernel update residual is {worst}")
    return {"max_residual": worst, "points": int(zs.size)}
