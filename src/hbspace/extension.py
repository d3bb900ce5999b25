"""One-step extensions of H(b) and the model symbols they generate.

Starting from a rational nonextreme b0 with b0(0) = 0, each extension
step picks a weight omega != 0 and a phase t, sets u = exp(-i t) and

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
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

import numpy as np

from .config import DEFAULT_TOLERANCES, Tolerances
from .errors import (
    DegenerateOmegaError,
    ForbiddenPhaseError,
    InputFormatError,
    VerificationError,
)
from .polynomials import Poly, RationalFn, as_rational
from .space import HbSpace


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
            "omega": [self.omega.real, self.omega.imag],
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


def mobius_normalize(b, alpha: complex) -> RationalFn:
    """(b - alpha)/(1 - conj(alpha) b); alpha = b(0) recenters to 0.

    Disk automorphisms of the value side leave H(b) unchanged as a set
    (with an equivalent norm), so this is the standard preprocessing for
    symbols that do not vanish at the origin.
    """
    b = as_rational(b)
    if abs(alpha) >= 1:
        raise InputFormatError("mobius parameter must lie in the open disk")
    num = b.num - alpha * b.den
    den = b.den - np.conj(alpha) * b.num
    return RationalFn(num, den)


def rotate(b, phi: float) -> RationalFn:
    """b(exp(i phi) z): carries boundary structure at 1 to exp(-i phi)."""
    b = as_rational(b)
    w = np.exp(1j * phi)
    num = Poly([c * w**k for k, c in enumerate(b.num.coeffs)])
    den = Poly([c * w**k for k, c in enumerate(b.den.coeffs)])
    return RationalFn(num, den)


def forbidden_phase(b0, tol: Tolerances = DEFAULT_TOLERANCES) -> float | None:
    """arg b0(1) in [0, 2 pi) when |b0(1)| = 1, else None."""
    b0 = as_rational(b0)
    v = b0(1.0)
    if abs(abs(v) - 1.0) > tol.phase:
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


def extend(
    b0,
    omega: complex = 1.0,
    t: float = math.pi,
    tol: Tolerances = DEFAULT_TOLERANCES,
    space: HbSpace | None = None,
) -> ExtensionResult:
    """One extension step; b0 must be rational, nonextreme, b0(0) = 0.

    Pass the already-built HbSpace of b0 via `space` to skip refactoring
    its mate.
    """
    b0 = as_rational(b0)
    if not (cmath.isfinite(omega) and math.isfinite(t)):
        raise InputFormatError(f"extension needs finite omega and t, got {omega!r}, {t!r}")
    if abs(omega) < 1e-14:
        raise DegenerateOmegaError("extension weight omega must be nonzero")
    if abs(b0(0)) > 1e-12:
        raise InputFormatError(
            "extension requires b(0) = 0; apply mobius_normalize first"
        )
    if space is None:
        space = HbSpace(b0, tol=tol)
    t0 = forbidden_phase(b0, tol)
    if t0 is not None and _phase_distance(t, t0) <= tol.phase:
        raise ForbiddenPhaseError(
            f"phase t = {t} collides with the degenerate direction arg b0(1) = {t0}"
        )
    a0 = space.a(0).real
    w_sq = 1.0 / a0**2 - 1.0
    s = abs(omega) ** 2 / (1.0 + w_sq + abs(omega) ** 2)
    u = np.exp(-1j * t)
    p, q = b0.num, b0.den
    core = q - u * p
    num = s * core.shifted(1) + ((1.0 - s) * u) * (p - p.shifted(1))
    den = 0.5 * (
        s * (core + core.shifted(1))
        + (2.0 - s) * (q - q.shifted(1))
        - (s * u) * (p - p.shifted(1))
    )
    bt = RationalFn(num, den)
    deg0 = int(max(b0.degree, 0))
    if int(bt.degree) != deg0 + 1:
        raise VerificationError(
            f"extension degree {bt.degree}, expected {deg0 + 1}"
        )
    certs = {
        "value_at_origin": abs(bt(0.0)),
        "value_at_one": abs(bt(1.0) - 1.0),
        "derivative_at_one": abs(bt.derivative_at(1.0, 1) - 1.0 / s),
        "degree": int(bt.degree),
    }
    worst = max(certs["value_at_origin"], certs["value_at_one"],
                certs["derivative_at_one"] * s)
    if not (worst <= 1e-9):
        raise VerificationError(f"extension certificates off by {worst:.3e}")
    return ExtensionResult(b=bt, s=float(s), t=float(t), omega=complex(omega),
                           certificates=certs)


def build_model(
    n: int,
    omega: complex = 1.0,
    t: float = math.pi,
    tol: Tolerances = DEFAULT_TOLERANCES,
    verify: bool = False,
) -> ModelResult:
    """n extension steps from b0 = 0; the shift becomes a strict
    2n-isometry on the resulting space (checked when verify is set)."""
    if n < 1:
        raise InputFormatError("model order must be at least 1")
    b = RationalFn(Poly([]), Poly([1]))
    steps = []
    for _ in range(n):
        step = extend(b, omega=omega, t=t, tol=tol)
        steps.append(step)
        b = step.b
    order = None
    if verify:
        from .isometry import isometry_order as _iso

        rep = _iso(HbSpace(b, tol=tol), m_max=2 * n + 2, tol=tol)
        order = rep.order
        if order != 2 * n:
            raise VerificationError(
                f"model of order {n} produced isometry order {order}, expected {2 * n}"
            )
    return ModelResult(b=b, n=n, steps=tuple(steps), isometry_order=order)


def kernel_factorization_check(
    b0,
    ext: ExtensionResult,
    points: np.ndarray | None = None,
) -> dict:
    """Max residual of the kernel update under one extension step:

        K_new(w, z) = e(z) conj(e(w)) + f(z) conj(f(w)) K_old(w, z)

    with e = sqrt(s)(1 - b_new)/(1 - z) and
    f = sqrt(1 - s)(1 - b_new)/(1 - u b0), over all pairs (w, z) of
    ``points``.  Each symbol is evaluated once on the point array and the
    w x z residual matrix is formed by broadcasting (rows w, columns z).

    ``points`` must be finite and lie strictly inside the unit disk
    (InputFormatError otherwise); a non-finite residual raises
    VerificationError.
    """
    b0 = as_rational(b0)
    bt = ext.b
    s = ext.s
    u = np.exp(-1j * ext.t)
    if points is None:
        radii = np.array([0.25, 0.55, 0.8])
        angles = np.exp(2j * np.pi * np.arange(1, 8) / 7.3)
        points = (radii[:, None] * angles[None, :]).ravel()
    zs = np.asarray(points, dtype=complex).ravel()
    if zs.size == 0 or not np.all(np.isfinite(zs)) or np.any(np.abs(zs) >= 1.0):
        raise InputFormatError(
            "kernel update points must be finite and lie strictly inside the unit disk"
        )

    bt_z = bt(zs)
    b0_z = b0(zs)
    e = math.sqrt(s) * (1.0 - bt_z) / (1.0 - zs)
    f = math.sqrt(1.0 - s) * (1.0 - bt_z) / (1.0 - u * b0_z)
    cross = 1.0 - np.conj(zs)[:, None] * zs[None, :]
    k_new = (1.0 - np.conj(bt_z)[:, None] * bt_z[None, :]) / cross
    k_old = (1.0 - np.conj(b0_z)[:, None] * b0_z[None, :]) / cross
    rhs = np.conj(e)[:, None] * e[None, :] + np.conj(f)[:, None] * f[None, :] * k_old
    worst = float(np.max(np.abs(k_new - rhs)))
    if not math.isfinite(worst):
        raise VerificationError(f"kernel update residual is {worst}")
    return {"max_residual": worst, "points": int(zs.size)}
