"""Tolerances and truncation sizes shared across the package.

The tolerances are pinned: ``DEFAULT_TOLERANCES`` is the one set in use,
and every check reads its threshold from it at the point of use rather
than taking a parameter.  Reports carry the values they were judged by
(``tol_iso``, ``tol_strict``, ``"tolerance"``).
"""

from __future__ import annotations

import os
from dataclasses import dataclass

from .errors import InputFormatError

DEFAULT_SEED = 0
SEED_ENV_VAR = "HB_SEED"

# Default truncation degree for Taylor representations of rational members.
D_TRUNC = 64

# Circle grid used for sup-norm style residuals.
CIRCLE_GRID = 1024

# Points and poles this close to the unit circle count as on it (ten times
# the boundary vanishing threshold); the one band for inside / on / outside.
CIRCLE_BAND = 1e-6


@dataclass(frozen=True)
class Tolerances:
    """Numeric thresholds, named after the role they play.

    root_residual       acceptance residual for polynomial root finding
    gcd                 root matching distance in gcd / reduction
    pole                guard distance for evaluating near a pole
    mate                residual for |a|^2 + |b|^2 = 1 on the circle grid
    boundary            vanishing threshold for boundary derivative orders
    phase               forbidden-phase detection window
    iso                 defect-form residual that counts as "annihilated"
    strict              lower bound certifying a defect form is not zero
    gram                agreement between closed forms and Gram arithmetic
    """

    root_residual: float = 1e-11
    gcd: float = 1e-9
    pole: float = 1e-13
    mate: float = 1e-9
    boundary: float = 1e-7
    phase: float = 1e-8
    iso: float = 1e-8
    strict: float = 1e-3
    gram: float = 1e-8


DEFAULT_TOLERANCES = Tolerances()


def resolve_seed(cli_seed: int | None = None) -> int:
    """Seed precedence: HB_SEED environment variable, CLI flag, default.

    The seed must be a non-negative integer (InputFormatError otherwise).
    """
    env = os.environ.get(SEED_ENV_VAR)
    if env is not None:
        try:
            seed = int(env)
        except ValueError as exc:
            raise InputFormatError(f"{SEED_ENV_VAR} must be an integer, got {env!r}") from exc
    else:
        seed = DEFAULT_SEED if cli_seed is None else cli_seed
    if seed < 0:
        raise InputFormatError(f"seed must be a non-negative integer, got {seed}")
    return seed
