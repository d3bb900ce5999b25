"""Typed errors, split by how the CLI reports them.

ValidationError means the input itself is unacceptable (CLI exit code 2).
NumericalError means a legitimate input defeated the numerics (exit code 3).
"""


class HbError(Exception):
    """Base class for all package errors."""


class ValidationError(HbError):
    """Bad input: rejected before or during validation."""


class NumericalError(HbError):
    """A numerical procedure failed to meet its tolerance."""


class PoleAtPointError(ValidationError):
    """Evaluation was requested at (or too close to) a pole."""


class NotInUnitBallError(ValidationError):
    """The symbol exceeds modulus 1 on the unit circle, by sup |b| or by |q|^2 - |p|^2."""


class ExtremeFunctionError(ValidationError):
    """The symbol is an extreme point of the unit ball (|b| = 1 a.e.)."""


class PoleInDiskError(ValidationError):
    """A denominator root lies inside the closed unit disk."""


class OrderTooHighError(ValidationError):
    """A boundary derivative order beyond what the space admits."""


class ForbiddenPhaseError(ValidationError):
    """The extension phase coincides with the unique degenerate one."""


class DegenerateOmegaError(ValidationError):
    """The extension weight omega must give 0 < s < 1 in double precision (omega = 0 gives s = 0)."""


class MultipleBoundaryZeroError(ValidationError):
    """An operation restricted to a single boundary zero got several."""


class ZeroFunctionError(ValidationError):
    """The zero function is not a valid argument here."""


class InputFormatError(ValidationError):
    """Malformed JSON or an unrecognized wire format."""


class NonConvergenceError(NumericalError):
    """An iteration ran out of steps before meeting its residual."""


class FactorizationError(NumericalError):
    """Spectral factorization could not be completed or validated."""


class RankDeficiencyError(NumericalError):
    """A Gram matrix of kernels is numerically singular: the Cholesky of the
    kernel Gram matrix Gamma in ``lattice.subspace_distance`` failed; the
    message names its order, the codimension of the target subspace."""


class VerificationError(NumericalError):
    """A certified identity failed its post-hoc check."""
