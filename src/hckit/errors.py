"""Exception types raised by the library.

All library errors derive from :class:`HckError` so callers can catch one
base class.  Contract violations are always surfaced, never patched silently.
"""

from __future__ import annotations


class HckError(Exception):
    """Base class for all library errors."""


class InternalNumerics(HckError):
    """LAPACK failed or got a non-finite matrix, or a conic has no finite form."""


class DegenerateCone(HckError):
    """Cone generators are (numerically) linearly dependent."""


class PreconditionViolated(HckError):
    """A documented precondition does not hold for the given input."""


class DimensionMismatch(HckError):
    """Vector/matrix dimensions do not agree."""


class DegenerateLine(HckError):
    """The two points defining a line coincide."""


class InconsistentSystem(HckError):
    """Linear system H x = d has no solution within tolerance."""


class NumericalBreakdown(HckError):
    """Witness construction failed a contract beyond tolerance.

    Carries the full trace of intermediate quantities for diagnosis.
    """

    def __init__(self, message: str, trace=None):
        super().__init__(message)
        self.trace = trace


class SlaterViolated(HckError):
    """The provided point does not strictly satisfy the constraint."""


class ProblemFileError(HckError):
    """Problem description file failed validation.

    ``field`` names the offending entry when known.
    """

    def __init__(self, message: str, field: str | None = None):
        super().__init__(message)
        self.field = field
