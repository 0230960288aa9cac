"""Exception types shared across the library."""


class DiniError(Exception):
    """Base class for all library errors."""


class DomainError(DiniError, ValueError):
    """An argument lies outside the documented domain of an operation."""


class OverflowRangeError(DomainError):
    """Argument large enough that the result would overflow binary64."""


class BracketScanFailure(DiniError, RuntimeError):
    """Zero bracketing scan could not certify the expected sign change."""

    def __init__(self, message, scan_step=None):
        super().__init__(message)
        self.scan_step = scan_step


class RegimeMismatchError(DiniError, ValueError):
    """An n=0 object was requested in a regime that does not have one."""


class SpectrumNotPositiveError(DiniError, ValueError):
    """Negative/zero eigenvalue obstructs a negative or fractional power."""


class ShiftTooSmallError(DiniError, ValueError):
    """Spectral shift too small to make the shifted operator non-negative."""


class TailBoundFailure(DiniError, RuntimeError):
    """Certified series tail bound could not be established."""


class DiagonalSlowConvergence(DiniError, RuntimeError):
    """Potential kernel requested too close to the diagonal for sigma <= 1/2."""


class InequalityViolation(DiniError, AssertionError):
    """An inequality being verified failed (CLI exit code 1)."""


class SandwichViolation(InequalityViolation):
    """Two-sided kernel comparison failed at a grid point."""

    def __init__(self, message, point=None):
        super().__init__(message)
        self.point = point


class NonFiniteRatioError(DiniError, ArithmeticError):
    """Kernel/envelope ratio is zero, infinite or NaN."""


class ConsistencyError(DiniError, RuntimeError):
    """An internal invariant asserted by the construction failed (a numerical
    error, CLI exit code 2, not a failed inequality)."""
