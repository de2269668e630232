"""Exception types shared across the package."""


class InlsError(Exception):
    """Base class for all package errors."""


class ValidationError(InlsError):
    """Invalid parameters, grids, or configuration (CLI exit code 2)."""


class NumericsError(InlsError):
    """Numerical failure: divergence, NaN, non-convergence (CLI exit code 3).

    ``trajectory`` holds what a failed evolution recorded before the failure.
    """

    trajectory = None


class ConvergenceError(NumericsError):
    """Iteration failed to converge; carries the last residual."""

    def __init__(self, message, residual=None):
        super().__init__(message)
        self.residual = residual
