"""Exception types shared across the package."""


class GradedOrthoError(Exception):
    """Base class for all errors raised by gradedortho; ``level`` names
    the level it concerns, or is None."""

    def __init__(self, message, level=None):
        super().__init__(message)
        self.level = level


class NoConvergence(GradedOrthoError):
    """Raised when an eigendecomposition fails or misses its residual bound."""


class DegenerateMetric(GradedOrthoError):
    """Raised when a metric block is not positive definite or is degenerate."""


class LinearlyDependentInput(GradedOrthoError):
    """Raised when a level's projected Gram block is numerically singular."""


class TerminalIsotropicVector(GradedOrthoError):
    """Raised when a lone isotropic vector has no following level to join."""


class SchemaError(GradedOrthoError):
    """Problem or result file does not match the documented JSON schema."""
