"""Exception types shared across the package."""


class GradedOrthoError(Exception):
    """Base class for all errors raised by gradedortho."""


class NonSquare(GradedOrthoError):
    pass


class NoConvergence(GradedOrthoError):
    """Raised when an eigendecomposition fails or misses its residual bound."""


class DegenerateMetric(GradedOrthoError):
    def __init__(self, message, level=None):
        super().__init__(message)
        self.level = level


class DimensionMismatch(GradedOrthoError):
    pass


class NotHermitian(GradedOrthoError):
    pass


class NonPositiveWeight(GradedOrthoError):
    pass


class InsufficientGrid(GradedOrthoError):
    pass


class QuadratureOrderTooLow(GradedOrthoError):
    pass


class LevelNotReady(GradedOrthoError):
    pass


class ShapeMismatch(GradedOrthoError):
    pass


class LinearlyDependentInput(GradedOrthoError):
    """Raised when a level's projected Gram block is numerically singular."""

    def __init__(self, message, level=None):
        super().__init__(message)
        self.level = level


class TerminalIsotropicVector(GradedOrthoError):
    def __init__(self, message, level=None, label=None):
        super().__init__(message)
        self.level = level
        self.label = label


class SchemaError(GradedOrthoError):
    """Problem or result file does not match the documented JSON schema."""
