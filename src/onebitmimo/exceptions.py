"""Exception types shared across the package.

Every error raised on purpose is one of these, so callers can tell a shape
mismatch from a numerical breakdown from a request the package refuses to
serve.
"""

import numpy as np


class DimensionError(ValueError):
    """Shapes or sizes do not fit the operation, or a count is below 1."""


class DomainError(ValueError):
    """A parameter lies outside its mathematical domain (NaN, |rho| >= 1, ...)."""


class SingularMatrixError(np.linalg.LinAlgError):
    """A matrix that must be invertible is singular or numerically so."""


class NotPositiveDefiniteError(np.linalg.LinAlgError):
    """A matrix that must be positive definite is not."""


class CapabilityError(RuntimeError):
    """The request is valid but beyond what this implementation supports
    (for example an orthant integral in too many dimensions)."""


class AccuracyError(RuntimeError):
    """A numeric routine spent its sample or panel budget before reaching the
    requested accuracy.  Carries the best estimate achieved so far."""

    def __init__(self, message, estimate=None, error_estimate=None):
        super().__init__(message)
        self.estimate = estimate
        self.error_estimate = error_estimate
