"""Exception types shared across the package."""


class FracsourceError(Exception):
    """Base class for all package errors. clause, when set, names the
    violated condition, and the command line prints it."""

    clause = None


class DomainError(FracsourceError, ValueError):
    """An argument lies outside the documented domain of an operation."""


class ValidationError(FracsourceError, ValueError):
    """A model/config invariant is violated; names the violated clause."""

    def __init__(self, message, clause=None):
        super().__init__(message)
        self.clause = clause


class ShapeError(FracsourceError, ValueError):
    """Spectrum / coefficient / trace alignment mismatch."""


class EmptySpectrumError(FracsourceError, ValueError):
    """Eigenvalue cutoff below the first disc eigenvalue."""

    clause = "spectrum-range"


class HorizonError(FracsourceError, ValueError):
    """Trace horizon too short for a Laplace transform."""


class EmptySignalError(FracsourceError, ValueError):
    """No trace sample exceeds the onset detection threshold."""

    clause = "empty-signal"


class SensorGeometryError(ValidationError):
    """The two-sensor determinant 2i*sin(|m|(theta1-theta2)) is degenerate.

    Carries the offending order |m| as m, and the clause "sensor-margin".
    """

    def __init__(self, message, m=None):
        super().__init__(message, clause="sensor-margin")
        self.m = m


class ConditioningError(FracsourceError):
    """The design matrix is rank-deficient: its smallest singular value is
    below 1e-7 of its largest, so the coefficients are not determined."""


class BracketingError(FracsourceError, RuntimeError):
    """Internal failure to bracket a Bessel zero (should not occur in range)."""
