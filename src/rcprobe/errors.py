"""Exception types shared across the package."""


class RcprobeError(Exception):
    """Base class for all package errors except ParameterError."""


class ParameterError(ValueError):
    """A physical parameter is out of its range, e.g. N < 1 or g < 0.

    A ValueError, so callers that catch ValueError keep working; the CLI
    reports it as a config error.
    """


class ConfigError(RcprobeError):
    """A sweep configuration is malformed or violates the schema."""

    def __init__(self, message, field=None):
        super().__init__(message if field is None else f"{field}: {message}")
        self.field = field


class ConvergenceError(RcprobeError):
    """Fock-space truncation (or an iterative solver) failed to converge."""


class NumericalDomainError(RcprobeError):
    """Parameters fall outside the validity domain of a formula."""


class BracketError(RcprobeError):
    """A bracketed root search found no sign change."""


class QuadratureError(RcprobeError):
    """Adaptive quadrature failed to reach the requested tolerance."""


class ConsistencyError(RcprobeError):
    """An internal cross-check (analytic vs finite-difference) disagreed."""
