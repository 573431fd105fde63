"""Exception types shared across the package."""

__all__ = [
    "DiskwarpError",
    "NotConformalError",
    "NoConvergenceError",
    "SingularInertiaError",
    "BranchFailureError",
    "ConfigParseError",
    "ConfigValidationError",
]


class DiskwarpError(Exception):
    """Base class for all package-specific failures.  A failed solve carries
    its offending or partial result on the ``result`` attribute."""

    def __init__(self, message, result=None):
        super().__init__(message)
        self.result = result


class NotConformalError(DiskwarpError):
    """A step's derivative modulus fell below the conformality threshold on
    the sample grid: the path left the conformal maps, or its target did."""


class NoConvergenceError(DiskwarpError):
    """The minimizer hit its iteration budget, or a line search ran out, with
    the gradient above tolerance."""


class SingularInertiaError(DiskwarpError):
    """The reduced linear dynamics reached ``c = 0``, where the reduced
    velocity ``a = (dc/dt) / c`` is undefined."""


class BranchFailureError(DiskwarpError):
    """No closed-form geodesic joins the requested linear maps: the minimizer
    would reach the non-invertible map ``c = 0`` or would not be unique."""


class ConfigParseError(DiskwarpError):
    """An experiment config file could not be parsed."""


class ConfigValidationError(DiskwarpError):
    """An experiment config parsed but violates an invariant."""
