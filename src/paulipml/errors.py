"""Exception types shared across the package."""


class DomainError(ValueError):
    """Argument outside the holomorphy domain of a spectral quantity."""


class GeometryError(ValueError):
    """Point cannot be projected unambiguously onto a boundary."""


class ContinuationError(ArithmeticError):
    """Analytic continuation failed (branch cut crossed or denominator
    vanished)."""


class AssemblyError(ValueError):
    """Inconsistent grid / profile extents during operator assembly."""


class SingularOperatorError(ArithmeticError):
    """The post-solve residual shows a (numerically) singular operator."""


class NonConvergenceError(ArithmeticError):
    """Iterative solver failed to reach the requested residual."""


class StabilityError(ArithmeticError):
    """Field values exceeded the overflow guard during time stepping."""


class ParseError(ValueError):
    """Malformed experiment config; message carries line numbers."""


class ValidationError(ValueError):
    """Config parsed but a field value is out of range; message names
    the fields."""


class TruncationWarning(UserWarning):
    """Estimated tail of a truncated Laplace integral exceeds 1% of the
    norm."""
