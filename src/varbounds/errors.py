"""Exception types shared across the library."""

from __future__ import annotations


class VarBoundsError(Exception):
    """Base class for all library-specific errors."""


class NaturalSpaceError(VarBoundsError):
    """The log moment-generating function is not finite at a parameter vector:
    the vector lies outside the natural parameter space, or, with `overflow`
    set, inside it where the log-partition overflows float64.

    Carries the offending point so callers can report where the
    moment-generating function became infinite.
    """

    def __init__(self, point, context: str = "", overflow: bool = False):
        self.point = point
        self.context = context
        self.overflow = overflow
        msg = f"log-partition overflowed at parameter {point!r}" if overflow \
            else f"parameter {point!r} outside the natural parameter space"
        if context:
            msg += f" ({context})"
        super().__init__(msg)


class ReferenceSupportError(VarBoundsError):
    """The reference density vanishes at an observation where it must not."""


class StencilError(VarBoundsError):
    """A finite-difference stencil hit a point with a non-finite value."""

    def __init__(self, point, value):
        self.point = point
        self.value = value
        super().__init__(f"non-finite value {value!r} at stencil point {point!r}")


class KernelEvaluationError(VarBoundsError):
    """Kernel evaluation produced a non-finite value (overflow or invalid pair)."""


class ConstraintRankError(VarBoundsError):
    """A constraint Jacobian is rank deficient, i.e. the constraints are redundant."""


class ConfigurationError(VarBoundsError, ValueError):
    """A config field or method option is invalid; the message names the field."""


class DataError(VarBoundsError):
    """Non-finite or malformed data: Monte Carlo draws or estimator outputs, summed
    log densities, or a Gram matrix or right-hand side; the message names them."""


class DomainError(VarBoundsError, ValueError):
    """An input lies outside the domain of a bound method, such as a test point
    at the reference parameter; the message names the method and x0."""
