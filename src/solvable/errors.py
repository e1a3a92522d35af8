"""Exception hierarchy shared across the package: one class per kind of
failure, so no two classes name the same kind, and the message names the
violated constraint.  The nine kinds are SolvableError (the base, which
the CLI reports with exit status 1), InvalidParameter, ExprSyntaxError,
DomainError, Inadmissible, DegreeBeyondCutoff, NonFiniteValue,
QuadratureNoConverge and BisectionNoConverge."""

import math


class SolvableError(Exception):
    """Base class for all domain errors raised by this package."""


class InvalidParameter(SolvableError, ValueError):
    """An argument lies outside the values the function accepts (a
    non-positive c1, an order m above the degree, a map-defining term with
    no closed-form map, ...); the message names the constraint.  Also a
    ValueError, so callers that catch ValueError keep working."""


def require_finite(*named):
    """Raise InvalidParameter for the first NaN or infinite (name, value)."""
    for name, v in named:
        if not math.isfinite(v):
            raise InvalidParameter(f"{name} must be finite, got {v:g}")


class ExprSyntaxError(SolvableError):
    """Malformed expression text, a non-rational exponent among it;
    carries the offending position."""

    def __init__(self, message, position):
        super().__init__(f"{message} (at position {position})")
        self.position = position


class DomainError(SolvableError):
    """Evaluation outside the mathematical domain (negative fractional
    power, pole, log of a non-positive value, a singular point of an
    operator or potential, ...)."""


class DegreeBeyondCutoff(SolvableError):
    """Requested degree is at or beyond the square-integrability cutoff."""


class NonFiniteValue(SolvableError):
    """A value to be reported is NaN or infinite; the message names where
    it sits."""


class QuadratureNoConverge(SolvableError):
    """Adaptive quadrature failed to reach the requested tolerance."""


class BisectionNoConverge(SolvableError):
    """Sturm bisection failed to reach the requested tolerance within its
    pass limit."""


class Inadmissible(SolvableError):
    """Parameters violate an admissibility bound: a weight family's
    constraint on alpha and beta, or a generated system's bound on its
    eigenpair parameters; the message names the bound."""
