"""Exception hierarchy shared across the package."""

import math


class SolvableError(Exception):
    """Base class for all domain errors raised by this package."""


class InvalidParameter(SolvableError, ValueError):
    """An argument lies outside the values the function accepts (a
    non-positive c1, too few finite-difference subintervals, ...); the
    message names the constraint.  Also a ValueError, so callers that
    catch ValueError keep working."""


def require_finite(*named):
    """Raise InvalidParameter for the first NaN or infinite (name, value)."""
    for name, v in named:
        if not math.isfinite(v):
            raise InvalidParameter(f"{name} must be finite, got {v:g}")


class ExprSyntaxError(SolvableError):
    """Malformed expression text; carries the offending position."""

    def __init__(self, message, position):
        super().__init__(f"{message} (at position {position})")
        self.position = position


class NonRationalExponent(ExprSyntaxError):
    """``^`` was not followed by a rational literal exponent."""


class DomainError(SolvableError):
    """Evaluation outside the mathematical domain (negative fractional
    power, pole, log of a non-positive value, ...)."""


class FamilyConstraintError(SolvableError):
    """Parameters violate the admissibility constraints of the chosen
    weight family; the message names the violated constraint."""

    def __init__(self, constraint, alpha, beta):
        super().__init__(
            f"inadmissible parameters alpha={alpha:g}, beta={beta:g}: "
            f"requires {constraint}"
        )
        self.constraint = constraint


class DegreeBeyondCutoff(SolvableError):
    """Requested degree is at or beyond the square-integrability cutoff."""


class DegenerateRecursion(SolvableError):
    """A denominator of the coefficient recursion vanished, so the
    polynomial of the requested degree is not determined by it."""


class OrderExceedsDegree(SolvableError):
    """Derivative order m exceeds the polynomial degree ell."""


class SingularPoint(SolvableError):
    """Operator or potential evaluated at a singular point."""


class NonFiniteValue(SolvableError):
    """A value to be reported is NaN or infinite; the message names where
    it sits."""


class QuadratureNoConverge(SolvableError):
    """Adaptive quadrature failed to reach the requested tolerance."""


class BisectionNoConverge(SolvableError):
    """Sturm bisection failed to reach the requested tolerance within its
    pass limit."""


class UnsupportedCorrespondence(SolvableError):
    """No real-parameter classical counterpart for this family."""


class MapNotClosedForm(SolvableError):
    """The change of variable x'(r) = 1/sqrt(I(x)) has no closed form
    within the expression IR."""


class Unimplemented(SolvableError):
    """Decomposition not shipped for this family case."""


class Inadmissible(SolvableError):
    """Closed-form eigenpair parameters violate the admissibility bound."""


class NoAdmissibleRoot(SolvableError):
    """The parameter cubic has no real root with alpha < 0."""
