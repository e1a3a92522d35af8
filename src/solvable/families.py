"""The six canonical weight families of the hypergeometric-type equation

    sigma(s) y'' + tau(s) y' + lambda y = 0,

with sigma in {1, s, 1-s^2, s^2-1, s^2, s^2+1} and tau(s) = alpha*s + beta.
Each family carries its weight rho (the positive solution of
(sigma*rho)' = tau*rho), its natural open interval, the parameter
admissibility constraints, the polynomial eigenvalues lambda_ell, and the
square-integrability cutoff beyond which the polynomial system stops
being orthogonal.  What the sigma case alone fixes (sigma's coefficients,
the interval, the admissibility test and its text, whether the polynomial
system is finite, and the sample window) is one row of the table _CASES.
"""

from __future__ import annotations

import enum
import math
from collections.abc import Callable
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property

import numpy as np

from .errors import (
    DegreeBeyondCutoff, Inadmissible, InvalidParameter, require_finite,
)
from .expr import (
    QUIET, VAR, Expr, add, as_fraction, exp_, fun_, mul, pow_, power,
)

__all__ = [
    "SigmaCase", "FamilySpec", "FamilyCutoff",
    "eigenvalue", "weight", "weight_function", "cutoff", "check_degree",
    "ALL_CASES",
]

INF = math.inf


class SigmaCase(enum.Enum):
    """The six admissible leading coefficients sigma(s); the read-only
    properties read the case's row of _CASES."""

    ONE = "1"
    S = "s"
    ONE_MINUS_S2 = "1-s^2"
    S2_MINUS_1 = "s^2-1"
    S2 = "s^2"
    S2_PLUS_1 = "s^2+1"

    @property
    def sigma_coeffs(self):
        """(a, b, c) with sigma(s) = a s^2 + b s + c."""
        return _CASES[self].sigma_coeffs

    @property
    def interval(self):
        return _CASES[self].interval

    @property
    def constraint(self) -> str:
        return _CASES[self].constraint

    @property
    def finite_system(self) -> bool:
        """True when only finitely many polynomials are orthogonal."""
        return _CASES[self].finite_system


@dataclass(frozen=True)
class _Case:
    """What is fixed by the sigma case alone."""

    sigma_coeffs: tuple         # (a, b, c)
    interval: tuple             # the natural open interval
    finite_system: bool
    sample_window: tuple        # see sample_window()
    admissible: Callable        # (alpha, beta) -> bool
    constraint: str             # the admissibility test as text


_CASES = {
    SigmaCase.ONE: _Case(
        (0.0, 0.0, 1.0), (-INF, INF), False, (-2.0, 2.0),
        lambda a, b: a < 0, "alpha < 0"),
    SigmaCase.S: _Case(
        (0.0, 1.0, 0.0), (0.0, INF), False, (0.2, 4.0),
        lambda a, b: a < 0 and b > 0, "alpha < 0 and beta > 0"),
    SigmaCase.ONE_MINUS_S2: _Case(
        (-1.0, 0.0, 1.0), (-1.0, 1.0), False, (-0.8, 0.8),
        lambda a, b: a < b < -a, "alpha < beta < -alpha"),
    SigmaCase.S2_MINUS_1: _Case(
        (1.0, 0.0, -1.0), (1.0, INF), True, (1.2, 4.0),
        lambda a, b: -b < a < 0, "-beta < alpha < 0"),
    SigmaCase.S2: _Case(
        (1.0, 0.0, 0.0), (0.0, INF), True, (0.2, 4.0),
        lambda a, b: a < 0 and b > 0, "alpha < 0 and beta > 0"),
    SigmaCase.S2_PLUS_1: _Case(
        (1.0, 0.0, 1.0), (-INF, INF), True, (-2.0, 2.0),
        lambda a, b: a < 0, "alpha < 0"),
}

ALL_CASES = tuple(SigmaCase)


@dataclass(frozen=True)
class FamilySpec:
    """One family instance: a sigma case plus tau(s) = alpha*s + beta.

    Construction validates the admissibility constraints eagerly; every
    downstream formula misbehaves silently outside that region.
    ``exact`` is (alpha, beta) as exact fractions (``as_fraction``),
    derived once per instance for the exponents and coefficients of the
    weight, the potential and the wavefunctions.
    """

    sigma_case: SigmaCase
    alpha: float
    beta: float

    def __post_init__(self):
        object.__setattr__(self, "alpha", float(self.alpha))
        object.__setattr__(self, "beta", float(self.beta))
        require_finite(("alpha", self.alpha), ("beta", self.beta))
        case = self.sigma_case
        if not _CASES[case].admissible(self.alpha, self.beta):
            raise Inadmissible(
                f"inadmissible parameters alpha={self.alpha:g}, "
                f"beta={self.beta:g}: requires case {case.value}: "
                f"{case.constraint}")

    @cached_property
    def exact(self) -> tuple[Fraction, Fraction]:
        return as_fraction(self.alpha), as_fraction(self.beta)

    @property
    def interval(self):
        return self.sigma_case.interval

    @property
    def sigma_coeffs(self):
        return self.sigma_case.sigma_coeffs

    def sigma(self, s):
        a, b, c = self.sigma_coeffs
        return (a * s + b) * s + c

    def tau(self, s):
        return self.alpha * s + self.beta

    @property
    def sigma_expr(self) -> Expr:
        a, b, c = self.sigma_coeffs
        return add(mul(a, pow_(VAR, 2)), mul(b, VAR), c)

    @property
    def tau_expr(self) -> Expr:
        return add(mul(self.alpha, VAR), self.beta)


@dataclass(frozen=True)
class FamilyCutoff:
    """Square-integrability cutoff: polynomials with ell < lambda_cap are
    orthogonal; max_degree is the largest admissible ell when finite."""

    lambda_cap: float
    max_degree: int | None

    @property
    def unbounded(self) -> bool:
        return math.isinf(self.lambda_cap)

    def top_degree(self, limit: int) -> int:
        """The largest admissible ell that is at most ``limit``."""
        if self.max_degree is None:
            return limit
        return min(self.max_degree, limit)


def eigenvalue(family: FamilySpec, ell: int) -> float:
    """lambda_ell = -(sigma''/2) ell (ell-1) - alpha ell."""
    check_degree(family, ell)
    a = family.sigma_coeffs[0]
    return -a * ell * (ell - 1) - family.alpha * ell


def weight(family: FamilySpec) -> Expr:
    """The weight rho as an expression; satisfies (sigma rho)' = tau rho.
    Its exponents are fractions of ``family.exact``; ``weight_function``
    is the same rho as a function of s."""
    al, be = family.alpha, family.beta
    fa, fb = family.exact
    s = VAR
    case = family.sigma_case
    if case is SigmaCase.ONE:
        # exp(alpha s^2/2 + beta s)
        return exp_(add(mul(al / 2, pow_(s, 2)), mul(be, s)))
    if case is SigmaCase.S:
        # s^(beta-1) exp(alpha s)
        return mul(pow_(s, fb - 1), exp_(mul(al, s)))
    if case is SigmaCase.ONE_MINUS_S2:
        # (1+s)^(-(alpha-beta)/2-1) (1-s)^(-(alpha+beta)/2-1)
        return mul(pow_(add(1, s), -(fa - fb) / 2 - 1),
                   pow_(add(1, mul(-1, s)), -(fa + fb) / 2 - 1))
    if case is SigmaCase.S2_MINUS_1:
        # (s+1)^((alpha-beta)/2-1) (s-1)^((alpha+beta)/2-1)
        return mul(pow_(add(s, 1), (fa - fb) / 2 - 1),
                   pow_(add(s, -1), (fa + fb) / 2 - 1))
    if case is SigmaCase.S2:
        # s^(alpha-2) exp(-beta/s)
        return mul(pow_(s, fa - 2), exp_(mul(-be, pow_(s, -1))))
    if case is SigmaCase.S2_PLUS_1:
        # (1+s^2)^(alpha/2-1) exp(beta arctan s)
        return mul(pow_(add(1, pow_(s, 2)), fa / 2 - 1),
                   exp_(mul(be, fun_("arctan", s))))
    raise AssertionError(case)


def weight_function(family: FamilySpec) -> Callable:
    """The weight rho as a vectorized function of s, built with no Expr.

    It gives exactly the floats of ``evaluate(weight(family), s)`` and
    raises DomainError where that does: each exponent is the same
    fraction of ``family.exact``, computed here once and rounded once as
    evaluate rounds it (``expr.power``), and each value is the same
    operations in the same order, under evaluate's errstate.
    """
    al, be = family.alpha, family.beta
    fa, fb = family.exact

    case = family.sigma_case
    if case is SigmaCase.ONE:
        half = al / 2
        rho = lambda s: np.exp(half * s ** 2 + be * s)
    elif case is SigmaCase.S:
        q = fb - 1
        rho = lambda s: power(s, q) * np.exp(al * s)
    elif case is SigmaCase.ONE_MINUS_S2:
        q, r = -(fa - fb) / 2 - 1, -(fa + fb) / 2 - 1
        rho = lambda s: power(1.0 + s, q) * power(1.0 - s, r)
    elif case is SigmaCase.S2_MINUS_1:
        q, r = (fa - fb) / 2 - 1, (fa + fb) / 2 - 1
        rho = lambda s: power(1.0 + s, q) * power(s - 1.0, r)
    elif case is SigmaCase.S2:
        q, r = fa - 2, Fraction(-1)
        rho = lambda s: power(s, q) * np.exp(-be * power(s, r))
    elif case is SigmaCase.S2_PLUS_1:
        q = fa / 2 - 1
        rho = lambda s: power(1.0 + s ** 2, q) * np.exp(be * np.arctan(s))
    else:
        raise AssertionError(case)

    def quiet(s):
        with np.errstate(**QUIET):
            return rho(s)
    return quiet


def cutoff(family: FamilySpec) -> FamilyCutoff:
    """Unbounded for sigma in {1, s, 1-s^2}; otherwise (1-alpha)/2 with
    max_degree the largest integer strictly below it."""
    if not family.sigma_case.finite_system:
        return FamilyCutoff(INF, None)
    cap = (1.0 - family.alpha) / 2.0
    max_degree = math.ceil(cap) - 1  # largest integer strictly below cap
    return FamilyCutoff(cap, max_degree)


def check_degree(family: FamilySpec, degree: int, name: str = "ell") -> None:
    """Raise InvalidParameter for a negative degree and DegreeBeyondCutoff
    for one at or past the cutoff Lambda; ``name`` names the degree."""
    if degree < 0:
        raise InvalidParameter(f"{name} must be a nonnegative integer")
    cap = cutoff(family).lambda_cap
    if degree >= cap:
        raise DegreeBeyondCutoff(
            f"{name}={degree} is beyond the cutoff Lambda={cap:g}")


def sample_window(family: FamilySpec):
    """A closed sub-window of the interval where sigma, rho, and the
    polynomials are well scaled; used for pointwise checks and fits."""
    return _CASES[family.sigma_case].sample_window


def sample_points(family: FamilySpec, n: int):
    """n evenly spaced interior points of the sample window."""
    lo, hi = sample_window(family)
    return np.linspace(lo, hi, n)
