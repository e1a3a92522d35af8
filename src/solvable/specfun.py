"""Associated special functions and their second-order operator.

For a family polynomial P_ell of degree ell and 0 <= m <= ell, the
associated special function is

    F_{ell,m}(s) = kappa(s)^m  d^m/ds^m P_ell(s),      kappa = sqrt(sigma),

and it satisfies H_m F_{ell,m} = lambda_ell F_{ell,m} with the operator

    H_m = -sigma d^2/ds^2 - tau d/ds
          + m(m-2)/4 (sigma')^2/sigma + m tau sigma'/(2 sigma)
          - m(m-2)/2 sigma'' - m tau'.

The multiplication part has a genuine pole where sigma vanishes (the
interval endpoints); evaluating there raises DomainError.  For each
fixed m the functions with different ell are orthogonal under the
weighted scalar product <f, g> = integral f g rho ds.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property

import numpy as np

from .errors import DomainError, InvalidParameter
from .expr import Expr, add, as_function, differentiate, evaluate, mul, pow_
from .families import FamilySpec, weight_function
from .oracle import integrate
from .polynomials import Poly, phi

__all__ = [
    "SpecialFunction", "HmOperator", "special_function", "hm_operator",
    "multiplication_part", "apply_hm", "scalar_product",
]


@dataclass(frozen=True)
class SpecialFunction:
    """F_{ell,m}(s) = kappa^m(s) * poly_part(s) with poly_part the m-th
    derivative of the degree-ell family polynomial."""

    family: FamilySpec
    ell: int
    m: int
    poly_part: Poly

    def __call__(self, s):
        """F at a scalar or array s: poly_part(s) at m = 0; for odd m,
        DomainError naming the first s where sigma(s) < 0, where
        kappa^m = sigma^(m/2) is not real."""
        if not self.m:
            return self.poly_part(s)
        sig = self.family.sigma(s)
        if self.m % 2:
            negative = np.asarray(sig) < 0.0
            if negative.any():
                raise DomainError(
                    f"sigma(s) < 0 at s={np.asarray(s)[negative][0]:g}, so "
                    f"sigma^({self.m}/2) is a negative base with a "
                    f"fractional exponent")
        return sig ** (self.m / 2.0) * self.poly_part(s)

    @cached_property
    def expr(self) -> Expr:
        return mul(pow_(self.family.sigma_expr, Fraction(self.m, 2)),
                   self.poly_part.to_expr())


def special_function(family: FamilySpec, ell: int, m: int) -> SpecialFunction:
    if not 0 <= m:
        raise InvalidParameter("m must be a nonnegative integer")
    if m > ell:
        raise InvalidParameter(f"m={m} exceeds ell={ell}")
    return SpecialFunction(family, ell, m, phi(family, ell).deriv(m))


def multiplication_part(family: FamilySpec, m: int) -> Expr:
    """The zeroth-order coefficient of H_m; identically zero at m = 0."""
    sig = family.sigma_expr
    dsig = differentiate(sig)
    a = family.sigma_coeffs[0]
    return add(
        mul(Fraction(m * (m - 2), 4), pow_(dsig, 2), pow_(sig, -1)),
        mul(Fraction(m, 2), family.tau_expr, dsig, pow_(sig, -1)),
        mul(-m * (m - 2), a),          # -(1/2) m (m-2) sigma'' with sigma''=2a
        mul(-m, family.alpha),         # -m tau'
    )


@dataclass(frozen=True)
class HmOperator:
    """H_m f = -sigma f'' - tau f' + (multiplication part) f."""

    family: FamilySpec
    m: int
    mult: Expr


def hm_operator(family: FamilySpec, m: int) -> HmOperator:
    return HmOperator(family, m, multiplication_part(family, m))


def apply_hm(op: HmOperator, f, s):
    """Evaluate (H_m f)(s); derivatives of f are analytic, never finite
    differences.  f may be an Expr or a SpecialFunction; s may be a
    scalar or an array."""
    if np.any(np.asarray(op.family.sigma(s)) == 0.0):
        raise DomainError(f"sigma vanishes at s={s}")
    if isinstance(f, SpecialFunction):
        f = f.expr
    d1 = differentiate(f)
    d2 = differentiate(d1)
    mult = evaluate(op.mult, s) if op.m else 0.0
    return (-op.family.sigma(s) * evaluate(d2, s)
            - op.family.tau(s) * evaluate(d1, s) + mult * evaluate(f, s))


def scalar_product(family: FamilySpec, f, g):
    """<f, g> = integral of f g rho over the family interval.

    f and g may be Exprs or vectorized callables (SpecialFunctions are
    both): each is called with the nodes of one or more quadrature
    panels in one array, so it must act elementwise.  A norm (``g is
    f``) evaluates f once per call and squares it, the floats two
    evaluations of f would give.  Raises QuadratureNoConverge when the
    adaptive error estimate cannot be brought below 1e-9.

    rho is ``weight_function(family)``, made once per call: the floats
    of the weight's Expr, with neither that tree built nor walked.  Only
    rho's own arithmetic runs under evaluate's errstate, so f and g warn
    as they would on their own.
    """
    rho = weight_function(family)
    fc = as_function(f)
    if g is f:
        def integrand(s):
            v = fc(s)
            return v * v * rho(s)
    else:
        gc = as_function(g)
        integrand = lambda s: fc(s) * gc(s) * rho(s)
    return integrate(integrand, family.interval, 1e-9).value
