"""From weighted families on (a, b) to Schrodinger operators on (a', b').

The change of variable s -> x with dx/ds = 1/kappa(s) (kappa = sqrt(sigma);
the + branch is used throughout, the - branch merely reflects x) turns the
second-order family operator into -d^2/dx^2 + V_m(x).  Wavefunctions are

    Psi_{ell,m}(x) = sqrt(kappa(s(x)) rho(s(x))) F_{ell,m}(s(x)),

eigenfunctions of that operator with the same eigenvalues lambda_ell.
The potential is built symbolically from eta = 1/sqrt(kappa rho):

    V_m(x) = [ mult_m(s) - sigma eta''/eta - tau eta'/eta ]  at s = s(x),

where mult_m is the multiplication part of the associated-function
operator.  All six closed-form variable maps are hard-coded; exactness
feeds the symbolic pipeline.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

from .errors import InvalidParameter
from .expr import VAR, Expr, add, compose, differentiate, exp_, fun_, mul, pow_
from .families import FamilySpec, SigmaCase, check_degree, eigenvalue, weight
from .specfun import multiplication_part, special_function

__all__ = [
    "VariableMap", "Provenance", "SchrodingerSystem", "variable_map",
    "potential", "wavefunction", "oscillator_potential_value",
]

INF = math.inf


@dataclass(frozen=True)
class VariableMap:
    """Closed-form bijection s -> x with x'(s) = 1/kappa(s) and inverse."""

    family: FamilySpec
    forward: Expr       # x(s), expression in s
    inverse: Expr       # s(x), expression in x
    image: tuple        # (a', b')


def variable_map(family: FamilySpec) -> VariableMap:
    s, x = VAR, VAR
    case = family.sigma_case
    if case is SigmaCase.ONE:
        return VariableMap(family, s, x, (-INF, INF))
    if case is SigmaCase.S:
        # integral of ds/sqrt(s) = 2 sqrt(s)
        return VariableMap(family, mul(2, pow_(s, Fraction(1, 2))),
                           mul(Fraction(1, 4), pow_(x, 2)), (0.0, INF))
    if case is SigmaCase.ONE_MINUS_S2:
        return VariableMap(family, fun_("arcsin", s), fun_("sin", x),
                           (-math.pi / 2, math.pi / 2))
    if case is SigmaCase.S2_MINUS_1:
        # arccosh s = log(s + sqrt(s^2 - 1))
        fwd = fun_("log", add(s, pow_(add(pow_(s, 2), -1), Fraction(1, 2))))
        return VariableMap(family, fwd, fun_("cosh", x), (0.0, INF))
    if case is SigmaCase.S2:
        return VariableMap(family, fun_("log", s), exp_(x), (-INF, INF))
    if case is SigmaCase.S2_PLUS_1:
        # arcsinh s = log(s + sqrt(s^2 + 1))
        fwd = fun_("log", add(s, pow_(add(pow_(s, 2), 1), Fraction(1, 2))))
        return VariableMap(family, fwd, fun_("sinh", x), (-INF, INF))
    raise AssertionError(case)


@dataclass(frozen=True)
class Provenance:
    """The parameters a generated system came from: the oscillator's
    alpha and beta, the branch (the sign of beta), whether the parameter
    cubic degenerated (c1 = 0), and the gauge factor of the transform."""

    alpha: float | None = None
    beta: float | None = None
    branch: str | None = None
    degenerate: bool = False
    gauge: Expr | None = None


@dataclass(frozen=True)
class SchrodingerSystem:
    """-d^2/dx^2 + V(x) on (a', b') with its known closed-form eigenpairs
    (lambda, psi), psi an expression in x or None where only lambda is
    known, and the provenance of a generated system.  Every constructor,
    the family potentials and the generator alike, returns this type."""

    potential: Expr
    interval: tuple
    known_eigenpairs: tuple = ()
    provenance: Provenance | None = None

    def _only_pair(self):
        count = len(self.known_eigenpairs)
        if count != 1:
            raise InvalidParameter(
                f"energy and psi need exactly one known eigenpair; this "
                f"system has {count}")
        return self.known_eigenpairs[0]

    @property
    def energy(self) -> float:
        """lambda of the system's only known eigenpair."""
        return self._only_pair()[0]

    @property
    def psi(self) -> Expr | None:
        """psi of the system's only known eigenpair."""
        return self._only_pair()[1]


def _potential_in_s(family: FamilySpec, m: int) -> Expr:
    sig, tau = family.sigma_expr, family.tau_expr
    eta = pow_(mul(family.kappa_expr, weight(family)), Fraction(-1, 2))
    d1 = differentiate(eta)
    d2 = differentiate(d1)
    inv_eta = pow_(eta, -1)
    return add(
        multiplication_part(family, m),
        mul(-1, sig, d2, inv_eta),
        mul(-1, tau, d1, inv_eta),
    )


def potential(family: FamilySpec, m: int, attach_ells=()) -> SchrodingerSystem:
    """The m-th potential as an expression in x, with eigenpairs
    (lambda_ell, Psi_{ell,m}) attached for the requested ell values."""
    check_degree(family, m, "m")
    vmap = variable_map(family)
    v_x = compose(_potential_in_s(family, m), vmap.inverse)
    pairs = tuple(
        (eigenvalue(family, ell), wavefunction(family, ell, m))
        for ell in attach_ells)
    return SchrodingerSystem(v_x, vmap.image, pairs)


def wavefunction(family: FamilySpec, ell: int, m: int) -> Expr:
    """Psi_{ell,m}(x) = sqrt(kappa rho) F_{ell,m} at s = s(x); square
    integrable on the image interval for ell below the cutoff."""
    sf = special_function(family, ell, m)  # validates ell and m
    vmap = variable_map(family)
    amp = mul(pow_(mul(family.kappa_expr, weight(family)), Fraction(1, 2)),
              pow_(family.sigma_expr, Fraction(m, 2)),
              sf.poly_part.to_expr())
    return compose(amp, vmap.inverse)


def oscillator_potential_value(family: FamilySpec, m: int, x) -> float:
    """Closed form for the sigma = 1 case:
    V_m(x) = alpha^2/4 x^2 + alpha beta/2 x + beta^2/4 + alpha/2 - alpha m."""
    if family.sigma_case is not SigmaCase.ONE:
        raise InvalidParameter(
            "closed form applies to the sigma = 1 case only")
    al, be = family.alpha, family.beta
    return (al * al / 4.0) * x * x + (al * be / 2.0) * x \
        + be * be / 4.0 + al / 2.0 - al * m
