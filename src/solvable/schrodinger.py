"""From weighted families on (a, b) to Schrodinger operators on (a', b').

With dx/ds = 1/kappa(s), kappa = sqrt(sigma), the family operator becomes
-d^2/dx^2 + V_m(x), with eigenfunctions Psi_{ell,m}(x) = sqrt(kappa rho)
F_{ell,m} at s = s(x) and the same eigenvalues lambda_ell.  Pearson's
(sigma rho)' = tau rho makes V_m = c_m + N_m(s) / (16 sigma(s)), where

    N_m = (sigma' - 2 tau)(3 sigma' - 2 tau) + 4m(m-2) sigma'^2 + 8m tau sigma'
    c_m = (alpha - a)/2 - m(m-2) a - m alpha,   sigma = a s^2 + b s + c,

and V_m is built in partial fractions over sigma: the shape-invariant
potentials of Cooper, Khare & Sukhatme, Phys. Rep. 251 (1995) 267.  Where
sigma has two simple real roots r, the variable map gives each |s(x) - r|
in an exact half-angle form, so V and Psi keep their digits at the ends.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

from .errors import InvalidParameter
from .expr import VAR, Expr, add, compose, exp_, fun_, mul, pow_
from .families import FamilySpec, SigmaCase, check_degree, eigenvalue
from .specfun import special_function

__all__ = [
    "VariableMap", "Provenance", "SchrodingerSystem", "variable_map",
    "potential", "potential_coefficients", "rounded", "wavefunction",
]

INF = math.inf
_HERMITE = FamilySpec(SigmaCase.ONE, -2.0, 0.0)  # phi(_HERMITE, n) = H_n/2^n


@dataclass(frozen=True)
class VariableMap:
    """s(x), with ds/dx = kappa(s(x)), and (r, |s(x) - r|) at simple roots."""

    inverse: Expr       # s(x), expression in x
    image: tuple        # (a', b')
    root_factors: tuple = ()


def variable_map(family: FamilySpec) -> VariableMap:
    x, case = VAR, family.sigma_case
    if case is SigmaCase.ONE:
        return VariableMap(x, (-INF, INF))
    if case is SigmaCase.S:  # x = 2 sqrt(s)
        return VariableMap(mul(Fraction(1, 4), pow_(x, 2)), (0.0, INF))
    if case is SigmaCase.ONE_MINUS_S2:
        # 1 -+ sin x = 2 sin^2 u and 2 cos^2 u with u = pi/4 - x/2
        u = add(math.pi / 4, mul(Fraction(-1, 2), x))
        return VariableMap(fun_("sin", x), (-math.pi / 2, math.pi / 2), (
            (1, mul(2, pow_(fun_("sin", u), 2))),
            (-1, mul(2, pow_(fun_("cos", u), 2)))))
    if case is SigmaCase.S2_MINUS_1:
        # cosh x -+ 1 = 2 sinh^2(x/2) and 2 cosh^2(x/2)
        half = mul(Fraction(1, 2), x)
        return VariableMap(fun_("cosh", x), (0.0, INF), (
            (1, mul(2, pow_(fun_("sinh", half), 2))),
            (-1, mul(2, pow_(fun_("cosh", half), 2)))))
    if case is SigmaCase.S2:
        return VariableMap(exp_(x), (-INF, INF))
    return VariableMap(fun_("sinh", x), (-INF, INF))  # sigma = s^2 + 1


@dataclass(frozen=True)
class Provenance:
    """The parameters a generated system came from: the oscillator's
    alpha and beta, the branch (the sign of beta), whether the parameter
    cubic degenerated (c1 = 0), and the gauge factor and the map x(r) of
    the transform."""

    alpha: float | None = None
    beta: float | None = None
    branch: str | None = None
    degenerate: bool = False
    gauge: Expr | None = None
    x_of_r: Expr | None = None


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


def rounded(q) -> float:
    """The nearest float to the fraction q, +-inf past the float range."""
    try:
        return float(q)
    except OverflowError:
        return INF if q > 0 else -INF


def potential_coefficients(family: FamilySpec, m: int):
    """V_m = const + (n0 + n1 s + n2 s^2)/(16 sigma(s)) in exact fractions:
    (const, (n0, n1, n2)), where N_m = lead sigma + n0 + n1 s + n2 s^2
    and const = c_m + lead/16.  With d = sigma' and t = tau,
    N_m = (2m - 1)(2m - 3) d^2 + 8(m - 1) d t + 4 t^2."""
    a, b, c = map(int, family.sigma_coeffs)  # each is 0 or +-1
    fa, fb = family.exact
    n = [4 * fb * fb, 8 * fa * fb, 4 * fa * fa]  # 4 t^2
    if a or b:  # the d^2 and d t terms
        p, q = (2 * m - 1) * (2 * m - 3), 8 * (m - 1)
        n[0] += p * b * b + q * b * fb
        n[1] += 4 * p * a * b + q * (2 * a * fb + b * fa)
        n[2] += 4 * p * a * a + 2 * q * a * fa
    const = (fa * (1 - 2 * m) - a * (1 + 2 * m * (m - 2))) / 2  # c_m
    if a:
        lead = n[2] / a
        const += lead / 16
        n = [nj - lead * qj for nj, qj in zip(n, (c, b, a))]
    return const, tuple(n)


def potential(family: FamilySpec, m: int, attach_ells=()) -> SchrodingerSystem:
    """The m-th potential as an expression in x, with eigenpairs
    (lambda_ell, Psi_{ell,m}) attached for the requested ell values; each
    coefficient of ``potential_coefficients`` is rounded once, so no
    residue cancels."""
    check_degree(family, m, "m")
    vmap = variable_map(family)
    const, n = potential_coefficients(family, m)
    if vmap.root_factors:  # N_m(r)/(16 sigma'(r)) over s - r = +-|s - r|
        a = int(family.sigma_coeffs[0])  # n2 is 0: sigma is quadratic
        rest = [((n[0] + n[1] * r) / (32 * a * r)
                 * (-1) ** (r > family.interval[0]), pow_(dist, -1))
                for r, dist in vmap.root_factors]
    else:
        rest = [(nj / 16, compose(mul(
            pow_(VAR, j), pow_(family.sigma_expr, -1)), vmap.inverse))
            for j, nj in enumerate(n)]
    v_x = add(rounded(const), *(mul(rounded(k), term) for k, term in rest))
    pairs = tuple((eigenvalue(family, ell), wavefunction(family, ell, m))
                  for ell in attach_ells)
    return SchrodingerSystem(v_x, vmap.image, pairs)


def wavefunction(family: FamilySpec, ell: int, m: int) -> Expr:
    """Psi_{ell,m}(x) = sqrt(kappa rho) F_{ell,m} at s = s(x), square
    integrable on the image for ell below the cutoff, built directly in x
    with each exponent an exact fraction rounded once:

        s:      (x^2/4)^q exp(alpha x^2/8) p(x^2/4),  q = (2 beta - 1)/4 + m/2
        s^2:    exp(((alpha - 1)/2 + m) x - (beta/2) e^-x) p(e^x)
        s^2+1:  (1 + sinh^2 x)^((alpha - 1)/4 + m/2)
                    exp((beta/2) arctan(sinh x)) p(sinh x)

    with p = P_ell^(m).  At two simple roots r,
    sqrt(kappa rho) kappa^m = prod |s - r|^((m - 1/2 + tau(r)/sigma'(r))/2).

    At sigma = 1 it is built centred: phi_ell^(m)(x) = c^(m - ell)
    (H_ell/2^ell)^(m)(c (x - s0)), c = sqrt(-alpha/2), s0 = -beta/alpha,
    with (m - ell) log c in sqrt(rho)'s exponent: nothing overflows early."""
    al, be = family.alpha, family.beta
    case = family.sigma_case
    if case is SigmaCase.ONE:
        c = math.sqrt(-0.5 * al)
        # validates ell and m as for the family: sigma = 1 has no cutoff
        return mul(
            exp_(add(mul(0.25 * al, pow_(VAR, 2)), mul(0.5 * be, VAR),
                     (m - ell) * math.log(c))),
            special_function(_HERMITE, ell, m).poly_part.to_expr(
                add(mul(c, VAR), -be / math.sqrt(-2.0 * al))))
    sf = special_function(family, ell, m)  # validates ell and m
    vmap = variable_map(family)
    s = vmap.inverse
    p = sf.poly_part.to_expr(s)
    (fa, fb), half_m = family.exact, Fraction(m, 2)
    if case is SigmaCase.S:
        return mul(pow_(s, (2 * fb - 1) / 4 + half_m),
                   exp_(mul(0.5 * al, s)), p)
    if case is SigmaCase.S2:
        return mul(exp_(add(mul((fa - 1) / 2 + m, VAR),
                            mul(-0.5 * be, exp_(mul(-1, VAR))))), p)
    if case is SigmaCase.S2_PLUS_1:
        return mul(pow_(add(1, pow_(s, 2)), (fa - 1) / 4 + half_m),
                   exp_(mul(0.5 * be, fun_("arctan", s))), p)
    a = Fraction(family.sigma_coeffs[0])
    return mul(p, *(
        pow_(dist, (m - Fraction(1, 2) + (fa * r + fb) / (2 * a * r)) / 2)
        for r, dist in vmap.root_factors))
