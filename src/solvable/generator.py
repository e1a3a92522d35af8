"""Generator of new explicitly solvable Schrodinger-type systems.

Pipeline, in order:

1. decompose: write the oscillator-family Schrodinger equation at the
   eigenvalue of degree ell as [-d^2/dx^2 + sum_k C_k I_k(x)] Psi = 0,
   returned as the mapping {k: (C_k, I_k)} = {1: (C1, x^2),
   -1: (Cm1, x), 0: (C0, 1)} with C1 = alpha^2/4, Cm1 = alpha*beta/2,
   C0 = beta^2/4 + alpha/2 - alpha*m + alpha*ell, a number once ell is
   fixed.  The C's are read from V_m's exact coefficients
   (schrodinger.potential_coefficients), each rounded once.

2. substitute: apply r -> x(r) with x'(r) = 1/sqrt(I(x(r))) for the
   term of index -k (the index k names the term that SURVIVES beside
   the constant in the transformed potential: k=+1 gives the cube-root
   map x = (3r/2)^(2/3) and correction -5/(36 r^2); k=-1 gives
   x = sqrt(2r) and correction -3/(16 r^2)).  W is one sum, each other
   term C_j I_j divided by I_(-k) plus the two correction terms, formed
   in x and mapped to r once.
   The transformed function (I(x(r)))^(1/4) Psi(x(r)) solves
   -u'' + W(r) u = E u with E = -(coefficient of the map-defining term);
   the result is a SchrodingerSystem holding W and (E, None), with the
   gauge and the map in its provenance, read from the decomposition
   alone.

3. solve_params_*: invert the parameter identifications of the two
   target potentials

     c1 (3r/2)^(2/3) + c2 (2/(3r))^(2/3) - 5/(36 r^2)      (cube root)
     c1 / sqrt(2r)   + c2 / (2r)         - 3/(16 r^2)      (square root)

   via explicit square roots (first case) or the one negative root of a
   real cubic in alpha, found by a monotone Newton iteration (second
   case), then return transformed_system of the sigma = 1 family at
   (alpha, beta), ell = n and m = 0, with k = +1 (E = -alpha beta/2) or
   k = -1 (E = -alpha^2/4): its W has the target coefficients up to
   rounding.
"""

from __future__ import annotations

import math
import sys
from dataclasses import replace
from fractions import Fraction

from .errors import (
    Inadmissible, InvalidParameter, NonFiniteValue, require_finite,
)
from .expr import (
    ONE, VAR, Add, Const, Exp, Expr, Mul, add, compose, differentiate, exp_,
    mul, pow_, power_terms, print_expr, simplify,
)
from .families import FamilySpec, SigmaCase
from .schrodinger import (
    Provenance, SchrodingerSystem, potential_coefficients, rounded,
    wavefunction,
)

__all__ = [
    "decompose", "substitute", "transformed_system",
    "solve_params_quantsys", "solve_params_inverse_sqrt", "reproduce_dw",
]

INF = math.inf


def decompose(family: FamilySpec, m: int, ell: int) -> dict:
    """Term decomposition {k: (C_k, I_k(x))} of the family's Schrodinger
    equation for V_m at the eigenvalue of degree ell.

    At sigma = 1, V_m = const + (n0 + n1 x + n2 x^2)/16 exactly
    (potential_coefficients), so {1: (n2/16, x^2), -1: (n1/16, x),
    0: (const + n0/16 - lambda_ell, 1)} with lambda_ell = -alpha ell,
    each C rounded once.  Shipped for the constant-sigma (oscillator)
    case only.
    """
    if family.sigma_case is not SigmaCase.ONE:
        raise InvalidParameter(
            "term decomposition is only shipped for the sigma = 1 case")
    const, (n0, n1, n2) = potential_coefficients(family, m)
    return {1: (rounded(n2 / 16), pow_(VAR, 2)), -1: (rounded(n1 / 16), VAR),
            0: (rounded(const + n0 / 16 + family.exact[0] * ell), ONE)}


def _monomial_map(i_map: Expr) -> tuple:
    """x(r) solving x' = 1/sqrt(i_map(x)) for i_map = x^p, as its two
    stages x = u^(2/(p+2)) and u = ((p+2)/2) r."""
    terms = power_terms(i_map)
    if terms is None:
        raise InvalidParameter(
            f"cannot solve x' = 1/sqrt(I) for I = {print_expr(i_map)}")
    live = {q: c for q, c in terms.items() if c != 0.0}
    if len(live) != 1:
        raise InvalidParameter("map-defining term must be a single monomial")
    (p, c), = live.items()
    if c != 1.0 or p == -2:
        raise InvalidParameter(
            "map solvable only for a monic monomial with exponent != -2")
    # x^{p/2} dx = dr  =>  x = u^{2/(p+2)} with u = ((p+2)/2) r
    return pow_(VAR, 2 / (p + 2)), mul((p + 2) / 2, VAR)


def substitute(terms: dict, k: int,
               x_of_r: Expr | None = None) -> SchrodingerSystem:
    """Change of variable killing the index -k term of the decomposition
    {j: (C_j, I_j(x))}: the system -u'' + W(r) u = E u on (0, inf) with
    the one eigenpair (E, None), E = -C_(-k), and the gauge
    (I(x(r)))^(1/4) and the map x(r) in its provenance.

    k = +1 keeps C1*I1 and uses the map solving x' = 1/sqrt(I_{-1});
    k = -1 keeps C_{-1}*I_{-1} and uses x' = 1/sqrt(I_{+1}).  For the
    oscillator decomposition these are x = (3r/2)^(2/3) and x = sqrt(2r)
    with corrections -5/(36 r^2) and -3/(16 r^2) respectively.  W is
    sum_(j != -k) C_j I_j(x)/I(x) - (5/16) I'(x)^2/I(x)^3
    + (1/4) I''(x)/I(x)^2, I = I_(-k) the map-defining term, in the
    mapping's order, formed in x and then mapped to r once: a
    caller's x_of_r in one stage, the map of I = x^p in two,
    x = u^(2/(p+2)) and u = ((p+2)/2) r, so that each coefficient takes
    one power of (p+2)/2.  A non-finite coefficient of W raises
    NonFiniteValue naming its term, a non-finite E and a mapping without
    an index -k term InvalidParameter.
    """
    if k not in (1, -1):
        raise InvalidParameter("k must be +1 or -1")
    if -k not in terms:
        raise InvalidParameter(f"no map-defining term of index {-k}")
    c_map, i_map = terms[-k]
    # a caller's x_of_r may be a raw node tree
    stages = _monomial_map(i_map) if x_of_r is None else (simplify(x_of_r),)
    d1, inv = differentiate(i_map), pow_(i_map, -1)
    w = add(*(mul(c, i, inv) for j, (c, i) in terms.items() if j != -k),
            mul(Fraction(-5, 16), pow_(d1, 2), pow_(i_map, -3)),
            mul(Fraction(1, 4), differentiate(d1), pow_(i_map, -2)))
    x_of_r = VAR
    for stage in stages:
        w, x_of_r = compose(w, stage), compose(x_of_r, stage)
    for term in w.terms if isinstance(w, Add) else (w,):
        head = term.factors[0] if isinstance(term, Mul) else term
        if isinstance(head, Const) and not math.isfinite(head.value):
            raise NonFiniteValue(f"W has a non-finite coefficient in its "
                                 f"term {print_expr(term, 'r')}")
    energy = 0.0 - c_map  # +0.0, not -0.0, where the coefficient is 0
    require_finite(("E", energy))
    gauge = pow_(compose(i_map, x_of_r), Fraction(1, 4))
    return SchrodingerSystem(w, (0.0, INF), ((energy, None),),
                             Provenance(gauge=gauge, x_of_r=x_of_r))


def transformed_system(family: FamilySpec, ell: int, m: int,
                       k: int) -> SchrodingerSystem:
    """Run decompose + substitute on a family eigenpair; the returned
    psi = gauge * Psi_{ell,m}(x(r)) solves -psi'' + W psi = E psi.  Its
    constant factor rides in the exponent as log: in front, it would give
    every product-rule term of psi'' a coefficient other than 1, which
    costs ``add`` a rebuilt core (a fifth of the residual's work)."""
    sub = substitute(decompose(family, m, ell), k)
    prov = sub.provenance
    psi = mul(prov.gauge, compose(wavefunction(family, ell, m), prov.x_of_r))
    scale, *rest, env = psi.factors  # the gauge's power, Psi's exp
    if isinstance(scale, Const) and scale.value > 0 and isinstance(env, Exp):
        psi = mul(*rest, exp_(add(math.log(scale.value), env.arg)))
    return replace(sub, known_eigenpairs=((sub.energy, psi),),
                   provenance=replace(prov, alpha=family.alpha,
                                      beta=family.beta))


def solve_params_quantsys(c1: float, c2: float, n: int,
                          branch) -> SchrodingerSystem:
    """The cube-root system on (0, inf) with its closed-form eigenpair.

    alpha = -2 sqrt(c1), beta = sign * 2 sqrt(c2 + sqrt(c1)(1+2n)),
    admissible when the inner radicand is nonnegative, i.e.
    n >= -c2/(2 sqrt(c1)) - 1/2; the system is transformed_system at
    ell = n, m = 0, k = +1, so E = -alpha beta/2
    = sign * 2 sqrt(c1 c2 + c1 sqrt(c1) (1+2n)).
    """
    if not c1 > 0:
        raise InvalidParameter("c1 must be positive")
    require_finite(("c1", c1), ("c2", c2))
    if n < 0:
        raise InvalidParameter("n must be a nonnegative integer")
    if branch not in ("+", "-"):
        raise InvalidParameter("branch must be '+' or '-'")
    sign = 1 if branch == "+" else -1
    rad = c2 + math.sqrt(c1) * (1 + 2 * n)
    if rad < 0:
        raise Inadmissible(
            f"c2 + sqrt(c1)(1+2n) = {rad:g} < 0 for n={n}; "
            f"need n >= {-c2 / (2 * math.sqrt(c1)) - 0.5:g}")
    system = transformed_system(FamilySpec(
        SigmaCase.ONE, -2.0 * math.sqrt(c1), sign * 2.0 * math.sqrt(rad)),
        n, 0, +1)
    return replace(system, provenance=replace(system.provenance,
                                              branch=branch))


def _negative_root(c1: float, c2: float, a: float) -> float:
    """The negative root -u of a alpha^3 - c2 alpha^2 + c1^2 (a > 0,
    c1 != 0).  h(u) = a u^3 + c2 u^2 - c1^2 is increasing and convex from
    its root on, so Newton's method decreases monotonically to it from a
    start with h >= 0 and stops at the first step that no longer lowers
    u.  For c2 > 0, h >= 0 at |c1|/sqrt(c2) and at |c1|^(2/3) / a^(1/3);
    otherwise at -c2/a + |c1|^(2/3) / a^(1/3).  Each step h/h' is taken
    as u times ((a u + c2) - (c1/u)^2) / (3 a u + 2 c2), so neither c1^2
    nor u^3 is formed ((c1/u)^2 is at most a u + c2 on the way down), and
    the root is found wherever it is a normal float.  A start that
    underflows to 0 is returned as it is."""
    cube = abs(c1) ** (2.0 / 3.0) / a ** (1.0 / 3.0)
    u = min(abs(c1) / math.sqrt(c2), cube) if c2 > 0 else cube - c2 / a
    while u > 0.0:
        r = c1 / u
        nxt = u - u * (((a * u + c2) - r * r) / (3.0 * a * u + 2.0 * c2))
        if not nxt < u:
            break
        u = nxt
    return -u


def solve_params_inverse_sqrt(c1: float, c2: float,
                              n: int) -> SchrodingerSystem:
    """The inverse-square-root system with its closed-form eigenpair.

    Eliminating beta = 2 c1/alpha from {alpha beta/2 = c1,
    beta^2/4 + alpha/2 + alpha n = c2} gives the real cubic

        f(alpha) = (n + 1/2) alpha^3 - c2 alpha^2 + c1^2 = 0,

    which has exactly one negative root for c1 != 0: f(0) = c1^2 > 0 and
    f(-inf) = -inf; f increases on (-inf, min(a*, 0)], where
    a* = 2 c2/(3n + 3/2) is its other critical point, and on
    [min(a*, 0), 0) it falls to f(0) > 0 without a zero.  That root gives
    the system on (0, inf), transformed_system at ell = n, m = 0, k = -1,
    with E = -alpha^2/4 and the sign of beta as its branch.  c1 = 0
    degenerates to the pure beta = 0 branch alpha = c2/(n + 1/2) (cubic
    factor alpha^2), flagged in the provenance, which has no admissible
    root for c2 >= 0.
    """
    require_finite(("c1", c1), ("c2", c2))
    if n < 0:
        raise InvalidParameter("n must be a nonnegative integer")
    degenerate = c1 == 0.0
    if degenerate:
        alpha, beta = c2 / (n + 0.5), 0.0
        if not alpha < 0.0:
            raise Inadmissible(
                f"no real root with alpha < 0 for c1={c1:g}, c2={c2:g}, "
                f"n={n}")
    else:
        alpha = _negative_root(c1, c2, n + 0.5)
        # a root below the normal floats is refused as beta = inf: there
        # the shift beta/sqrt(-2 alpha) in H_n's argument can overflow
        beta = 2.0 * c1 / alpha if -alpha >= sys.float_info.min else INF
    energy = -(0.5 * alpha) * (0.5 * alpha)  # alpha^2 may overflow
    if not all(map(math.isfinite, (alpha, beta, energy))):
        raise InvalidParameter(
            f"alpha, beta and E must be finite; the parameter cubic "
            f"overflows for c1={c1:g}, c2={c2:g}, n={n}")
    system = transformed_system(FamilySpec(SigmaCase.ONE, alpha, beta),
                                n, 0, -1)
    return replace(system, provenance=replace(
        system.provenance, branch="+" if beta >= 0 else "-",
        degenerate=degenerate))


def reproduce_dw(theta: float, rho_coeff: float, lam: float, which: int,
                 i_map: Expr | None = None,
                 x_of_r: Expr | None = None) -> SchrodingerSystem:
    """Transform the translated harmonic oscillator
    [-d^2/dx^2 + theta^2 x^2 + rho x + lam] phi = 0 through the generic
    pipeline; which=1 is the sqrt(2r) route, which=2 the cube-root route.

    i_map overrides the map-defining term (x^2 or x by default) with an
    arbitrary expression; x_of_r supplies the change of variable directly
    when x' = 1/sqrt(i_map(x)) has no closed form in the IR.  The
    energy is known in closed form, the eigenfunction is not: the one
    attached eigenpair is (E, None).
    """
    if which not in (1, 2):
        raise InvalidParameter("which must be 1 or 2")
    require_finite(("theta", theta), ("rho", rho_coeff), ("lambda", lam),
                   ("theta^2", theta * theta))
    k = -1 if which == 1 else 1
    terms = {1: (theta * theta, pow_(VAR, 2)), -1: (rho_coeff, VAR),
             0: (lam, ONE)}
    if i_map is not None:  # in place of the map-defining term I_{-k}
        terms[-k] = terms[-k][0], i_map
    return substitute(terms, k, x_of_r)
