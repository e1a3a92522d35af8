"""Generator of new explicitly solvable Schrodinger-type systems.

Pipeline, in order:

1. eliminate_first_derivative: gauge away the B d/dr term of
   [A d^2/dr^2 + B d/dr + C] psi = 0 with h = exp(integral B/(2A)),
   leaving [d^2/dr^2 + Q] (h psi) = 0,
   Q = (4AC - 2AB' + 2BA' - B^2)/(4A^2).

2. decompose: write the oscillator-family Schrodinger equation as
   [-d^2/dx^2 + C1*I1(x) + Cm1*Im1(x) + C0] Psi = 0 with I1 = x^2,
   Im1 = x, C1 = alpha^2/4, Cm1 = alpha*beta/2,
   C0 = beta^2/4 + alpha/2 - alpha*m + alpha*ell.

3. substitute: apply r -> x(r) with x'(r) = 1/sqrt(I(x(r))) for the
   term of index -k (the index k names the term that SURVIVES in the
   transformed potential: k=+1 gives the cube-root map
   x = (3r/2)^(2/3) and correction -5/(36 r^2); k=-1 gives x = sqrt(2r)
   and correction -3/(16 r^2)).  The transformed function
   (I(x(r)))^(1/4) Psi(x(r)) solves -u'' + W(r) u = E u with
   E = -(coefficient of the map-defining term).

4. solve_params_*: invert the parameter identifications to produce
   closed-form eigenpairs of the two target potentials

     c1 (3r/2)^(2/3) + c2 (2/(3r))^(2/3) - 5/(36 r^2)      (cube root)
     c1 / sqrt(2r)   + c2 / (2r)         - 3/(16 r^2)      (square root)

   via explicit square roots (first case) or the one negative root of a
   real cubic in alpha, found by a monotone Newton iteration (second
   case, E = -alpha^2/4).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .errors import (
    Inadmissible, InvalidParameter, MapNotClosedForm, NoAdmissibleRoot,
    NonIntegrableGauge, Unimplemented, require_finite,
)
from .expr import (
    VAR, Const, Expr, add, as_fraction, compose, differentiate, evaluate,
    exp_, fun_, mul, pow_, power_terms, print_expr, simplify,
)
from .families import FamilySpec, SigmaCase
from .polynomials import hermite_poly
from .schrodinger import Provenance, SchrodingerSystem, wavefunction

__all__ = [
    "SecondOrderODE", "EliminationResult", "TermDecomposition",
    "SubstitutionMap", "SubstitutionResult", "eliminate_first_derivative",
    "decompose", "substitute", "transformed_system", "solve_params_quantsys",
    "solve_params_inverse_sqrt", "reproduce_dw", "boundary_ratio",
]

INF = math.inf


@dataclass(frozen=True)
class SecondOrderODE:
    """[A(r) d^2/dr^2 + B(r) d/dr + C(r)] psi = 0 with A nonvanishing."""

    a: Expr
    b: Expr
    c: Expr
    interval: tuple = (0.0, INF)


@dataclass(frozen=True)
class EliminationResult:
    gauge: Expr                 # h(r) = exp(integral B/(2A))
    normalized_potential: Expr  # Q(r); [d^2/dr^2 + Q](h psi) = 0


def antiderivative_of_powers(e: Expr):
    """Closed-form antiderivative of a sum of constant multiples of
    rational powers of the variable (the 1/r term integrates to log r);
    None when e is not of that shape."""
    terms = power_terms(e)
    if terms is None:
        return None
    parts = []
    for q, c in terms.items():
        if c == 0.0:
            continue
        if q == -1:
            parts.append(mul(c, fun_("log", VAR)))
        else:
            parts.append(mul(c / float(q + 1), pow_(VAR, q + 1)))
    return add(*parts) if parts else Const(0.0)


def eliminate_first_derivative(ode: SecondOrderODE,
                               antiderivative: Expr | None = None
                               ) -> EliminationResult:
    """Remove the first-order term by the gauge factor h = exp(int B/2A).

    The integral is found symbolically for B/(2A) a sum of rational
    powers of r; for anything else the caller must supply the
    antiderivative or NonIntegrableGauge is raised.
    """
    g = mul(ode.b, pow_(mul(2, ode.a), -1))
    primitive = antiderivative if antiderivative is not None \
        else antiderivative_of_powers(g)
    if primitive is None:
        raise NonIntegrableGauge(
            "no closed-form antiderivative for B/(2A); supply one")
    # A, B, C and the antiderivative are the caller's trees, which may be
    # raw node trees; the stored gauge and Q are in normal form
    gauge = simplify(exp_(primitive))
    da = differentiate(ode.a)
    db = differentiate(ode.b)
    q = simplify(mul(
        add(mul(4, ode.a, ode.c), mul(-2, ode.a, db), mul(2, ode.b, da),
            mul(-1, pow_(ode.b, 2))),
        pow_(mul(4, pow_(ode.a, 2)), -1)))
    return EliminationResult(gauge, q)


@dataclass(frozen=True)
class TermDecomposition:
    """C1*I1(x) + Cm1*Im1(x) + C0(ell); x is the variable of i_plus/i_minus."""

    i_plus: Expr            # I_{+1}(x)
    i_minus: Expr           # I_{-1}(x)
    c_plus: float           # C_{+1}(alpha, beta, m)
    c_minus: float          # C_{-1}(alpha, beta, m)
    c_zero: object          # ell -> C_0(alpha, beta, m, ell)

    def term(self, k: int):
        if k == 1:
            return self.c_plus, self.i_plus
        if k == -1:
            return self.c_minus, self.i_minus
        raise InvalidParameter("k must be +1 or -1")

    def reassemble(self, ell: int) -> Expr:
        """The potential-minus-eigenvalue this decomposition encodes."""
        return add(mul(self.c_plus, self.i_plus),
                   mul(self.c_minus, self.i_minus),
                   self.c_zero(ell))


def decompose(family: FamilySpec, m: int) -> TermDecomposition:
    """Term decomposition of the family's Schrodinger equation.

    Shipped for the constant-sigma (oscillator) case; the other five
    families would need their own I/C tables.
    """
    if family.sigma_case is not SigmaCase.ONE:
        raise Unimplemented(
            "term decomposition is only shipped for the sigma = 1 case")
    al, be = family.alpha, family.beta
    return TermDecomposition(
        i_plus=pow_(VAR, 2),
        i_minus=VAR,
        c_plus=al * al / 4.0,
        c_minus=al * be / 2.0,
        c_zero=lambda ell: be * be / 4.0 + al / 2.0 - al * m + al * ell)


@dataclass(frozen=True)
class SubstitutionMap:
    """r -> x(r) with x'(r) = 1/sqrt(I(x(r))) for the map-defining term."""

    k: int                  # index of the SURVIVING term
    x_of_r: Expr
    i_map: Expr             # I_{-k}, the map-defining term


def _solve_monomial_map(i_map: Expr) -> Expr:
    """Closed-form x(r) solving x' = 1/sqrt(i_map(x)) for i_map = x^p."""
    terms = power_terms(i_map)
    if terms is None:
        raise MapNotClosedForm(
            f"cannot solve x' = 1/sqrt(I) for I = {print_expr(i_map)}")
    live = {q: c for q, c in terms.items() if c != 0.0}
    if len(live) != 1:
        raise MapNotClosedForm("map-defining term must be a single monomial")
    (p, c), = live.items()
    if c != 1.0 or p == -2:
        raise MapNotClosedForm(
            "map solvable only for a monic monomial with exponent != -2")
    # x^{p/2} dx = dr  =>  x = (((p+2)/2) r)^{2/(p+2)}
    scale = as_fraction(p + 2) / 2
    return pow_(mul(scale, VAR), 2 / as_fraction(p + 2))


@dataclass(frozen=True)
class SubstitutionResult:
    map: SubstitutionMap
    energy: float           # E = -(coefficient of the map-defining term)
    gauge: Expr             # (I(x(r)))^{1/4}

    def potential(self, dec: TermDecomposition, ell: int) -> Expr:
        k = self.map.k
        c_keep, i_keep = dec.term(k)
        x_of_r = self.map.x_of_r
        ix = compose(self.map.i_map, x_of_r)
        ikx = compose(i_keep, x_of_r)
        d1x = compose(differentiate(self.map.i_map), x_of_r)
        d2x = compose(differentiate(differentiate(self.map.i_map)), x_of_r)
        return add(
            mul(c_keep, ikx, pow_(ix, -1)),
            mul(dec.c_zero(ell), pow_(ix, -1)),
            mul(Fraction(-5, 16), pow_(d1x, 2), pow_(ix, -3)),
            mul(Fraction(1, 4), d2x, pow_(ix, -2)),
        )


def substitute(dec: TermDecomposition, k: int,
               x_of_r: Expr | None = None) -> SubstitutionResult:
    """Change of variable killing the index -k term.

    k = +1 keeps C1*I1 and uses the map solving x' = 1/sqrt(I_{-1});
    k = -1 keeps C_{-1}*I_{-1} and uses x' = 1/sqrt(I_{+1}).  For the
    oscillator decomposition these are x = (3r/2)^(2/3) and x = sqrt(2r)
    with corrections -5/(36 r^2) and -3/(16 r^2) respectively.
    """
    if k not in (1, -1):
        raise InvalidParameter("k must be +1 or -1")
    c_map, i_map = dec.term(-k)
    if x_of_r is None:
        x_of_r = _solve_monomial_map(i_map)
    # a caller's x_of_r may be a raw node tree; compose passes it through
    smap = SubstitutionMap(k, simplify(x_of_r), i_map)
    gauge = pow_(compose(i_map, smap.x_of_r), Fraction(1, 4))
    return SubstitutionResult(smap, -c_map, gauge)


def transformed_system(family: FamilySpec, ell: int, m: int,
                       k: int) -> SchrodingerSystem:
    """Run decompose + substitute on a family eigenpair; the returned
    psi = gauge * Psi_{ell,m}(x(r)) solves -psi'' + W psi = E psi."""
    dec = decompose(family, m)
    sub = substitute(dec, k)
    w = sub.potential(dec, ell)
    psi_x = wavefunction(family, ell, m)
    psi_r = mul(sub.gauge, compose(psi_x, sub.map.x_of_r))
    return SchrodingerSystem(
        w, (0.0, INF), ((sub.energy, psi_r),),
        Provenance(family.alpha, family.beta, gauge=sub.gauge))


def cuberoot_potential(c1: float, c2: float) -> Expr:
    """c1 (3r/2)^(2/3) + c2 (2/(3r))^(2/3) - 5/(36 r^2)."""
    return add(
        mul(c1, pow_(mul(Fraction(3, 2), VAR), Fraction(2, 3))),
        mul(c2, pow_(mul(Fraction(3, 2), VAR), Fraction(-2, 3))),
        mul(Fraction(-5, 36), pow_(VAR, -2)))


def inverse_sqrt_potential(c1: float, c2: float) -> Expr:
    """c1 / sqrt(2r) + c2 / (2r) - 3/(16 r^2)."""
    return add(
        mul(c1, pow_(mul(2, VAR), Fraction(-1, 2))),
        mul(c2 / 2.0, pow_(VAR, -1)),
        mul(Fraction(-3, 16), pow_(VAR, -2)))


def solve_params_quantsys(c1: float, c2: float, n: int,
                          branch) -> SchrodingerSystem:
    """The cube-root system on (0, inf) with its closed-form eigenpair.

    alpha = -2 sqrt(c1), beta = sign * 2 sqrt(c2 + sqrt(c1)(1+2n)),
    E = sign * 2 sqrt(c1 c2 + c1 sqrt(c1) (1+2n)); admissible when the
    inner radicand is nonnegative, i.e. n >= -c2/(2 sqrt(c1)) - 1/2.
    """
    if not c1 > 0:
        raise InvalidParameter("c1 must be positive")
    require_finite(("c1", c1), ("c2", c2))
    if n < 0:
        raise InvalidParameter("n must be a nonnegative integer")
    if branch not in ("+", "-", 1, -1):
        raise InvalidParameter("branch must be '+' or '-'")
    sign = 1 if branch in ("+", 1) else -1
    rad = c2 + math.sqrt(c1) * (1 + 2 * n)
    if rad < 0:
        raise Inadmissible(
            f"c2 + sqrt(c1)(1+2n) = {rad:g} < 0 for n={n}; "
            f"need n >= {-c2 / (2 * math.sqrt(c1)) - 0.5:g}")
    alpha = -2.0 * math.sqrt(c1)
    beta = sign * 2.0 * math.sqrt(rad)
    # equals c1 * rad exactly; may round below zero at the boundary
    rad2 = max(c1 * c2 + c1 * math.sqrt(c1) * (1 + 2 * n), 0.0)
    require_finite(("c1 c2 + c1^(3/2) (1+2n)", rad2))
    energy = sign * 2.0 * math.sqrt(rad2)
    # r^{1/6} exp(-A r^{4/3} + sign B r^{2/3}) H_n(q r^{2/3} - sign d)
    amp_a = 0.75 * (1.5 ** (1.0 / 3.0)) * math.sqrt(c1)
    amp_b = (2.25 ** (1.0 / 3.0)) * math.sqrt(rad)
    herm_q = (c1 ** 0.25) * (2.25 ** (1.0 / 3.0))
    herm_d = math.sqrt(rad) / (c1 ** 0.25)
    r23 = pow_(VAR, Fraction(2, 3))
    psi = mul(
        pow_(VAR, Fraction(1, 6)),
        exp_(add(mul(-amp_a, pow_(VAR, Fraction(4, 3))),
                 mul(sign * amp_b, r23))),
        compose(hermite_poly(n).to_expr(),
                add(mul(herm_q, r23), -sign * herm_d)))
    return SchrodingerSystem(
        cuberoot_potential(c1, c2), (0.0, INF), ((energy, psi),),
        Provenance(alpha, beta, "+" if sign > 0 else "-"))


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
    the system on (0, inf) with the eigenpair E = -alpha^2/4.  c1 = 0
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
            raise NoAdmissibleRoot(
                f"no real root with alpha < 0 for c1={c1:g}, c2={c2:g}, "
                f"n={n}")
    else:
        alpha = _negative_root(c1, c2, n + 0.5)
        # a root that underflows to 0 leaves beta = 2 c1/alpha infinite
        beta = 2.0 * c1 / alpha if alpha < 0.0 else INF
    energy = -(0.5 * alpha) * (0.5 * alpha)  # alpha^2 may overflow
    if not all(map(math.isfinite, (alpha, beta, energy))):
        raise InvalidParameter(
            f"alpha, beta and E must be finite; the parameter cubic "
            f"overflows for c1={c1:g}, c2={c2:g}, n={n}")
    # r^{1/4} exp(alpha r/2 + (beta/sqrt 2) sqrt r) H_n(...)
    sqr = pow_(VAR, Fraction(1, 2))
    arg = add(mul(math.sqrt(-alpha), sqr), -beta / math.sqrt(-2.0 * alpha))
    psi = mul(
        pow_(VAR, Fraction(1, 4)),
        exp_(add(mul(alpha / 2.0, VAR), mul(beta / math.sqrt(2.0), sqr))),
        compose(hermite_poly(n).to_expr(), arg))
    return SchrodingerSystem(
        inverse_sqrt_potential(c1, c2), (0.0, INF), ((energy, psi),),
        Provenance(alpha, beta, "+" if beta >= 0 else "-", degenerate))


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
    i_plus, i_minus = pow_(VAR, 2), VAR
    if i_map is not None:
        if k == -1:
            i_plus = i_map
        else:
            i_minus = i_map
    dec = TermDecomposition(
        i_plus=i_plus, i_minus=i_minus,
        c_plus=theta * theta, c_minus=rho_coeff,
        c_zero=lambda ell: lam)
    sub = substitute(dec, k, x_of_r)
    w = sub.potential(dec, 0)
    return SchrodingerSystem(w, (0.0, INF), ((sub.energy, None),),
                             Provenance(gauge=sub.gauge))


def boundary_ratio(pair, r0: float, r1: float) -> float:
    """psi(r0)/psi(r1) for matching a finite-difference wall to the known
    near-origin behavior of a closed-form eigenfunction; NaN or +-inf,
    without a warning, where psi overflows or vanishes at r1."""
    with np.errstate(divide="ignore", invalid="ignore"):
        return float(np.divide(evaluate(pair.psi, r0),
                               evaluate(pair.psi, r1)))
