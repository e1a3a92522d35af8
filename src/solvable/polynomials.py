"""Polynomial solutions of the hypergeometric-type equation.

The degree-ell polynomial solution of

    sigma(s) y'' + tau(s) y' + lambda_ell y = 0

is constructed by a downward coefficient recursion from the monic leading
coefficient.  Writing y = sum_j c_j s^j, sigma = a s^2 + b s + c and
tau = alpha s + beta, matching the coefficient of s^j gives

    D_j c_j = -[(b j (j+1) + beta (j+1)) c_{j+1} + c (j+2)(j+1) c_{j+2}]
    D_j     = a (j (j-1) - ell (ell-1)) + alpha (j - ell)

for j = ell-1 .. 0, which is an O(ell) exact construction.  D_j equals
lambda_ell - lambda_j = (j - ell)(a (j + ell - 1) + alpha), which for
j < ell vanishes only at alpha = -a (j + ell - 1): never for an admissible
family, where alpha < 0 for a = 0 or a = -1 and ell < (1 - alpha)/2 for
a = 1.

An independent route to the same polynomials (up to normalization) is the
Rodrigues construction (1/rho) d^ell/ds^ell [sigma^ell rho], computed here
fully symbolically and used as an oracle against the recursion.  A third
route evaluates the classical Hermite/Laguerre/Jacobi counterparts via
their three-term recurrences.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import InvalidParameter, NonFiniteValue
from .expr import (
    VAR, ZERO, Const, Expr, add, differentiate, evaluate, mul, pow_,
)
from .families import (
    FamilySpec, SigmaCase, check_degree, sample_points, sample_window, weight,
)

__all__ = [
    "Poly", "phi", "phi_rodrigues", "classical_match", "MatchReport",
    "hermite_value", "laguerre_value", "jacobi_value",
]


@dataclass(frozen=True)
class Poly:
    """Dense power-basis polynomial with exact degree bookkeeping."""

    coeffs: tuple

    def __post_init__(self):
        cs = [float(c) for c in self.coeffs]
        while len(cs) > 1 and cs[-1] == 0.0:
            cs.pop()
        object.__setattr__(self, "coeffs", tuple(cs))

    @property
    def degree(self) -> int:
        if self.coeffs == (0.0,):
            return 0  # the zero polynomial, by convention
        return len(self.coeffs) - 1

    def __call__(self, s):
        acc = 0.0
        for c in reversed(self.coeffs):
            acc = acc * s + c
        return acc

    def deriv(self, order: int = 1) -> "Poly":
        cs = list(self.coeffs)
        for _ in range(order):
            cs = [j * cs[j] for j in range(1, len(cs))] or [0.0]
        return Poly(tuple(cs))

    def to_expr(self, at: Expr = VAR) -> Expr:
        """The polynomial at ``at``: the tree compose(p.to_expr(), at)."""
        terms = []
        for j, c in enumerate(self.coeffs):
            if c == 0.0:
                continue
            terms.append(mul(c, pow_(at, j)) if j else Const(c))
        return add(*terms) if terms else ZERO


def phi(family: FamilySpec, ell: int) -> Poly:
    """Monic degree-ell polynomial solution of the family equation.

    Raises NonFiniteValue at the first coefficient that is NaN or
    infinite, as when alpha is so near 0 that D_j is subnormal."""
    check_degree(family, ell)
    a, b, c = family.sigma_coeffs
    alpha, beta = family.alpha, family.beta
    cs = [0.0] * (ell + 1)
    cs[ell] = 1.0
    for j in range(ell - 1, -1, -1):
        denom = a * (j * (j - 1) - ell * (ell - 1)) + alpha * (j - ell)
        num = (b * j * (j + 1) + beta * (j + 1)) * cs[j + 1]
        if j + 2 <= ell:
            num += c * (j + 2) * (j + 1) * cs[j + 2]
        cs[j] = -num / denom
        if not math.isfinite(cs[j]):
            raise NonFiniteValue(
                f"coefficient c_{j} of phi at ell={ell} is {cs[j]:g} for "
                f"alpha={alpha:g}, beta={beta:g}")
    return Poly(tuple(cs))


def phi_rodrigues(family: FamilySpec, ell: int) -> Poly:
    """Rodrigues-construction oracle: (1/rho) d^ell [sigma^ell rho].

    Fully symbolic differentiation followed by extraction of the
    (exactly polynomial) quotient via a well-conditioned fit on the
    family's sample window.  Unnormalized: proportional to phi() with a
    nonzero constant whenever deg phi = ell.
    """
    check_degree(family, ell)
    rho = weight(family)
    work = mul(pow_(family.sigma_expr, ell), rho)
    for _ in range(ell):
        work = differentiate(work)
    quotient = mul(work, pow_(rho, -1))
    lo, hi = sample_window(family)
    if ell == 0:
        return Poly((evaluate(quotient, (lo + hi) / 2.0),))
    # Chebyshev abscissas, twice-oversampled for a stable least-squares fit
    k = np.arange(2 * (ell + 1))
    xs = 0.5 * (lo + hi) + 0.5 * (hi - lo) * np.cos(
        (2 * k + 1) * np.pi / (2 * len(k)))
    ys = np.array([evaluate(quotient, float(x)) for x in xs])
    fit = np.polynomial.Polynomial.fit(xs, ys, deg=ell).convert()
    return Poly(tuple(fit.coef))


def hermite_value(n: int, x):
    """Physicists' Hermite H_n by the three-term recurrence."""
    prev = np.ones_like(np.asarray(x, dtype=float))
    if n == 0:
        return prev
    cur = 2.0 * np.asarray(x, dtype=float)
    for k in range(1, n):
        prev, cur = cur, 2.0 * x * cur - 2.0 * k * prev
    return cur


def laguerre_value(n: int, p: float, x):
    """Generalized Laguerre L_n^p by the three-term recurrence."""
    prev = np.ones_like(np.asarray(x, dtype=float))
    if n == 0:
        return prev
    cur = 1.0 + p - np.asarray(x, dtype=float)
    for k in range(1, n):
        prev, cur = cur, ((2 * k + 1 + p - x) * cur - (k + p) * prev) / (k + 1)
    return cur


def jacobi_value(n: int, p: float, q: float, x):
    """Jacobi P_n^(p,q) by the three-term recurrence."""
    prev = np.ones_like(np.asarray(x, dtype=float))
    if n == 0:
        return prev
    cur = 0.5 * (p - q) + 0.5 * (p + q + 2) * np.asarray(x, dtype=float)
    for k in range(1, n):
        a1 = 2 * (k + 1) * (k + p + q + 1) * (2 * k + p + q)
        a2 = (2 * k + p + q + 1) * (p * p - q * q)
        a3 = (2 * k + p + q) * (2 * k + p + q + 1) * (2 * k + p + q + 2)
        a4 = 2 * (k + p) * (k + q) * (2 * k + p + q + 2)
        prev, cur = cur, ((a2 + a3 * x) * cur - a4 * prev) / a1
    return cur


@dataclass(frozen=True)
class MatchReport:
    """Proportionality fit between phi() and its classical counterpart."""

    constant: float
    max_rel_dev: float


def _classical_values(family: FamilySpec, ell: int, xs):
    al, be = family.alpha, family.beta
    case = family.sigma_case
    if case is SigmaCase.ONE:
        return hermite_value(
            ell, np.sqrt(-al / 2.0) * xs - be / np.sqrt(-2.0 * al))
    if case is SigmaCase.S:
        return laguerre_value(ell, be - 1.0, -al * xs)
    if case is SigmaCase.ONE_MINUS_S2:
        return jacobi_value(
            ell, -(al + be) / 2.0 - 1.0, (-al + be) / 2.0 - 1.0, xs)
    if case is SigmaCase.S2_MINUS_1:
        return jacobi_value(
            ell, (al - be) / 2.0 - 1.0, (al + be) / 2.0 - 1.0, -xs)
    if case is SigmaCase.S2:
        return (xs / be) ** ell * laguerre_value(
            ell, 1.0 - al - 2.0 * ell, be / xs)
    raise InvalidParameter(
        "the s^2+1 case maps to Jacobi polynomials with complex parameters")


def classical_match(family: FamilySpec, ell: int) -> MatchReport:
    """Fit the single constant relating phi() to the classical
    Hermite/Laguerre/Jacobi counterpart; report the residual."""
    p = phi(family, ell)
    xs = sample_points(family, 50)
    ours = p(xs)
    theirs = _classical_values(family, ell, xs)
    constant = float(np.dot(theirs, ours) / np.dot(ours, ours))
    dev = np.max(np.abs(theirs - constant * ours))
    scale = np.max(np.abs(theirs))
    return MatchReport(constant, float(dev / scale) if scale else float(dev))
