"""Polynomial solutions of the hypergeometric-type equation.

The degree-ell polynomial solution of

    sigma(s) y'' + tau(s) y' + lambda_ell y = 0

is constructed by a downward coefficient recursion from the monic leading
coefficient.  Writing y = sum_j c_j s^j, sigma = a s^2 + b s + c and
tau = alpha s + beta, matching the coefficient of s^j gives

    D_j c_j = -[(b j (j+1) + beta (j+1)) c_{j+1} + c (j+2)(j+1) c_{j+2}]
    D_j     = a (j (j-1) - ell (ell-1)) + alpha (j - ell)

for j = ell-1 .. 0, which is an O(ell) exact construction.  D_j equals
lambda_ell - lambda_j, so it can only vanish when two eigenvalues
coincide; that degenerate case is surfaced as an error instead of
silently returning a lower-degree solution.

An independent route to the same polynomials (up to normalization) is the
Rodrigues construction (1/rho) d^ell/ds^ell [sigma^ell rho], computed here
fully symbolically and used as an oracle against the recursion.  A third
route evaluates the classical Hermite/Laguerre/Jacobi counterparts via
their three-term recurrences.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import expr
from .errors import DegenerateRecursion, UnsupportedCorrespondence
from .expr import VAR, Expr, add, differentiate, evaluate, mul, pow_
from .families import (
    FamilySpec, SigmaCase, check_degree, sample_window, weight,
)

__all__ = [
    "Poly", "phi", "phi_rodrigues", "classical_match", "MatchReport",
    "hermite_value", "laguerre_value", "jacobi_value", "hermite_poly",
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

    def __add__(self, other):
        other = other if isinstance(other, Poly) else Poly((float(other),))
        n = max(len(self.coeffs), len(other.coeffs))
        out = [0.0] * n
        for i, c in enumerate(self.coeffs):
            out[i] += c
        for i, c in enumerate(other.coeffs):
            out[i] += c
        return Poly(tuple(out))

    def __mul__(self, other):
        if isinstance(other, (int, float)):
            return Poly(tuple(other * c for c in self.coeffs))
        out = [0.0] * (len(self.coeffs) + len(other.coeffs) - 1)
        for i, a in enumerate(self.coeffs):
            for j, b in enumerate(other.coeffs):
                out[i + j] += a * b
        return Poly(tuple(out))

    __rmul__ = __mul__

    def __sub__(self, other):
        return self + (-1.0) * other

    def deriv(self, order: int = 1) -> "Poly":
        cs = list(self.coeffs)
        for _ in range(order):
            cs = [j * cs[j] for j in range(1, len(cs))] or [0.0]
        return Poly(tuple(cs))

    def to_expr(self) -> Expr:
        terms = []
        for j, c in enumerate(self.coeffs):
            if c == 0.0:
                continue
            terms.append(mul(c, pow_(VAR, j)) if j else expr.Const(c))
        return add(*terms) if terms else expr.ZERO


def phi(family: FamilySpec, ell: int) -> Poly:
    """Monic degree-ell polynomial solution of the family equation."""
    check_degree(family, ell)
    a, b, c = family.sigma_coeffs
    alpha, beta = family.alpha, family.beta
    cs = [0.0] * (ell + 1)
    cs[ell] = 1.0
    for j in range(ell - 1, -1, -1):
        denom = a * (j * (j - 1) - ell * (ell - 1)) + alpha * (j - ell)
        if denom == 0.0:
            raise DegenerateRecursion(
                f"eigenvalue collision at j={j} for ell={ell}")
        num = (b * j * (j + 1) + beta * (j + 1)) * cs[j + 1]
        if j + 2 <= ell:
            num += c * (j + 2) * (j + 1) * cs[j + 2]
        cs[j] = -num / denom
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


def hermite_poly(n: int) -> Poly:
    """Coefficients of the physicists' Hermite polynomial H_n."""
    prev, cur = Poly((1.0,)), Poly((0.0, 2.0))
    if n == 0:
        return prev
    for k in range(1, n):
        prev, cur = cur, Poly((0.0, 2.0)) * cur - (2.0 * k) * prev
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
    raise UnsupportedCorrespondence(
        "the s^2+1 case maps to Jacobi polynomials with complex parameters")


def classical_match(family: FamilySpec, ell: int) -> MatchReport:
    """Fit the single constant relating phi() to the classical
    Hermite/Laguerre/Jacobi counterpart; report the residual."""
    p = phi(family, ell)
    xs = np.linspace(*sample_window(family), 50)
    ours = p(xs)
    theirs = _classical_values(family, ell, xs)
    constant = float(np.dot(theirs, ours) / np.dot(ours, ours))
    dev = np.max(np.abs(theirs - constant * ours))
    scale = np.max(np.abs(theirs))
    return MatchReport(constant, float(dev / scale) if scale else float(dev))
