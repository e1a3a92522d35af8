# Generating new explicitly solvable systems.  The oscillator equation
# decomposes as C1 x^2 + C_{-1} x + C0; a change of variable with
# x'(r) = 1/sqrt(I(x)) for either term turns it into a new Schrodinger
# equation on (0, inf) whose gauge-dressed solutions are explicit:
#
#   cube-root route: V = c1 (3r/2)^(2/3) + c2 (2/(3r))^(2/3) - 5/(36 r^2)
#   sqrt route     : V = c1 / sqrt(2r)   + c2 / (2r)         - 3/(16 r^2)

import math

import numpy as np

from solvable import (
    reproduce_dw, residual_norm, solve_params_inverse_sqrt,
    solve_params_quantsys,
)
from solvable.errors import Inadmissible
from solvable.expr import evaluate, power_terms, print_expr

print("translated-oscillator transforms (theta=1, rho=0, lambda=-1):")
for which, label in ((1, "sqrt(2r)"), (2, "(3r/2)^(2/3)")):
    g = reproduce_dw(1.0, 0.0, -1.0, which)
    terms = {str(q): f"{c:+.6g}" for q, c in sorted(
        power_terms(g.potential).items()) if c != 0.0}
    print(f"  x = {label:13s}: E = {g.energy:+g}, potential terms {terms}")
print()

print("closed-form eigenpairs of the cube-root system (c1=1, c2=0):")
for n in range(4):
    for branch in "+-":
        pair = solve_params_quantsys(1.0, 0.0, n, branch)
        print(f"  n={n} branch {branch}: E = {pair.energy:+.9f} "
              f"(= {'+' if branch == '+' else '-'}2 sqrt({1 + 2 * n}))  "
              f"residual {residual_norm(pair):.1e}")
print()

print("admissibility filter at c1=1, c2=-5 (needs n >= 2):")
for n in range(4):
    try:
        pair = solve_params_quantsys(1.0, -5.0, n, "+")
        print(f"  n={n}: admissible, E = {pair.energy:+g}")
    except Inadmissible:
        print(f"  n={n}: rejected")
print()

print("inverse-sqrt system: recovering parameters through the cubic")
alpha, beta, m, ell = -2.0, 1.0, 0, 3
c1 = alpha * beta / 2.0
c2 = beta ** 2 / 4.0 + alpha / 2.0 - alpha * m + alpha * ell
print(f"  forward map: (alpha, beta, m, ell) = (-2, 1, 0, 3) "
      f"-> (c1, c2) = ({c1:g}, {c2:g})")
pair = solve_params_inverse_sqrt(c1, c2, n=ell - m)
print(f"  the one negative root: alpha = {pair.provenance.alpha:.12g}, "
      f"E = -alpha^2/4 = {pair.energy:.12g}, "
      f"residual {residual_norm(pair):.1e}")
print()

pair = solve_params_quantsys(1.0, 0.0, 0, "+")
print("ground state of the cube-root system:")
print(f"  psi(r) = {print_expr(pair.psi, 'r')}")
rs = np.array([0.5, 1.0, 2.0, 4.0])
print(f"  values at r={rs}: {evaluate(pair.psi, rs)}")
print(f"  E_0^+ = {pair.energy:g} = 2 sqrt(c1 c2 + c1^(3/2)) "
      f"= {2 * math.sqrt(1.0):g}")
