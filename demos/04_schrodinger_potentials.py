# From weighted families to Schrodinger operators: the change of
# variable with dx/ds = 1/sqrt(sigma) turns each family into
# -d^2/dx^2 + V_m(x), whose eigenfunctions sqrt(kappa rho) F_{ell,m} keep
# the polynomial eigenvalues.  The finite-difference oracle confirms the
# analytic spectrum without touching the symbolic pipeline.

import numpy as np

from solvable import (
    FamilySpec, SigmaCase, eigenvalue, eigenvalues_below, fd_hamiltonian,
    potential, residual, variable_map, wavefunction,
)
from solvable.expr import evaluate, print_expr

# the sigma = 1 family is the (shifted) harmonic oscillator
fam = FamilySpec(SigmaCase.ONE, -2.0, 0.0)
system = potential(fam, 0, attach_ells=(0, 1, 2, 3))
print("V_0(x) for sigma=1, alpha=-2, beta=0 (analytically x^2 - 1):")
xs = np.linspace(-2, 2, 5)
print("  x     :", xs)
print("  V(x)  :", evaluate(system.potential, xs))
print()

print("attached eigenpairs and their pointwise residuals at x=0.7:")
for lam, psi in system.known_eigenpairs:
    res = residual(system.potential, lam, psi, 0.7)
    print(f"  lambda={lam:g}  psi={print_expr(psi):40s} residual {res:.1e}")
print()

print("finite-difference spectrum on [-10, 10], N=4000 vs 2*ell:")
ham = fd_hamiltonian(system.potential, -10.0, 10.0, 4000)
for ell, e in enumerate(eigenvalues_below(ham, 9.0)):
    print(f"  ell={ell}: numeric {e:.6f}   analytic {eigenvalue(fam, ell):g}")
print()

# a genuinely curved example: sigma = s^2 maps through s = e^x
fam2 = FamilySpec(SigmaCase.S2, -7.0, 1.0)
vmap = variable_map(fam2)
print(f"sigma = s^2: s(x) = {print_expr(vmap.inverse)}, image {vmap.image}")
system2 = potential(fam2, 0, attach_ells=(0, 1, 2, 3))
print(f"V_0(x) = {print_expr(system2.potential)[:72]}...")
for lam, psi in system2.known_eigenpairs:
    res = np.max(np.abs(residual(system2.potential, lam, psi,
                                 np.linspace(-1.5, 1.5, 25))))
    print(f"  lambda={lam:g}: max residual {res:.1e}")
print()

psi = wavefunction(fam2, 2, 1)
print(f"Psi_(2,1)(x) = {print_expr(psi)[:72]}...")
