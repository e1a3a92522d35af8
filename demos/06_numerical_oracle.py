# The numerical oracle on problems with known answers: adaptive
# Gauss-Legendre quadrature over infinite intervals, and the
# Sturm-sequence finite-difference eigensolver with its exact
# eigenvalue-counting property.

import math

import numpy as np

from solvable import eigenvalues_below, fd_hamiltonian, integrate
from solvable.oracle import sturm_count

print("quadrature against closed forms:")
cases = [
    ("integral of e^(-s^2) over R", lambda s: np.exp(-s * s),
     (-math.inf, math.inf), math.sqrt(math.pi)),
    ("integral of s e^(-s) over (0, inf)", lambda s: s * np.exp(-s),
     (0.0, math.inf), 1.0),
    ("integral of 1/sqrt(s) over (0, 1)", lambda s: 1.0 / np.sqrt(s),
     (0.0, 1.0), 2.0),
    ("integral of (1+s)^(-3) over (0, inf)", lambda s: (1 + s) ** -3.0,
     (0.0, math.inf), 0.5),
]
for label, f, interval, exact in cases:
    res = integrate(f, interval, 1e-10)
    print(f"  {label:38s} = {res.value:.12f}  "
          f"(true error {abs(res.value - exact):.1e}, "
          f"estimate {res.error_estimate:.1e}, {res.nodes} nodes)")
print()

print("particle in a box on (0, pi): E_n = n^2")
ham = fd_hamiltonian(lambda x: np.zeros_like(x), 0.0, math.pi, 2000)
print("  numeric:", [f"{e:.5f}" for e in eigenvalues_below(ham, 17.0)])
print()

print("Sturm counting is exact: eigenvalues below E")
for e in (0.5, 2.0, 5.0, 10.0):
    print(f"  count(E={e:4g}) = {int(sturm_count(ham, e)[0])}")
print()

print("harmonic oscillator x^2 - 1: raw vs Richardson-extrapolated")


def oscillator_levels(n):
    return eigenvalues_below(
        fd_hamiltonian(lambda x: x * x - 1.0, -10.0, 10.0, n), 7.0)


fine, coarse = oscillator_levels(2000), oscillator_levels(1000)
# the FD error falls as h^2, so (4 E_h - E_2h) / 3 cancels its leading term
for ell, (f_, c_) in enumerate(zip(fine, coarse)):
    e_ = (4.0 * f_ - c_) / 3.0
    print(f"  ell={ell}: raw {f_:.8f}  extrapolated {e_:.8f}  "
          f"(exact {2 * ell})")
