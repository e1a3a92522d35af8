"""Exactly solvable Schrodinger-type systems.

A numpy-based library covering the six hypergeometric-type weight
families (their orthogonal polynomials, associated special functions,
and Schrodinger potentials via closed-form changes of variable) plus a
generator of new explicitly solvable potentials by gauge transformation
and a further change of variable.  Every closed-form result can be
cross-checked against an independent numerical oracle (adaptive
Gauss-Legendre quadrature and a Sturm-sequence finite-difference
eigensolver).

Quick start
-----------
>>> from solvable import FamilySpec, SigmaCase, potential, eigenvalue
>>> fam = FamilySpec(SigmaCase.ONE, alpha=-2.0, beta=0.0)
>>> system = potential(fam, m=0, attach_ells=(0, 1, 2))  # V(x) = x^2 - 1
>>> eigenvalue(fam, 2)
4.0

>>> from solvable import solve_params_quantsys
>>> pair = solve_params_quantsys(c1=1.0, c2=0.0, n=0, branch="+")
>>> pair.energy
2.0
"""

from .errors import (
    BisectionNoConverge, DegreeBeyondCutoff, DomainError, ExprSyntaxError,
    Inadmissible, InvalidParameter, NonFiniteValue, QuadratureNoConverge,
    SolvableError,
)
from .expr import (
    Expr, compose, differentiate, evaluate, parse, power_terms, print_expr,
    simplify,
)
from .families import (
    ALL_CASES, FamilyCutoff, FamilySpec, SigmaCase, cutoff, eigenvalue,
    weight,
)
from .polynomials import (
    Poly, classical_match, hermite_value, jacobi_value, laguerre_value,
    phi, phi_rodrigues,
)
from .specfun import (
    HmOperator, SpecialFunction, apply_hm, hm_operator, scalar_product,
    special_function,
)
from .schrodinger import (
    Provenance, SchrodingerSystem, VariableMap, potential, variable_map,
    wavefunction,
)
from .generator import (
    decompose, reproduce_dw, solve_params_inverse_sqrt, solve_params_quantsys,
    substitute, transformed_system,
)
from .oracle import (
    FDHamiltonian, eigenvalues_below, fd_hamiltonian, integrate, residual,
    residual_norm,
)

__version__ = "0.1.0"

__all__ = [
    "ALL_CASES", "BisectionNoConverge", "DegreeBeyondCutoff", "DomainError",
    "Expr", "ExprSyntaxError", "FDHamiltonian", "FamilyCutoff", "FamilySpec",
    "HmOperator", "Inadmissible", "InvalidParameter", "NonFiniteValue",
    "Poly", "Provenance", "QuadratureNoConverge", "SchrodingerSystem",
    "SigmaCase", "SolvableError", "SpecialFunction", "VariableMap",
    "apply_hm", "classical_match", "compose", "cutoff", "decompose",
    "differentiate", "eigenvalue", "eigenvalues_below", "evaluate",
    "fd_hamiltonian", "hermite_value", "hm_operator", "integrate",
    "jacobi_value", "laguerre_value", "parse", "phi", "phi_rodrigues",
    "potential", "power_terms", "print_expr", "reproduce_dw", "residual",
    "residual_norm", "scalar_product",
    "simplify", "solve_params_inverse_sqrt", "solve_params_quantsys",
    "special_function", "substitute", "transformed_system", "variable_map",
    "wavefunction", "weight",
]
