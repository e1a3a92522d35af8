"""Acceptance suite: one callable per criterion, shared by the CLI
``acceptance`` subcommand and the pytest acceptance module.

Each criterion returns (passed, detail); run_all runs all ten in order
and wraps each outcome, with its elapsed seconds, in a CriterionResult.
Criterion 2 runs the finite s^2 - 1 family at beta = 10 (its listed
companion beta = 1 violates the -beta < alpha < 0 admissibility
constraint and is rejected by construction, see the family tests).
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .errors import (
    DegreeBeyondCutoff, Inadmissible, InvalidParameter, NonFiniteValue,
)
from .expr import evaluate, power_terms, mul, pow_, exp_, VAR
from .families import FamilySpec, SigmaCase, cutoff, eigenvalue, sample_points
from .generator import (
    decompose, reproduce_dw, solve_params_inverse_sqrt, solve_params_quantsys,
)
from .oracle import (
    eigenvalues_below, fd_hamiltonian, fd_nodes, indicial_grading,
    integrate, residual_norm,
)
from .polynomials import phi, phi_rodrigues
from .schrodinger import (
    potential, potential_coefficients, rounded, variable_map, wavefunction,
)
from .specfun import apply_hm, hm_operator, scalar_product, special_function

__all__ = ["CriterionResult", "run_all", "CRITERIA", "ACCEPTANCE_FAMILIES",
           "boundary_ratio", "cuberoot_containment", "family_spectrum",
           "orthogonality_rows"]

# representative admissible parameters per family; the s^2-1 row is run
# at beta = 10 because -beta < alpha < 0 fails for the nominal beta = 1
ACCEPTANCE_FAMILIES = (
    (SigmaCase.ONE, -2.0, 1.0),
    (SigmaCase.S, -1.0, 2.0),
    (SigmaCase.ONE_MINUS_S2, -5.0, 1.0),
    (SigmaCase.S2_MINUS_1, -7.0, 10.0),
    (SigmaCase.S2, -7.0, 1.0),
    (SigmaCase.S2_PLUS_1, -5.0, 1.0),
)


@dataclass(frozen=True)
class CriterionResult:
    index: int
    name: str
    passed: bool
    detail: str
    seconds: float


def _families():
    return [FamilySpec(case, a, b) for case, a, b in ACCEPTANCE_FAMILIES]


def family_spectrum(fam, m, lo, hi, n_sub, e_max=None):
    """(i, E_numeric, nearest lambda_ell, |difference|) for each FD
    eigenvalue of V_m on [lo, hi] with n_sub subintervals below e_max;
    the closed forms are lambda_ell for the first 16 ell below the cutoff,
    and e_max defaults to half a unit above the sixth of them, or to the
    edge of the continuum, V_m's limit as s -> +inf for quadratic sigma, if
    lower.  The window must lie strictly inside the family's x interval,
    and some eigenvalue must lie below e_max."""
    system = potential(fam, m)
    a, b = system.interval
    if not (a < lo and hi < b):
        raise InvalidParameter(
            f"need the window [{lo:g}, {hi:g}] strictly inside the x "
            f"interval ({a:g}, {b:g})")
    ham = fd_hamiltonian(system.potential, lo, hi, n_sub)
    analytic = [eigenvalue(fam, ell)
                for ell in range(cutoff(fam).top_degree(15) + 1)]
    if e_max is None:
        e_max = analytic[min(5, len(analytic) - 1)] + 0.5
        if fam.sigma_coeffs[0] and fam.interval[1] == math.inf:
            e_max = min(e_max, rounded(potential_coefficients(fam, m)[0]))
    rows = []
    for i, e in enumerate(eigenvalues_below(ham, e_max)):
        nearest = min(analytic, key=lambda a: abs(a - e))
        rows.append((i, e, nearest, abs(e - nearest)))
    if not rows:
        raise InvalidParameter(
            f"no finite-difference eigenvalue lies below e_max={e_max:g}")
    return rows


def criterion_1_oscillator_spectrum():
    """FD spectrum of V_0 = x^2 - 1 matches 2*ell to 5e-4 in under 5 s."""
    t0 = time.time()
    fam = FamilySpec(SigmaCase.ONE, -2.0, 0.0)
    rows = family_spectrum(fam, 0, -10.0, 10.0, 4000, e_max=9.0)
    errs = [abs(e - 2.0 * ell) for ell, e, _, _ in rows[:5]]
    elapsed = time.time() - t0
    ok = len(rows) >= 5 and max(errs) <= 5e-4 and elapsed < 5.0
    return ok, f"max|dE|={max(errs):.2e} (tol 5e-4), {elapsed:.2f}s (cap 5s)"


def _hm_worst(fam, top):
    """Largest |H_m F_{ell,m} - lambda_ell F_{ell,m}| / (1 + |lambda_ell
    F_{ell,m}|) over the family's 100 sample points, ell <= top,
    m <= ell."""
    pts = sample_points(fam, 100)
    worst = 0.0
    for ell in range(top + 1):
        lam = eigenvalue(fam, ell)
        for m in range(ell + 1):
            sf = special_function(fam, ell, m)
            want = lam * sf(pts)
            got = apply_hm(hm_operator(fam, m), sf, pts)
            worst = max(worst, np.max(np.abs(got - want)
                                      / (1.0 + np.abs(want))))
    return worst


def criterion_2_operator_residuals():
    """H_m eigenrelation residual <= 1e-8 over 100 points, all families,
    ell <= min(L, 8), m <= ell, in under 10 s."""
    t0 = time.time()
    worst = 0.0
    for fam in _families():
        top = cutoff(fam).top_degree(8)
        worst = max(worst, _hm_worst(fam, top))
    elapsed = time.time() - t0
    ok = worst <= 1e-8 and elapsed < 10.0
    return ok, (f"worst residual {worst:.2e} (tol 1e-8), "
                f"{elapsed:.2f}s (cap 10s); s^2-1 run at beta=10")


def criterion_3_rodrigues():
    """Recursion and Rodrigues constructions proportional to 1e-9."""
    worst = 0.0
    for fam in _families():
        top = cutoff(fam).top_degree(5)
        xs = sample_points(fam, 50)
        for ell in range(top + 1):
            p = phi(fam, ell)(xs)
            q = phi_rodrigues(fam, ell)(xs)
            const = np.dot(q, p) / np.dot(p, p)
            dev = np.max(np.abs(q - const * p)) / np.max(np.abs(q))
            worst = max(worst, dev)
    return worst <= 1e-9, f"worst pointwise deviation {worst:.2e} (tol 1e-9)"


def orthogonality_rows(fam, m, top):
    """(ell, k, inner_s, inner_x, route_gap) for m <= ell < k <= top: the
    inner product of F_{ell,m} and F_{k,m} under the weight in s and of
    Psi_{ell,m} and Psi_{k,m} in x, both divided by the norms in s, and
    |inner_s - inner_x|."""
    ells = range(m, top + 1)
    fns = {ell: special_function(fam, ell, m) for ell in ells}
    norms = {ell: math.sqrt(scalar_product(fam, f, f))
             for ell, f in fns.items()}
    psis = {ell: wavefunction(fam, ell, m) for ell in ells}
    image = variable_map(fam).image
    rows = []
    for ell in ells:
        for k in range(ell + 1, top + 1):
            scale = norms[ell] * norms[k]
            if not 0.0 < scale < math.inf:
                raise NonFiniteValue(
                    f"the norms of F_({ell},{m}) and F_({k},{m}) multiply "
                    f"to {scale:g}, so no inner product can be normalized")
            f, g = fns[ell], fns[k]
            inner_s = scalar_product(fam, lambda s: f(s) / scale, g)
            pe, pk = psis[ell], psis[k]
            inner_x = integrate(
                lambda x: evaluate(pe, x) * evaluate(pk, x) / scale,
                image, 1e-9).value
            rows.append((ell, k, inner_s, inner_x, abs(inner_s - inner_x)))
    return rows


def criterion_4_orthogonality():
    """Normalized inner products <= 1e-8 for ell != k, in both the
    weighted s coordinate and the x coordinate, the two routes agreeing."""
    worst_inner = 0.0
    worst_gap = 0.0
    for fam in _families():
        top = cutoff(fam).top_degree(6)
        for m in range(min(3, top) + 1):
            for *_, inner_s, inner_x, gap in orthogonality_rows(fam, m, top):
                worst_inner = max(worst_inner, abs(inner_s), abs(inner_x))
                worst_gap = max(worst_gap, gap)
    ok = worst_inner <= 1e-8 and worst_gap <= 1e-8
    return ok, (f"worst normalized inner product {worst_inner:.2e}, "
                f"route disagreement {worst_gap:.2e} (tol 1e-8)")


def criterion_5_generated_eigenpairs():
    """Closed-form eigenpairs of the cube-root system: residual <= 1e-8
    on [1e-3, 30] and E = +-2 sqrt(1+2n) to 1e-12, n = 0..3."""
    worst_res = 0.0
    worst_de = 0.0
    for n in range(4):
        for branch, sgn in (("+", 1.0), ("-", -1.0)):
            p = solve_params_quantsys(1.0, 0.0, n, branch)
            worst_res = max(worst_res, residual_norm(p))
            worst_de = max(worst_de,
                           abs(p.energy - sgn * 2.0 * math.sqrt(1 + 2 * n)))
    ok = worst_res <= 1e-8 and worst_de <= 1e-12
    return ok, (f"worst residual {worst_res:.2e} (tol 1e-8), "
                f"worst |dE| {worst_de:.2e} (tol 1e-12)")


def criterion_6_admissibility():
    """(c1=1, c2=-5) rejects n in {0, 1} and accepts n=2 with E=0."""
    rejected = []
    for n in (0, 1):
        try:
            solve_params_quantsys(1.0, -5.0, n, "+")
            rejected.append(False)
        except Inadmissible:
            rejected.append(True)
    p = solve_params_quantsys(1.0, -5.0, 2, "+")
    ok = all(rejected) and p.energy == 0.0
    return ok, (f"n=0,1 rejected: {rejected}, E_2+ = {p.energy:g} (exact 0)")


def criterion_7_dw_reproduction():
    """theta=1, rho=0, lambda=-1 through the sqrt route: coefficient
    pattern (0, -1/2, -3/16, E=-1) and ground state r^(1/4) e^(-r)."""
    g = reproduce_dw(1.0, 0.0, -1.0, which=1)
    t = {q: c for q, c in power_terms(g.potential).items() if c != 0.0}
    pattern_ok = (
        abs(t.get(Fraction(-1, 2), 0.0)) <= 1e-14
        and abs(t.get(Fraction(-1), 0.0) + 0.5) <= 1e-14
        and abs(t.get(Fraction(-2), 0.0) + 3.0 / 16.0) <= 1e-14
        and abs(g.energy + 1.0) <= 1e-14)
    psi = mul(pow_(VAR, 0.25), exp_(mul(-1, VAR)))
    res = residual_norm(g, (g.energy, psi))
    ok = pattern_ok and res <= 1e-10
    return ok, (f"pattern match: {pattern_ok}, ground-state residual "
                f"{res:.2e} (tol 1e-10)")


def criterion_8_cubic_round_trip():
    """(alpha=-2, beta=1, m=0, ell=3) -> (c1=-1, c2=-6.75) -> recover
    alpha=-2 within 1e-10 and E=-1 within 1e-12."""
    m, ell = 0, 3
    dec = decompose(FamilySpec(SigmaCase.ONE, -2.0, 1.0), m, ell)
    c1, c2 = dec.c_minus, dec.c_zero
    system = solve_params_inverse_sqrt(c1, c2, n=ell - m)
    got = system.provenance.alpha
    ok = (c1, c2) == (-1.0, -6.75) and abs(got + 2.0) <= 1e-10 \
        and abs(system.energy + 1.0) <= 1e-12
    return ok, (f"(c1, c2)=({c1:g}, {c2:g}), alpha={got:.12g}, "
                f"E={system.energy:.12g}")


def boundary_ratio(pair, r0: float, r1: float) -> float:
    """psi(r0)/psi(r1) for matching a finite-difference wall to the known
    near-origin behavior of a closed-form eigenfunction; NaN or +-inf,
    without a warning, where psi overflows or vanishes at r1."""
    with np.errstate(divide="ignore", invalid="ignore"):
        return float(np.divide(evaluate(pair.psi, r0),
                               evaluate(pair.psi, r1)))


def cuberoot_containment(c1, c2, e_max=None, lo=1e-3, hi=40.0, n_sub=8000):
    """(n, E_numeric, E_n^+, |difference|) for each chosen level n, with
    E_numeric the FD eigenvalue nearest E_n^+ of the cube-root potential
    on [lo, hi] with n_sub subintervals.  The levels are the first three
    admissible n < 16, or, given e_max, every admissible n < 16 with E_n^+
    below it; Inadmissible is raised when no n < 16 is admissible, or none
    has E_n^+ below e_max.

    Each closed-form eigenfunction carries its own admixture of the second
    indicial solution r^(5/6) at the limit-circle endpoint r = 0, so the
    E_n^+ are not the spectrum of one self-adjoint extension: level n gets
    its own matched wall u_0 = (psi_n(r_0)/psi_n(r_1)) u_1.  The mesh is
    graded toward the cusp psi ~ r^gamma by ``indicial_grading``'s
    p = 4/(1 + gamma), with gamma read off the level's gauge
    (I(x(r)))^(1/4) = const * r^gamma: 1/6, so p = 24/7.
    """
    admissible = []
    for n in range(16):
        try:
            admissible.append((n, solve_params_quantsys(c1, c2, n, "+")))
        except Inadmissible:
            continue
    if not admissible:
        raise Inadmissible(f"no level n < 16 is admissible for "
                           f"c1={c1:g}, c2={c2:g}")
    if e_max is None:
        levels = admissible[:3]
    else:
        levels = [(n, pair) for n, pair in admissible if pair.energy < e_max]
        if not levels:
            raise Inadmissible(f"no admissible level n < 16 has E_n^+ below "
                               f"e_max={e_max:g} for c1={c1:g}, c2={c2:g}")
    (gamma,) = power_terms(levels[0][1].provenance.gauge)
    grading = indicial_grading(float(gamma))
    r1 = fd_nodes(lo, hi, n_sub, grading)[1]
    found = []
    for n, pair in levels:
        ham = fd_hamiltonian(pair.potential, lo, hi, n_sub,
                             left_ratio=boundary_ratio(pair, lo, r1),
                             grading=grading)
        spectrum = eigenvalues_below(ham, pair.energy + 1.5)
        nearest = min(spectrum, key=lambda e: abs(e - pair.energy),
                      default=math.nan)
        found.append((n, nearest, pair.energy, abs(nearest - pair.energy)))
    return found


def criterion_9_fd_containment():
    """FD spectrum on [1e-3, 40], N=8000 contains E_n^+ within 2e-3 for
    n = 0..2, each level under its own wall matched to psi_n, on a mesh
    graded toward the r^(1/6) cusp at r = 0."""
    errs = [err for *_, err in cuberoot_containment(1.0, 0.0)]
    ok = all(e <= 2e-3 for e in errs)
    return ok, ("containment errors " + ", ".join(f"{e:.2e}" for e in errs)
                + " (tol 2e-3; per-level matched walls, graded mesh)")


def criterion_10_finite_cutoff():
    """s^2 family at alpha=-7: L=3; ell=4 raises; ell <= 3 residuals ok."""
    fam = FamilySpec(SigmaCase.S2, -7.0, 1.0)
    cap = cutoff(fam)
    raised = False
    try:
        phi(fam, 4)
    except DegreeBeyondCutoff:
        raised = True
    worst = _hm_worst(fam, 3)
    ok = cap.max_degree == 3 and raised and worst <= 1e-8
    return ok, (f"L={cap.max_degree}, ell=4 raises: {raised}, "
                f"worst residual {worst:.2e}")


CRITERIA = (
    (1, "oscillator spectrum vs FD oracle", criterion_1_oscillator_spectrum),
    (2, "operator eigenrelation residuals", criterion_2_operator_residuals),
    (3, "Rodrigues equivalence", criterion_3_rodrigues),
    (4, "orthogonality in both coordinates", criterion_4_orthogonality),
    (5, "generated-system eigenpairs", criterion_5_generated_eigenpairs),
    (6, "admissibility filter", criterion_6_admissibility),
    (7, "translated-oscillator reproduction", criterion_7_dw_reproduction),
    (8, "cubic parameter round trip", criterion_8_cubic_round_trip),
    (9, "FD containment for the singular system",
     criterion_9_fd_containment),
    (10, "finite-family cutoff", criterion_10_finite_cutoff),
)


def run_all(only=None):
    results = []
    for index, name, fn in CRITERIA:
        if only and index not in only:
            continue
        t0 = time.time()
        try:
            passed, detail = fn()
        except Exception as exc:  # a crash is a failure, not an abort
            passed, detail = False, f"raised {type(exc).__name__}: {exc}"
        results.append(CriterionResult(
            index, name, passed, detail, time.time() - t0))
    return results
