"""Seeded tasks for the three workloads, each checked against a closed form
that this module computes itself.

A task is built from (seed, stream, index) alone, so the same seed gives
the same inputs whatever the run length.  ``Task.run(L)`` calls the library
only through the namespace ``L`` (plain functions, or the tracer's wrapped
ones) and returns a tuple of floats and strings; ``Task.check`` returns
None or the reason the output misses its tolerance.

Workloads (why each was chosen):

* ``spectrum``: finite-difference eigen-solving, where Sturm counting and
  bisection do nearly all the work and quadrature is never called.  Tasks
  alternate between the library path and the ``verify spectrum`` command,
  at grid sizes 2000, 3000 and 4000.
* ``orthogonality``: criterion-4-shaped ladders, one per family in every
  task.  A few Exprs are evaluated thousands of times each inside
  ``integrate``: the read side of ``expr`` plus quadrature, with no Sturm
  counting.
* ``construct``: every task draws fresh parameters, so no two tasks share
  Expr trees and the ``lru_cache``s in the library miss: the write side of
  ``expr`` (simplify, differentiate, compose) with light evaluation.  A
  task is six criterion-2 checks, one per family, and six criterion-5
  checks.

The parts of one orthogonality or construct task differ in cost by up to
twentyfold.  As separate tasks they make a many-peaked time distribution
whose median jumps between peaks with small shifts in machine speed; as one
task each they make a single peak, so the median moves only with the
machine.

Known defects stay out of the timed tasks, where a failure would make the
run incorrect: the cube-root spectrum from ``verify spectrum`` misses its
2e-3 containment tolerance, and near the cutoff of the three finite
families the quadrature of the top ladder member does not converge.
``spectrum_defects`` and ``orthogonality_defects`` run them in every run
and report each failure with its inputs.
"""

from __future__ import annotations

import io
import math
from dataclasses import dataclass
from types import SimpleNamespace
from typing import Callable

import numpy as np

from solvable import FamilySpec, QuadratureNoConverge, SigmaCase
from solvable.schrodinger import variable_map

SPECTRUM_TOL = 5e-4        # criterion 1
CUBEROOT_TOL = 2e-3        # criterion 9
ORTHO_TOL = 1e-8           # criterion 4
RESIDUAL_TOL = 1e-8        # criteria 2 and 5
ENERGY_RTOL = 1e-12        # criterion 5

# independent random streams per seed
MEASURE, WARMUP, PROBE, OVERHEAD_A, OVERHEAD_B = range(5)

FAMILY_ORDER = (SigmaCase.ONE, SigmaCase.S, SigmaCase.ONE_MINUS_S2,
                SigmaCase.S2_MINUS_1, SigmaCase.S2, SigmaCase.S2_PLUS_1)

# leading coefficient a of sigma = a s^2 + b s + c
_SIGMA_A = {SigmaCase.ONE: 0.0, SigmaCase.S: 0.0, SigmaCase.ONE_MINUS_S2: -1.0,
            SigmaCase.S2_MINUS_1: 1.0, SigmaCase.S2: 1.0,
            SigmaCase.S2_PLUS_1: 1.0}

# (alpha box, beta box) per family.  Each box lies inside the family's
# admissibility region and contains its ACCEPTANCE_FAMILIES row.  For the
# three finite families alpha is kept where the cutoff Lambda = (1-alpha)/2
# sits at least 0.9 above the top degree: below that margin the quadrature
# of the top ladder member fails (see orthogonality_defects).
FAMILY_BOXES = {
    SigmaCase.ONE: ((-3.0, -1.0), (0.0, 2.0)),
    SigmaCase.S: ((-1.5, -0.5), (1.5, 2.5)),
    SigmaCase.ONE_MINUS_S2: ((-5.5, -4.5), (0.5, 1.5)),
    SigmaCase.S2_MINUS_1: ((-7.0, -6.8), (9.5, 10.5)),
    SigmaCase.S2: ((-7.0, -6.8), (0.5, 1.5)),
    SigmaCase.S2_PLUS_1: ((-5.0, -4.8), (0.5, 1.5)),
}
CUTOFF_MARGIN = 0.9


@dataclass(frozen=True)
class Task:
    kind: str
    inputs: dict
    run: Callable
    check: Callable


def rounds(make_part, width):
    """Tasks made of ``width`` consecutive parts of ``make_part``'s
    sequence, so that every task carries the whole mix of parts.  A
    failing part is named by its place in the task's inputs."""
    def make_task(seed, stream, index):
        parts = [make_part(seed, stream, width * index + j)
                 for j in range(width)]

        def run(L):
            out = []
            for j, part in enumerate(parts):
                try:
                    out.append(part.run(L))
                except Exception as exc:
                    exc.add_note(f"in part {j} ({part.kind})")
                    raise
            return tuple(out)

        def check(outputs):
            for j, (part, output) in enumerate(zip(parts, outputs)):
                error = part.check(output)
                if error is not None:
                    return f"part {j} ({part.kind}): {error}"
            return None

        return Task(f"{width} parts", [p.inputs for p in parts], run, check)

    return make_task


def rng_for(seed, stream, index):
    return np.random.default_rng((seed, stream, index))


def eigenvalue(case, alpha, ell):
    """lambda_ell = -a ell (ell - 1) - alpha ell."""
    return -_SIGMA_A[case] * ell * (ell - 1) - alpha * ell


def top_degree(case, alpha, cap=6):
    """Largest ell below the cutoff (1-alpha)/2, at most ``cap``."""
    if _SIGMA_A[case] <= 0.0:
        return cap
    return min(math.ceil((1.0 - alpha) / 2.0) - 1, cap)


def cuberoot_energy(c1, c2, n):
    """E_n^+ = 2 sqrt(c1 c2 + c1^(3/2) (1 + 2n))."""
    return 2.0 * math.sqrt(c1 * c2 + c1 ** 1.5 * (1 + 2 * n))


def _draw_family(rng, case):
    (alo, ahi), (blo, bhi) = FAMILY_BOXES[case]
    return float(rng.uniform(alo, ahi)), float(rng.uniform(blo, bhi))


# --- spectrum ---------------------------------------------------------------

SPECTRUM_LEVELS = 5
# Three grid sizes, not the two end points alone: task times cluster by
# grid size, and with three clusters the median lies inside the middle one
# and the tail (about the 75th percentile at 35 s) inside the top one, so
# neither jumps between clusters from run to run.  Index i visits every
# (path, grid) pair once per 6 tasks.
SPECTRUM_GRIDS = (2000, 3000, 4000)


def spectrum_task(seed, stream, index):
    rng = rng_for(seed, stream, index)
    kind = ("fd", "cli")[index % 2]
    grid = SPECTRUM_GRIDS[index % len(SPECTRUM_GRIDS)]
    alpha = float(rng.uniform(-3.0, -1.0))
    beta = float(rng.uniform(-1.0, 2.0))
    # box centred on the well and scaled with the oscillator length, so
    # the FD error of level ell is the same share of |alpha| at any alpha
    centre, half = -beta / alpha, 10.0 * math.sqrt(2.0 / -alpha)
    lo, hi = centre - half, centre + half
    e_max = -alpha * (SPECTRUM_LEVELS - 0.5)
    want = [eigenvalue(SigmaCase.ONE, alpha, ell)
            for ell in range(SPECTRUM_LEVELS)]
    inputs = dict(kind=kind, alpha=alpha, beta=beta, grid=grid,
                  x_lo=lo, x_hi=hi, e_max=e_max)

    def check_levels(got):
        if len(got) != SPECTRUM_LEVELS:
            return f"{len(got)} levels below {e_max!r}, want {len(want)}"
        for ell, (e, w) in enumerate(zip(got, want)):
            if not abs(e - w) <= SPECTRUM_TOL:
                return f"level {ell}: |{e!r} - {w!r}| > {SPECTRUM_TOL:g}"
        return None

    if kind == "cli":
        argv = ["verify", "spectrum", "--family", "one",
                "--alpha", repr(alpha), "--beta", repr(beta), "--m", "0",
                "--grid", str(grid), "--xmin", repr(lo), "--xmax", repr(hi),
                "--emax", repr(e_max)]

        def run(L):
            out = io.StringIO()
            status = L.cli_run(argv, out=out)
            return (status, out.getvalue())

        def check(output):
            status, text = output
            if status != 0:
                return f"exit status {status}"
            return check_levels(_csv_column(text, 1))
    else:
        fam = FamilySpec(SigmaCase.ONE, alpha, beta)

        def run(L):
            system = L.potential(fam, 0)
            ham = L.fd_hamiltonian(system.potential, lo, hi, grid)
            return tuple(L.eigenvalues_below(ham, e_max))

        check = check_levels

    return Task(kind, inputs, run, check)


def _csv_column(text, column):
    return [float(line.split(",")[column])
            for line in text.splitlines()[1:]]


def spectrum_defects(seed, L):
    """Criterion 9's defect through the user path: the cube-root spectrum
    from ``verify spectrum --system cuberoot --grid 8000`` against the
    closed-form E_n^+, n = 0..2, at 2e-3."""
    rng = rng_for(seed, PROBE, 0)
    c1, c2 = float(rng.uniform(0.5, 2.0)), float(rng.uniform(0.0, 1.0))
    out = io.StringIO()
    status = L.cli_run(["verify", "spectrum", "--system", "cuberoot",
                        "--c1", repr(c1), "--c2", repr(c2),
                        "--grid", "8000"], out=out)
    records = []
    got = _csv_column(out.getvalue(), 1) if status == 0 else []
    for n in range(3):
        want = cuberoot_energy(c1, c2, n)
        err = min((abs(g - want) for g in got), default=math.inf)
        records.append(dict(
            inputs=dict(system="cuberoot", c1=c1, c2=c2, n=n, grid=8000),
            error=None if err <= CUBEROOT_TOL else
            f"containment error {err:.3e} > {CUBEROOT_TOL:g}"))
    return records


# --- orthogonality ----------------------------------------------------------

def _ladder(L, fam, m, top, image):
    """Norms of the F and Psi ladders and every off-diagonal normalized
    inner product, by scalar_product in s and integrate in x.  Returns
    (norms, ((ell, k, inner_s, inner_x), ...))."""
    evaluate = L.evaluate

    def noted(call, what):
        try:
            return call()
        except QuadratureNoConverge as exc:
            exc.add_note(what)
            raise

    def integrate(fn, what):
        return noted(lambda: L.integrate(fn, image, 1e-9).value,
                     f"x-route {what}")

    def scalar_product(f, g, what):
        return noted(lambda: L.scalar_product(fam, f, g), f"s-route {what}")

    fns, psis, f_norm, psi_norm = {}, {}, {}, {}
    for ell in range(m, top + 1):
        f = fns[ell] = L.special_function(fam, ell, m)
        f_norm[ell] = math.sqrt(scalar_product(f, f, f"norm of F_{ell}"))
        psi = psis[ell] = L.wavefunction(fam, ell, m)
        psi_norm[ell] = math.sqrt(integrate(
            lambda x: evaluate(psi, x) ** 2, f"norm of Psi_{ell}"))
    inner = []
    for ell in fns:
        for k in fns:
            if k <= ell:
                continue
            f, g, scale = fns[ell], fns[k], f_norm[ell] * f_norm[k]
            s_route = scalar_product(lambda s: f(s) / scale, g,
                                     f"<F_{ell}, F_{k}>")
            pe, pk, scale_x = psis[ell], psis[k], psi_norm[ell] * psi_norm[k]
            x_route = integrate(
                lambda x: evaluate(pe, x) * evaluate(pk, x) / scale_x,
                f"<Psi_{ell}, Psi_{k}>")
            inner.append((ell, k, s_route, x_route))
    return tuple(f_norm.values()) + tuple(psi_norm.values()), tuple(inner)


def _check_inner(inner):
    for ell, k, s_route, x_route in inner:
        worst = max(abs(s_route), abs(x_route), abs(s_route - x_route))
        if not worst <= ORTHO_TOL:
            return (f"ell={ell}, k={k}: s-route {s_route!r}, "
                    f"x-route {x_route!r} (tol {ORTHO_TOL:g})")
    return None


# m of each family's ladder (columns in FAMILY_ORDER) in four consecutive
# tasks: every (family, m) pair once per four tasks.  A ladder costs less
# the higher it starts, and the families differ up to sevenfold, so m is
# spread such that the four tasks cost within 5% of each other at the seed
# commit: the median and tail then do not jump between task types.
LADDER_M = ((0, 0, 2, 3, 1, 0), (1, 1, 1, 2, 0, 1), (2, 2, 0, 1, 3, 2),
            (3, 3, 3, 0, 2, 3))


def _ladder_part(seed, stream, index):
    rng = rng_for(seed, stream, index)
    task, j = divmod(index, len(FAMILY_ORDER))
    case = FAMILY_ORDER[j]
    alpha, beta = _draw_family(rng, case)
    top = top_degree(case, alpha)
    m = min(LADDER_M[task % len(LADDER_M)][j], top)
    fam = FamilySpec(case, alpha, beta)
    image = variable_map(fam).image
    inputs = dict(family=case.value, alpha=alpha, beta=beta, m=m, top=top)

    def run(L):
        return _ladder(L, fam, m, top, image)

    def check(output):
        return _check_inner(output[1])

    return Task(f"{case.value}/m={m}", inputs, run, check)


# a known failing input (x-route norm of Psi_3), probed in every run
_NAMED_ORTHO_DEFECT = (SigmaCase.S2, -6.05, 1.04, 0)


def orthogonality_defects(seed, L):
    """Criterion-4 ladders for the finite families with the cutoff margin
    below CUTOFF_MARGIN, where integrating the top ladder member raises
    QuadratureNoConverge: in x first and, closer to the cutoff, in s."""
    rng = rng_for(seed, PROBE, 0)
    cases = [_NAMED_ORTHO_DEFECT]
    for case in (SigmaCase.S2_MINUS_1, SigmaCase.S2, SigmaCase.S2_PLUS_1):
        (alo, _), (blo, bhi) = FAMILY_BOXES[case]
        top = top_degree(case, alo)
        margin = float(rng.uniform(0.05, CUTOFF_MARGIN))
        cases.append((case, 1.0 - 2.0 * (top + margin),
                      float(rng.uniform(blo, bhi)), 0))
    records = []
    for case, alpha, beta, m in cases:
        fam = FamilySpec(case, alpha, beta)
        top = top_degree(case, alpha)
        inputs = dict(family=case.value, alpha=alpha, beta=beta, m=m,
                      top=top, cutoff=(1.0 - alpha) / 2.0)
        try:
            _, inner = _ladder(L, fam, m, top, variable_map(fam).image)
            error = _check_inner(inner)
        except QuadratureNoConverge as exc:
            error = f"QuadratureNoConverge in {exc.__notes__[0]}: {exc}"
        records.append(dict(inputs=inputs, error=error))
    return records


# --- construct --------------------------------------------------------------

def _construct_part(seed, stream, index):
    rng = rng_for(seed, stream, index)
    if index % 2 == 0:
        return _operator_part(rng, index // 2)
    return _generated_part(rng, index // 2)


# sample window in s per family (where sigma, rho and the polynomials are
# well scaled) and the closed-form map x(s) with dx/ds = 1/sqrt(sigma)
_WINDOWS = {
    SigmaCase.ONE: ((-2.0, 2.0), lambda s: s),
    SigmaCase.S: ((0.2, 4.0), lambda s: 2.0 * math.sqrt(s)),
    SigmaCase.ONE_MINUS_S2: ((-0.8, 0.8), math.asin),
    SigmaCase.S2_MINUS_1: ((1.2, 4.0), math.acosh),
    SigmaCase.S2: ((0.2, 4.0), math.log),
    SigmaCase.S2_PLUS_1: ((-2.0, 2.0), math.asinh),
}


def _operator_part(rng, index):
    """Criterion-2 shape: the m-th potential with attached eigenpairs, the
    H_m eigenrelation of each F on 100 points of the sample window, and
    the Schrodinger eigenrelation of each attached pair on 100 points of
    that window's image in x, both at the closed-form eigenvalue."""
    case = FAMILY_ORDER[index % len(FAMILY_ORDER)]
    alpha, beta = _draw_family(rng, case)
    top = top_degree(case, alpha, cap=8)
    # m turns over with each task, so every task has the same mix of
    # cheap and dear (family, m) pairs
    m = (index // len(FAMILY_ORDER) + index) % (min(2, top) + 1)
    ells = tuple(range(m, min(m + 2, top) + 1))
    fam = FamilySpec(case, alpha, beta)
    (s_lo, s_hi), to_x = _WINDOWS[case]
    pts = np.linspace(s_lo, s_hi, 100)
    x_window = (to_x(s_lo), to_x(s_hi))
    want_lam = [eigenvalue(case, alpha, ell) for ell in ells]
    inputs = dict(kind="operator", family=case.value, alpha=alpha,
                  beta=beta, m=m, ells=list(ells))

    def run(L):
        system = L.potential(fam, m, ells)
        windowed = SimpleNamespace(potential=system.potential,
                                   interval=x_window)
        op = L.hm_operator(fam, m)
        out = []
        for j, ell in enumerate(ells):
            sf = L.special_function(fam, ell, m)
            lam = want_lam[j]
            f = sf(pts)
            lhs = L.apply_hm(op, sf, pts)
            out.append(float(np.max(np.abs(lhs - lam * f)
                                    / (1.0 + np.abs(lam * f)))))
            lam_lib, psi = system.known_eigenpairs[j]
            out.append(lam_lib)
            out.append(L.residual_norm(windowed, (lam, psi), 100))
        return tuple(out)

    def check(out):
        for j, ell in enumerate(ells):
            hm_res, lam, res = out[3 * j: 3 * j + 3]
            if not hm_res <= RESIDUAL_TOL:
                return f"ell={ell}: H_m residual {hm_res:.3e}"
            if not abs(lam - want_lam[j]) <= ENERGY_RTOL * max(
                    1.0, abs(want_lam[j])):
                return f"ell={ell}: lambda {lam!r} != {want_lam[j]!r}"
            if not res <= RESIDUAL_TOL:
                return f"ell={ell}: Schrodinger residual {res:.3e}"
        return None

    return Task("operator", inputs, run, check)


def _generated_part(rng, index):
    """Criterion-5 shape: the cube-root eigenpairs n = 0..3 on one branch,
    each energy against the closed form and each residual on 400
    points."""
    c1 = float(rng.uniform(0.5, 2.0))
    c2 = float(rng.uniform(-0.5, 1.0))
    branch = "+" if index % 2 == 0 else "-"
    sign = 1.0 if branch == "+" else -1.0
    levels = range(4)
    want = [sign * cuberoot_energy(c1, c2, n) for n in levels]
    inputs = dict(kind="generated", c1=c1, c2=c2, n=list(levels),
                  branch=branch)

    def run(L):
        out = []
        for n in levels:
            pair = L.solve_params_quantsys(c1, c2, n, branch)
            out += [pair.energy, L.residual_norm(pair)]
        return tuple(out)

    def check(out):
        for n in levels:
            energy, res = out[2 * n: 2 * n + 2]
            if not abs(energy - want[n]) <= ENERGY_RTOL * max(
                    1.0, abs(want[n])):
                return f"n={n}: energy {energy!r} != {want[n]!r}"
            if not res <= RESIDUAL_TOL:
                return f"n={n}: residual {res:.3e} > {RESIDUAL_TOL:g}"
        return None

    return Task("generated", inputs, run, check)


# a task is one ladder per family; every (family, m) pair once per 4 tasks
orthogonality_task = rounds(_ladder_part, len(FAMILY_ORDER))
# a task is one operator part per family and six generated parts, three
# on each branch
construct_task = rounds(_construct_part, 2 * len(FAMILY_ORDER))

WORKLOADS = {
    "spectrum": (spectrum_task, spectrum_defects),
    "orthogonality": (orthogonality_task, orthogonality_defects),
    "construct": (construct_task, None),
}
