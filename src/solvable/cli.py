"""Command-line surface.

Subcommands: families, poly, specfun, potential, eigenfunction,
generate, solve-params, verify (residual | spectrum | orthogonality),
reproduce-dw, acceptance.  Tabular output is CSV with a header row,
structured output is JSON; all numbers are rendered with %.12g.  Exit
status: 0 success, 1 domain error (the violated constraint is named),
2 usage error.
"""

from __future__ import annotations

import argparse
import json
import math
import re
import sys
import threading

import numpy as np

from .errors import (
    Inadmissible, InvalidParameter, NonFiniteValue, SolvableError,
    require_finite,
)
from .expr import evaluate, parse, power_terms, print_expr
from .families import (
    ALL_CASES, FamilySpec, SigmaCase, check_degree, cutoff, sample_window,
)
from .generator import (
    reproduce_dw, solve_params_inverse_sqrt, solve_params_quantsys,
)
from .oracle import residual, residual_grid
from .polynomials import phi
from .schrodinger import potential, variable_map, wavefunction
from .specfun import special_function
from . import acceptance as acceptance_mod

_CASE_NAMES = {"one": SigmaCase.ONE} | {case.value: case for case in SigmaCase}


def g12(v) -> str:
    v = float(v)
    if v == 0.0:
        v = 0.0  # normalize negative zero
    return f"{v:.12g}"


def _jsonable(v):
    if isinstance(v, float):
        if math.isinf(v):
            return "inf" if v > 0 else "-inf"
        return float(g12(v))
    if isinstance(v, (list, tuple)):
        return [_jsonable(x) for x in v]
    if isinstance(v, dict):
        return {k: _jsonable(x) for k, x in v.items()}
    return v


def _interval_json(interval):
    out = []
    for v in interval:
        if math.isinf(v):
            out.append("inf" if v > 0 else "-inf")
        elif v == int(v):
            out.append(int(v))
        else:
            out.append(v)
    return out


def emit_json(obj, out):
    out.write(json.dumps(_jsonable(obj), ensure_ascii=False, indent=2,
                         allow_nan=False))
    out.write("\n")


def emit_csv(header, rows, out):
    """Write the header and rows as CSV lines; a NaN or infinite number
    raises NonFiniteValue before anything is written."""
    lines = [",".join(header)]
    for row in rows:
        cells = [g12(v) if isinstance(v, (int, float)) else str(v)
                 for v in row]
        for name, v, cell in zip(header, row, cells):
            if isinstance(v, (int, float)) and not math.isfinite(v):
                raise NonFiniteValue(
                    f"{cell} in column {name} of the row with "
                    f"{header[0]}={cells[0]}")
        lines.append(",".join(cells))
    out.write("\n".join(lines) + "\n")


def _family_from(args) -> FamilySpec:
    if None in (args.case, args.alpha, args.beta):
        args.parser.error("--case/--family, --alpha, --beta are required "
                          "for --system family")
    return FamilySpec(_CASE_NAMES[args.case], args.alpha, args.beta)


def _grid_size(text) -> int:
    """argparse type of the --grid point counts: an integer >= 1."""
    try:
        n = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"expected an integer, got {text!r}") from None
    if n < 1:
        raise argparse.ArgumentTypeError(f"must be at least 1, got {n}")
    return n


def _criterion_indices(text) -> set:
    """argparse type of --only: comma-separated criterion indices 1-10."""
    known = {str(index) for index, _name, _fn in acceptance_mod.CRITERIA}
    for token in text.split(","):
        if token not in known:
            raise argparse.ArgumentTypeError(
                f"{token!r} is not a criterion index 1-10")
    return {int(token) for token in text.split(",")}


def _add_family_flags(p, required=True):
    p.add_argument("--case", "--family", dest="case",
                   choices=sorted(_CASE_NAMES), required=required,
                   help="sigma case (one, s, 1-s^2, s^2-1, s^2, s^2+1)")
    p.add_argument("--alpha", type=float, required=required)
    p.add_argument("--beta", type=float, required=required)


def cmd_families(args, out):
    if (args.alpha is None) != (args.beta is None):
        given, missing = (("--alpha", "--beta") if args.beta is None
                          else ("--beta", "--alpha"))
        args.parser.error(f"{missing} is required with {given}")
    entries = []
    for case in ALL_CASES:
        entry = {"case": case.value, "constraint": case.constraint}
        if args.alpha is not None:
            require_finite(("alpha", args.alpha), ("beta", args.beta))
            entry["alpha"] = args.alpha
            entry["beta"] = args.beta
            try:
                fam = FamilySpec(case, args.alpha, args.beta)
            except SolvableError:
                entry["admissible"] = False
            else:
                entry["admissible"] = True
                entry["interval"] = _interval_json(fam.interval)
                cap = cutoff(fam)
                entry["Lambda"] = cap.lambda_cap
                entry["L"] = cap.max_degree
        else:
            entry["interval"] = _interval_json(case.interval)
            entry["Lambda"] = ("inf" if not case.finite_system
                               else "(1-alpha)/2")
        entries.append(entry)
    emit_json(entries, out)
    return 0


def cmd_poly(args, out):
    fam = _family_from(args)
    check_degree(fam, args.ell)
    rows = []
    for ell in range(args.ell + 1):
        p = phi(fam, ell)
        for j, c in enumerate(p.coeffs):
            rows.append((ell, j, c))
    emit_csv(("ell", "j", "c_j"), rows, out)
    return 0


def _require_finite_options(args, *names):
    """Raise InvalidParameter naming the first of the given window
    options that is NaN or infinite, before a grid is built from it."""
    require_finite(*((name, getattr(args, name)) for name in names
                     if getattr(args, name) is not None))


def _window(args, lo_name, hi_name, default):
    """The window of the options lo_name and hi_name, each end not given
    taken from the (lo, hi) pair ``default``."""
    _require_finite_options(args, lo_name, hi_name)
    lo, hi = getattr(args, lo_name), getattr(args, hi_name)
    return default[0] if lo is None else lo, default[1] if hi is None else hi


def cmd_specfun(args, out):
    fam = _family_from(args)
    sf = special_function(fam, args.ell, args.m)
    grid = np.linspace(*_window(args, "smin", "smax", sample_window(fam)),
                       args.grid)
    # emit_csv names a value that overflowed or turned NaN
    with np.errstate(over="ignore", invalid="ignore"):
        rows = [(s, sf(s)) for s in grid]
    emit_csv(("s", "value"), rows, out)
    return 0


def _tabulate(e, args, interval):
    """(x, e(x)) rows on the --grid points of the x window; an e that
    folded to a constant gives one number, repeated on every row."""
    grid = np.linspace(*_window(args, "xmin", "xmax",
                                residual_grid(interval, 2)), args.grid)
    return zip(grid, np.broadcast_to(evaluate(e, grid), grid.shape))


def cmd_potential(args, out):
    system = potential(_family_from(args), args.m)
    emit_csv(("x", "V(x)"), _tabulate(system.potential, args,
                                      system.interval), out)
    return 0


def cmd_eigenfunction(args, out):
    fam = _family_from(args)
    psi = wavefunction(fam, args.ell, args.m)
    emit_csv(("x", "psi(x)"), _tabulate(psi, args, variable_map(fam).image),
             out)
    return 0


def _generated_pair(which, c1, c2, n, branch):
    """The generated system on the branch: the cube-root eigenpair, or the
    inverse-sqrt system when its beta has the branch's sign; raises
    Inadmissible when there is none."""
    if which == "cuberoot":
        return solve_params_quantsys(c1, c2, n, branch)
    system = solve_params_inverse_sqrt(c1, c2, n)
    if system.provenance.branch != branch:
        raise Inadmissible(f"no root on branch {branch}")
    return system


def cmd_generate(args, out):
    try:
        pair = _generated_pair(args.which, args.c1, args.c2, args.n,
                               args.branch)
    except Inadmissible as exc:
        emit_json({"admissible": False, "reason": str(exc)}, out)
        return 0
    prov = pair.provenance
    entry = {"energy": pair.energy, "psi_expr": print_expr(pair.psi, "r"),
             "admissible": True, "alpha": prov.alpha, "beta": prov.beta}
    if args.which == "sqrt":
        entry["degenerate"] = prov.degenerate
    emit_json(entry, out)
    return 0


def cmd_solve_params(args, out):
    entries = []
    if args.mode == "quantsys":
        for branch in ("+", "-"):
            try:
                p = solve_params_quantsys(args.c1, args.c2, args.n, branch)
                entries.append({"branch": branch,
                                "alpha": p.provenance.alpha,
                                "beta": p.provenance.beta,
                                "energy": p.energy, "admissible": True})
            except Inadmissible as exc:
                entries.append({"branch": branch, "admissible": False,
                                "reason": str(exc)})
    else:
        try:
            p = solve_params_inverse_sqrt(args.c1, args.c2, args.n)
            prov = p.provenance
            entries.append({"alpha": prov.alpha, "beta": prov.beta,
                            "energy": p.energy, "branch": prov.branch,
                            "degenerate": prov.degenerate,
                            "admissible": True})
        except Inadmissible as exc:
            entries.append({"admissible": False, "reason": str(exc)})
    emit_json(entries, out)
    return 0


def cmd_verify_residual(args, out):
    if args.system == "family":
        system = potential(_family_from(args), args.m,
                           attach_ells=(args.ell,))
    else:
        system = _generated_pair(args.system, args.c1, args.c2, args.n,
                                 args.branch)
    # one point at a time: on an array the residual can round differently
    rows = [(x, residual(system.potential, system.energy, system.psi,
                         float(x)))
            for x in residual_grid(system.interval, args.grid)]
    emit_csv(("x", "residual"), rows, out)
    return 0


def cmd_verify_spectrum(args, out):
    if args.system == "family":
        fam = _family_from(args)
        lo, hi = _window(args, "xmin", "xmax",
                         residual_grid(variable_map(fam).image, 2))
        rows = acceptance_mod.family_spectrum(fam, args.m, lo, hi, args.grid,
                                              args.emax)
    else:
        # each level under its own matched wall (criterion 9); index is
        # the level n
        _require_finite_options(args, "xmin", "xmax")
        window = {name: v for name, v in (("lo", args.xmin),
                                          ("hi", args.xmax))
                  if v is not None}
        rows = acceptance_mod.cuberoot_containment(
            args.c1, args.c2, args.emax, n_sub=args.grid, **window)
    emit_csv(("index", "E_numeric", "E_analytic", "abs_err"), rows, out)
    return 0


def cmd_verify_orthogonality(args, out):
    fam = _family_from(args)
    top = cutoff(fam).top_degree(args.lmax)
    if not args.m < top:
        raise InvalidParameter(
            f"need m < min(lmax, L) for a pair m <= ell < k, got m={args.m}, "
            f"min(lmax, L)={top}")
    emit_csv(("ell", "k", "inner_s", "inner_x", "route_gap"),
             acceptance_mod.orthogonality_rows(fam, args.m, top), out)
    return 0


def cmd_reproduce_dw(args, out):
    i_map = parse(args.ik) if args.ik else None
    x_of_r = parse(args.sub) if args.sub else None
    g = reproduce_dw(args.theta, args.rho, args.lam, args.which,
                     i_map=i_map, x_of_r=x_of_r)
    terms = power_terms(g.potential) or {}
    emit_json({
        "which": args.which,
        "potential_terms": {str(q): c for q, c in sorted(terms.items())
                            if c != 0.0},
        "potential_expr": print_expr(g.potential, "r"),
        "energy": g.energy,
        "gauge_expr": print_expr(g.provenance.gauge, "r"),
    }, out)
    return 0


def cmd_acceptance(args, out):
    results = acceptance_mod.run_all(only=args.only)
    failed = 0
    for r in results:
        status = "PASS" if r.passed else "FAIL"
        out.write(f"{status} criterion {r.index:>2} ({r.name}): "
                  f"{r.detail} [{r.seconds:.2f}s]\n")
        failed += 0 if r.passed else 1
    out.write(f"{len(results) - failed}/{len(results)} criteria passed\n")
    return 1 if failed else 0


class _Parser(argparse.ArgumentParser):
    """ArgumentParser that takes every negative float literal (-1e300,
    -2e0, -inf, -nan) as an option's value, as argparse itself takes -1
    and -0.5: no option of this CLI looks like a number.  Subcommand
    parsers are made by the same class."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self._negative_number_matcher = re.compile(
            r"^-(\d+\.?\d*|\.\d+)([eE][-+]?\d+)?$|^-(inf(inity)?|nan)$",
            re.IGNORECASE)


def build_parser() -> argparse.ArgumentParser:
    ap = _Parser(
        prog="solvable",
        description="Exactly solvable Schrodinger-type systems: the six "
                    "hypergeometric-type weight families, their orthogonal "
                    "polynomials and potentials, and a generator of new "
                    "solvable systems with an independent numerical oracle.")
    sub = ap.add_subparsers(dest="command", required=True)

    p = sub.add_parser("families", help="list the six families as JSON")
    p.add_argument("--alpha", type=float, default=None)
    p.add_argument("--beta", type=float, default=None)
    p.set_defaults(fn=cmd_families, parser=p)

    p = sub.add_parser("poly", help="polynomial coefficient table (CSV)")
    _add_family_flags(p)
    p.add_argument("--ell", type=int, required=True)
    p.set_defaults(fn=cmd_poly, parser=p)

    p = sub.add_parser("specfun",
                       help="evaluate an associated special function (CSV)")
    sub2 = p.add_subparsers(dest="subcommand", required=True)
    pe = sub2.add_parser("eval")
    _add_family_flags(pe)
    pe.add_argument("--ell", type=int, required=True)
    pe.add_argument("--m", type=int, required=True)
    pe.add_argument("--grid", type=_grid_size, default=101)
    pe.add_argument("--smin", type=float, default=None)
    pe.add_argument("--smax", type=float, default=None)
    pe.set_defaults(fn=cmd_specfun, parser=pe)

    p = sub.add_parser("potential", help="V_m on a grid (CSV)")
    _add_family_flags(p)
    p.add_argument("--m", type=int, required=True)
    p.add_argument("--grid", type=_grid_size, default=201)
    p.add_argument("--xmin", type=float, default=None)
    p.add_argument("--xmax", type=float, default=None)
    p.set_defaults(fn=cmd_potential, parser=p)

    p = sub.add_parser("eigenfunction", help="Psi_{ell,m} on a grid (CSV)")
    _add_family_flags(p)
    p.add_argument("--ell", type=int, required=True)
    p.add_argument("--m", type=int, required=True)
    p.add_argument("--grid", type=_grid_size, default=201)
    p.add_argument("--xmin", type=float, default=None)
    p.add_argument("--xmax", type=float, default=None)
    p.set_defaults(fn=cmd_eigenfunction, parser=p)

    p = sub.add_parser("generate",
                       help="closed-form eigenpair of a generated system")
    p.add_argument("--c1", type=float, required=True)
    p.add_argument("--c2", type=float, required=True)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--branch", choices=("+", "-"), default="+")
    p.add_argument("--which", choices=("cuberoot", "sqrt"),
                   default="cuberoot")
    p.set_defaults(fn=cmd_generate, parser=p)

    p = sub.add_parser("solve-params",
                       help="all parameter roots with admissibility flags")
    p.add_argument("--mode", choices=("quantsys", "invsqrt"), required=True)
    p.add_argument("--c1", type=float, required=True)
    p.add_argument("--c2", type=float, required=True)
    p.add_argument("--n", type=int, required=True)
    p.set_defaults(fn=cmd_solve_params, parser=p)

    p = sub.add_parser("verify", help="numerical verification reports")
    sub2 = p.add_subparsers(dest="subcommand", required=True)

    pr = sub2.add_parser("residual")
    pr.add_argument("--system", choices=("family", "cuberoot", "sqrt"),
                    default="family")
    _add_family_flags(pr, required=False)
    pr.add_argument("--ell", type=int, default=0)
    pr.add_argument("--m", type=int, default=0)
    pr.add_argument("--c1", type=float, default=1.0)
    pr.add_argument("--c2", type=float, default=0.0)
    pr.add_argument("--n", type=int, default=0)
    pr.add_argument("--branch", choices=("+", "-"), default="+")
    pr.add_argument("--grid", type=_grid_size, default=200)
    pr.set_defaults(fn=cmd_verify_residual, parser=pr)

    ps = sub2.add_parser("spectrum")
    ps.add_argument("--system", choices=("family", "cuberoot"),
                    default="family")
    _add_family_flags(ps, required=False)
    ps.add_argument("--m", type=int, default=0)
    ps.add_argument("--c1", type=float, default=1.0)
    ps.add_argument("--c2", type=float, default=0.0)
    ps.add_argument("--grid", type=_grid_size, default=4000)
    ps.add_argument("--emax", type=float, default=None)
    ps.add_argument("--xmin", type=float, default=None)
    ps.add_argument("--xmax", type=float, default=None)
    ps.set_defaults(fn=cmd_verify_spectrum, parser=ps)

    po = sub2.add_parser("orthogonality")
    _add_family_flags(po)
    po.add_argument("--m", type=int, default=0)
    po.add_argument("--lmax", type=int, default=4)
    po.set_defaults(fn=cmd_verify_orthogonality, parser=po)

    p = sub.add_parser("reproduce-dw",
                       help="transform the translated harmonic oscillator")
    p.add_argument("--theta", type=float, required=True)
    p.add_argument("--rho", type=float, required=True)
    p.add_argument("--lambda", dest="lam", type=float, required=True)
    p.add_argument("--which", type=int, choices=(1, 2), required=True)
    p.add_argument("--Ik", dest="ik", type=str, default=None,
                   help="override the map-defining term, e.g. 'x^2'")
    p.add_argument("--sub", dest="sub", type=str, default=None,
                   help="supply x(r) directly, e.g. 'sqrt(2*r)'")
    p.set_defaults(fn=cmd_reproduce_dw, parser=p)

    p = sub.add_parser("acceptance", help="run every acceptance criterion")
    p.add_argument("--only", type=_criterion_indices, default=None,
                   help="comma-separated criterion indices 1-10")
    p.set_defaults(fn=cmd_acceptance, parser=p)

    return ap


_parser = None
_parser_lock = threading.Lock()


def _shared_parser() -> argparse.ArgumentParser:
    """The process's one parser, built on first use: building takes
    longer than most commands' parsing, and parsing leaves the parser as
    it was, so calls, threads among them, can share it."""
    global _parser
    with _parser_lock:
        if _parser is None:
            _parser = build_parser()
        return _parser


def run(argv, out=None) -> int:
    out = out if out is not None else sys.stdout
    args = _shared_parser().parse_args(argv)
    try:
        return args.fn(args, out)
    except SolvableError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


def main() -> None:
    sys.exit(run(sys.argv[1:]))


if __name__ == "__main__":
    main()
