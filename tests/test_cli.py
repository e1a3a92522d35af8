import argparse
import ast
import contextlib
import io
import json
import math
import os
import shlex
import subprocess
import sys
import threading
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from solvable import acceptance, cli
from solvable.cli import run
from solvable.expr import _MAX_NESTING
from solvable.families import FamilySpec, SigmaCase

ROOT = Path(__file__).resolve().parent.parent


def invoke(argv):
    out = io.StringIO()
    code = run(argv, out)
    return code, out.getvalue()


class TestFamilies:
    def test_lists_six_families(self):
        code, text = invoke(["families"])
        assert code == 0
        entries = json.loads(text)
        assert len(entries) == 6
        assert {e["case"] for e in entries} == {
            "1", "s", "1-s^2", "s^2-1", "s^2", "s^2+1"}

    def test_with_parameters(self):
        code, text = invoke(["families", "--alpha", "-7", "--beta", "1"])
        entries = {e["case"]: e for e in json.loads(text)}
        s2 = entries["s^2"]
        assert s2["admissible"] is True
        assert s2["interval"] == [0, "inf"]
        assert s2["Lambda"] == 4.0
        assert s2["L"] == 3
        assert entries["s^2-1"]["admissible"] is False

    # one of the two once exited 0 with the parameter-free table
    @pytest.mark.parametrize("given,missing", [
        (["--alpha", "-7"], "--beta"), (["--beta", "1"], "--alpha")])
    def test_one_parameter_is_a_usage_error(self, given, missing, capsys):
        with pytest.raises(SystemExit) as exc:
            run(["families", *given])
        assert exc.value.code == 2
        assert (f"error: {missing} is required with {given[0]}"
                in capsys.readouterr().err)


class TestPoly:
    def test_coefficient_table(self):
        code, text = invoke(["poly", "--case", "one", "--alpha", "-2",
                             "--beta", "0", "--ell", "2"])
        assert code == 0
        lines = text.strip().splitlines()
        assert lines[0] == "ell,j,c_j"
        assert lines[-1] == "2,2,1"
        assert any(line == "2,0,-0.5" for line in lines)

    def test_inadmissible_parameters_exit_1(self):
        code, _ = invoke(["poly", "--case", "s^2-1", "--alpha", "-3",
                          "--beta", "1", "--ell", "1"])
        assert code == 1

    def test_negative_degree_exits_1(self, capsys):
        # an empty range of degrees printed the header alone, exit 0
        code, text = invoke(["poly", "--case", "one", "--alpha", "-2",
                             "--beta", "0", "--ell", "-1"])
        assert (code, text) == (1, "")
        assert capsys.readouterr().err == (
            "error: ell must be a nonnegative integer\n")


class TestSpecfunEval:
    def test_negative_sigma_is_named(self, capsys):
        # sigma = 1 - s^2 < 0 at s = 1.25 and 2, where kappa = sqrt(sigma)
        # is not real: it exited 1 with "nan in column value of the row
        # with s=1.25", which named no constraint
        code, text = invoke(["specfun", "eval", "--case", "1-s^2",
                             "--alpha", "-5", "--beta", "1", "--ell", "1",
                             "--m", "1", "--smin", "0.5", "--smax", "2",
                             "--grid", "3"])
        assert (code, text) == (1, "")
        assert capsys.readouterr().err == (
            "error: sigma(s) < 0 at s=1.25, so sigma^(1/2) is a negative "
            "base with a fractional exponent\n")


class TestAcceptanceOnly:
    def test_reaches_run_all_as_a_set(self, monkeypatch):
        calls = []
        monkeypatch.setattr(cli.acceptance_mod, "run_all",
                            lambda only: calls.append(only) or [])
        invoke(["acceptance", "--only", "6,10,6"])
        invoke(["acceptance"])
        assert calls == [{6, 10}, None]

    # "x" ended in a ValueError traceback; "0" and "99" ran no criterion
    # and printed "0/0 criteria passed", exit 0
    @pytest.mark.parametrize("value,bad", [
        ("x", "x"), ("0", "0"), ("99", "99"), ("3,x", "x")])
    def test_non_index_is_a_usage_error(self, value, bad, capsys):
        with pytest.raises(SystemExit) as exc:
            run(["acceptance", "--only", value])
        assert exc.value.code == 2
        assert (f"argument --only: {bad!r} is not a criterion index 1-10"
                in capsys.readouterr().err)


class TestGenerate:
    def test_ground_state_energy_two(self):
        code, text = invoke(["generate", "--c1", "1", "--c2", "0",
                             "--n", "0", "--branch", "+",
                             "--which", "cuberoot"])
        assert code == 0
        obj = json.loads(text)
        assert obj["energy"] == 2
        assert obj["admissible"] is True
        assert "r^(1/6)" in obj["psi_expr"]

    def test_inadmissible_reported(self):
        code, text = invoke(["generate", "--c1", "1", "--c2", "-5",
                             "--n", "1", "--branch", "+",
                             "--which", "cuberoot"])
        assert code == 0
        assert json.loads(text)["admissible"] is False

    def test_sqrt_route(self):
        code, text = invoke(["generate", "--c1", "-1", "--c2", "-6.75",
                             "--n", "3", "--branch", "+",
                             "--which", "sqrt"])
        obj = json.loads(text)
        assert obj["admissible"] is True
        assert obj["energy"] == pytest.approx(-1.0)

    def test_sqrt_route_without_a_root_on_the_branch(self, capsys):
        # the one negative root of the inverse-sqrt cubic has beta of the
        # sign of -c1, so c1 = 1 has no root on branch +: generate reports
        # it, and verify residual fails instead of checking the branch -
        # root
        args = ["--c1", "1", "--c2", "3", "--n", "0", "--branch", "+"]
        code, text = invoke(["generate", "--which", "sqrt"] + args)
        assert code == 0
        assert text == ('{\n  "admissible": false,\n'
                        '  "reason": "no root on branch +"\n}\n')
        code, text = invoke(["verify", "residual", "--system", "sqrt"]
                            + args)
        assert code == 1
        assert text == ""
        assert capsys.readouterr().err == "error: no root on branch +\n"


class TestSolveParams:
    def test_quantsys_both_branches(self):
        code, text = invoke(["solve-params", "--mode", "quantsys",
                             "--c1", "1", "--c2", "0", "--n", "1"])
        entries = json.loads(text)
        assert len(entries) == 2
        energies = sorted(e["energy"] for e in entries)
        assert energies[0] == pytest.approx(-2 * math.sqrt(3))
        assert energies[1] == pytest.approx(2 * math.sqrt(3))

    def test_invsqrt_roots_with_flags(self):
        code, text = invoke(["solve-params", "--mode", "invsqrt",
                             "--c1", "-1", "--c2", "-6.75", "--n", "3"])
        (entry,) = json.loads(text)
        assert entry["admissible"] is True
        assert abs(entry["alpha"] + 2.0) < 1e-9

    @pytest.mark.parametrize("c1,c2,alpha", [
        ("1e-200", "1", -1e-200), ("1.4e154", "4", -7.31861142005e102)])
    def test_invsqrt_root_where_c1_squared_leaves_the_float_range(
            self, c1, c2, alpha):
        code, text = invoke(["solve-params", "--mode", "invsqrt",
                             "--c1", c1, "--c2", c2, "--n", "0"])
        (entry,) = json.loads(text)
        assert code == 0 and entry["admissible"] is True
        assert entry["alpha"] == pytest.approx(alpha, rel=1e-11)


class TestVerify:
    def test_spectrum_family(self):
        code, text = invoke(["verify", "spectrum", "--case", "one",
                             "--alpha", "-2", "--beta", "0", "--m", "0",
                             "--grid", "4000"])
        assert code == 0
        lines = text.strip().splitlines()
        assert lines[0] == "index,E_numeric,E_analytic,abs_err"
        rows = [line.split(",") for line in lines[1:6]]
        for row in rows:
            assert float(row[3]) < 5e-4

    @pytest.mark.parametrize("case,alpha,beta,m", [
        ("s", "-1", "2", "0"),
        ("1-s^2", "-5", "1", "0"),
        ("s^2-1", "-7", "10", "1"),
    ])
    def test_spectrum_family_default_window_inside_interval(
            self, case, alpha, beta, m):
        # the default window is the family's x interval clamped as in
        # residual_grid, not [-10, 10]
        code, text = invoke(["verify", "spectrum", "--case", case,
                             "--alpha", alpha, "--beta", beta, "--m", m,
                             "--grid", "2000"])
        assert code == 0
        rows = [line.split(",") for line in text.strip().splitlines()[1:]]
        assert len(rows) >= 3
        assert max(float(row[3]) for row in rows) <= 5e-4

    @pytest.mark.parametrize("m", ["0", "1", "2"])
    def test_spectrum_family_default_emax_below_continuum(self, m):
        # V_m tends to ((1 - alpha)/2)^2 = 12.425625 as s -> +inf, below
        # lambda_3 + 0.5: above it the box holds continuum states
        code, text = invoke(["verify", "spectrum", "--system", "family",
                             "--case", "s^2", "--alpha", "-6.05",
                             "--beta", "1.04", "--m", m, "--grid", "4000"])
        assert code == 0
        rows = [line.split(",") for line in text.strip().splitlines()[1:]]
        assert rows
        for row in rows:
            assert float(row[1]) < 12.425625
            assert float(row[3]) <= 5e-4

    @pytest.mark.parametrize("c1,c2,levels", [
        (1.5, 0.7, [0, 1, 2]),
        # n = 0, 1 are inadmissible; the first admissible level is n = 2
        (1.0, -5.0, [2, 3, 4]),
    ])
    def test_spectrum_cuberoot_per_level_walls(self, c1, c2, levels):
        code, text = invoke(["verify", "spectrum", "--system", "cuberoot",
                             "--c1", str(c1), "--c2", str(c2),
                             "--grid", "8000"])
        assert code == 0
        rows = [line.split(",") for line in text.strip().splitlines()[1:]]
        assert [int(row[0]) for row in rows] == levels
        for row in rows:
            assert float(row[3]) <= 2e-3

    @pytest.mark.parametrize("argv,header,routine", [
        ("verify spectrum --system family --case one --alpha -2 --beta 0 "
         "--m 0 --xmin -8 --xmax 8 --grid 400",
         ("index", "E_numeric", "E_analytic", "abs_err"),
         lambda: acceptance.family_spectrum(
             FamilySpec(SigmaCase.ONE, -2.0, 0.0), 0, -8.0, 8.0, 400)),
        ("verify spectrum --system cuberoot --c1 1 --c2 0 --emax 4 "
         "--grid 500",
         ("index", "E_numeric", "E_analytic", "abs_err"),
         lambda: acceptance.cuberoot_containment(1.0, 0.0, 4.0, n_sub=500)),
        ("verify orthogonality --case s --alpha -1 --beta 2 --m 0 "
         "--lmax 2",
         ("ell", "k", "inner_s", "inner_x", "route_gap"),
         lambda: acceptance.orthogonality_rows(
             FamilySpec(SigmaCase.S, -1.0, 2.0), 0, 2)),
    ], ids=["family", "cuberoot", "orthogonality"])
    def test_table_is_its_routines_rows(self, argv, header, routine):
        # the command writes the routine's rows as returned, every column
        want = io.StringIO()
        cli.emit_csv(header, routine(), want)
        assert invoke(argv.split()) == (0, want.getvalue())

    def test_residual_family(self):
        code, text = invoke(["verify", "residual", "--system", "family",
                             "--case", "one", "--alpha", "-2", "--beta",
                             "0", "--ell", "1", "--m", "0", "--grid", "50"])
        lines = text.strip().splitlines()
        assert lines[0] == "x,residual"
        assert all(abs(float(line.split(",")[1])) < 1e-8
                   for line in lines[1:])

    def test_orthogonality(self):
        code, text = invoke(["verify", "orthogonality", "--case", "s",
                             "--alpha", "-1", "--beta", "2", "--m", "0",
                             "--lmax", "2"])
        lines = text.strip().splitlines()
        assert lines[0] == "ell,k,inner_s,inner_x,route_gap"
        for line in lines[1:]:
            parts = line.split(",")
            assert abs(float(parts[2])) < 1e-8
            assert abs(float(parts[3])) < 1e-8


class TestReproduceDW:
    def test_sqrt_route_terms(self):
        code, text = invoke(["reproduce-dw", "--theta", "1", "--rho", "0",
                             "--lambda", "-1", "--which", "1"])
        obj = json.loads(text)
        assert obj["energy"] == -1
        assert obj["potential_terms"]["-2"] == pytest.approx(-3 / 16)
        assert obj["potential_terms"]["-1"] == pytest.approx(-0.5)

    def test_expression_flags_reproduce_builtin_route(self):
        base = invoke(["reproduce-dw", "--theta", "1", "--rho", "0.5",
                       "--lambda", "-2", "--which", "1"])[1]
        custom = invoke(["reproduce-dw", "--theta", "1", "--rho", "0.5",
                         "--lambda", "-2", "--which", "1",
                         "--Ik", "x^2", "--sub", "sqrt(2*r)"])[1]
        a, b = json.loads(base), json.loads(custom)
        assert a["energy"] == b["energy"]
        for key, val in a["potential_terms"].items():
            assert b["potential_terms"][key] == pytest.approx(val)

    def test_zero_exponent_denominator_exits_1(self, capsys):
        code, text = invoke(["reproduce-dw", "--theta", "1", "--rho", "0",
                             "--lambda", "-1", "--which", "1",
                             "--Ik", "x^(1/0)"])
        assert code == 1
        assert text == ""
        assert "at position 5" in capsys.readouterr().err

    def test_power_of_a_sum_is_not_a_monomial(self, capsys):
        code, text = invoke(["reproduce-dw", "--theta", "1", "--rho", "1",
                             "--lambda", "1", "--which", "1",
                             "--Ik", "(1+x)^2"])
        assert code == 1
        assert text == ""
        assert capsys.readouterr().err == (
            "error: cannot solve x' = 1/sqrt(I) for I = (1 + x)^2\n")

    def test_exp_of_log_is_not_a_monomial(self, capsys):
        code, text = invoke(["reproduce-dw", "--theta", "1", "--rho", "1",
                             "--lambda", "1", "--which", "1",
                             "--Ik", "exp(2*log(x))"])
        assert code == 1
        assert text == ""
        assert capsys.readouterr().err == (
            "error: cannot solve x' = 1/sqrt(I) for I = exp(2*log(x))\n")

    def test_family_flag_alias(self):
        code, text = invoke(["verify", "spectrum", "--family", "one",
                             "--alpha", "-2", "--beta", "0", "--m", "0",
                             "--grid", "1000", "--emax", "3"])
        assert code == 0
        assert text.splitlines()[0] == "index,E_numeric,E_analytic,abs_err"


class TestInvalidParameters:
    """Inputs outside a function's domain end in exit 1 with the violated
    constraint named, never in a traceback, an empty table, a NaN printed
    as data or output that is not valid JSON."""

    @pytest.mark.parametrize("argv,constraint", [
        (["verify", "spectrum", "--system", "cuberoot", "--c1", "0"],
         "c1 must be positive"),
        (["generate", "--c1", "0", "--c2", "0", "--n", "0"],
         "c1 must be positive"),
        (["verify", "spectrum", "--family", "one", "--alpha", "-2",
          "--beta", "0", "--grid", "10"],
         "need at least 16 subintervals"),
        (["solve-params", "--mode", "invsqrt", "--c1", "1e300", "--c2", "1",
          "--n", "0"],
         "alpha, beta and E must be finite"),
        (["verify", "orthogonality", "--case", "s", "--alpha", "-1",
          "--beta", "2", "--m", "5", "--lmax", "4"],
         "need m < min(lmax, L)"),
        (["verify", "orthogonality", "--case", "s", "--alpha", "-1",
          "--beta", "2", "--lmax", "-3"],
         "need m < min(lmax, L)"),
        (["verify", "orthogonality", "--case", "s", "--alpha", "-1",
          "--beta", "2", "--m", "4", "--lmax", "4"],
         "need m < min(lmax, L)"),
        # alpha = beta = -1e300: the oscillator's alpha^2 x^2 and
        # alpha beta x terms overflow to inf - inf = NaN at x = -10
        (["potential", "--case", "one", "--alpha", "-1e300",
          "--beta=-1e300", "--m", "0"],
         "nan in column V(x) of the row with x=-10"),
        (["verify", "residual", "--case", "one", "--alpha", "-1e300",
          "--beta=-1e300", "--ell", "0", "--m", "0"],
         "nan in column residual of the row with x=-10"),
        # a NaN potential would be read as no eigenvalue at all
        (["verify", "spectrum", "--case", "one", "--alpha", "-1e300",
          "--beta=-1e300", "--m", "0"],
         "potential is nan at x=-9.995"),
        (["verify", "spectrum", "--case", "1-s^2", "--alpha", "-5",
          "--beta", "1", "--m", "0", "--xmin", "-5", "--xmax", "5"],
         "need the window [-5, 5] strictly inside the x interval "
         "(-1.5708, 1.5708)"),
        (["verify", "spectrum", "--case", "s", "--alpha", "-1",
          "--beta", "2", "--m", "0", "--xmin", "0"],
         "need the window [0, 30] strictly inside the x interval (0, inf)"),
        # non-finite values reached print_expr or emit_json
        (["generate", "--c1", "1", "--c2", "inf", "--n", "0"],
         "c2 must be finite, got inf"),
        (["reproduce-dw", "--theta", "1e200", "--rho", "1", "--lambda", "1",
          "--which", "2"], "theta^2 must be finite, got inf"),
        (["solve-params", "--mode", "quantsys", "--c1", "1", "--c2", "nan",
          "--n", "0"], "c2 must be finite, got nan"),
        (["families", "--alpha", "nan", "--beta", "1"],
         "alpha must be finite, got nan"),
        # the s^2 Psi_3 multiplies an overflowing e^(3x) by an underflowed
        # exp(-3.525x - 0.52 e^(-x)); the s^2 V itself overflows below
        # x of about -355
        (["eigenfunction", "--case", "s^2", "--alpha", "-6.05", "--beta",
          "1.04", "--ell", "3", "--m", "0", "--xmin", "236", "--xmax", "238",
          "--grid", "3"],
         "nan in column psi(x) of the row with x=237"),
        (["potential", "--case", "s^2", "--alpha", "-7", "--beta", "1",
          "--m", "0", "--xmin", "-400", "--xmax", "-300", "--grid", "3"],
         "inf in column V(x) of the row with x=-400"),
    ])
    def test_exit_1_names_constraint(self, argv, constraint, capsys):
        code, text = invoke(argv)
        assert code == 1
        assert text == ""
        assert constraint in capsys.readouterr().err

    @pytest.mark.parametrize("argv,stderr", [
        # E_0^+ = 2 exactly
        (["verify", "spectrum", "--system", "cuberoot", "--c1", "1", "--c2",
          "0", "--emax", "2", "--grid", "100"],
         "error: no admissible level n < 16 has E_n^+ below e_max=2 for "
         "c1=1, c2=0\n"),
        (["verify", "spectrum", "--family", "one", "--alpha", "-2", "--beta",
          "0", "--emax", "-1", "--grid", "100"],
         "error: no finite-difference eigenvalue lies below e_max=-1\n"),
    ], ids=["cuberoot", "family"])
    def test_nothing_below_emax(self, argv, stderr, capsys):
        # a header line alone would read as a spectrum without levels
        code, text = invoke(argv)
        assert (code, text, capsys.readouterr().err) == (1, "", stderr)

    def test_nan_rows_print_only_the_error_line(self):
        # in a fresh interpreter, so a numpy RuntimeWarning would reach
        # stderr ahead of the error line
        env = dict(os.environ, PYTHONPATH="src")
        proc = subprocess.run(
            [sys.executable, "-m", "solvable", "potential", "--case", "one",
             "--alpha", "-1e300", "--beta=-1e300", "--m", "0"],
            cwd=ROOT, env=env, capture_output=True, text=True, timeout=60)
        assert proc.returncode == 1
        assert proc.stdout == ""
        assert proc.stderr == (
            "error: nan in column V(x) of the row with x=-10\n")

    @pytest.mark.parametrize("argv", [
        ["potential", "--case", "s^2", "--alpha", "-7", "--beta", "1",
         "--m", "0"],
        ["verify", "residual", "--case", "s^2", "--alpha", "-7", "--beta",
         "1", "--ell", "0", "--m", "0"],
        ["verify", "spectrum", "--case", "s^2", "--alpha", "-7", "--beta",
         "1", "--m", "0"],
    ], ids=["potential", "residual", "spectrum"])
    def test_s2_rows_are_finite(self, argv):
        # these printed NaN rows, then exited 1 naming them, while the
        # s^2 V was an inf * 0 product below x of about -7.1
        code, text = invoke(argv)
        assert code == 0
        header, *rows = text.splitlines()
        assert rows
        for row in rows:
            assert all(math.isfinite(float(cell)) for cell in row.split(","))

    @pytest.mark.parametrize("argv,constraint", [
        (["potential", "--case", "one", "--alpha", "-1", "--beta", "nan",
          "--m", "0"], "beta must be finite, got nan"),
        (["potential", "--case", "one", "--alpha", "-1", "--beta", "inf",
          "--m", "0"], "beta must be finite, got inf"),
        (["reproduce-dw", "--theta", "nan", "--rho", "1", "--lambda", "1",
          "--which", "2"], "theta must be finite, got nan"),
        (["reproduce-dw", "--theta", "1", "--rho", "inf", "--lambda", "1",
          "--which", "2"], "rho must be finite, got inf"),
        (["verify", "spectrum", "--family", "one", "--alpha", "-2",
          "--beta", "0.5", "--m", "0", "--emax", "nan"],
         "e_max must be finite, got nan"),
        # cosh(1000) overflows, so it stays symbolic without a warning
        (["reproduce-dw", "--theta", "1", "--rho", "1", "--lambda", "1",
          "--which", "1", "--Ik", "cosh(1000)*x^2"],
         "cannot solve x' = 1/sqrt(I) for I = cosh(1000)*x^2"),
    ])
    def test_non_finite_input_prints_only_the_error_line(self, argv,
                                                         constraint):
        env = dict(os.environ, PYTHONPATH="src")
        proc = subprocess.run(
            [sys.executable, "-m", "solvable", *argv],
            cwd=ROOT, env=env, capture_output=True, text=True, timeout=60)
        assert proc.returncode == 1
        assert proc.stdout == ""
        assert proc.stderr == f"error: {constraint}\n"

    def test_unsolvable_map_is_printed_in_the_grammar(self, capsys):
        code, text = invoke(["reproduce-dw", "--theta", "1", "--rho", "1",
                             "--lambda", "1", "--which", "1",
                             "--Ik", "exp(800)*x^2"])
        assert code == 1
        assert text == ""
        assert capsys.readouterr().err == (
            "error: cannot solve x' = 1/sqrt(I) for I = x^2*exp(800)\n")


def run_fresh(argv):
    """(exit code, stdout, stderr) of the CLI in a fresh interpreter."""
    env = dict(os.environ, PYTHONPATH="src")
    proc = subprocess.run([sys.executable, "-m", "solvable", *argv],
                          cwd=ROOT, env=env, capture_output=True, text=True,
                          timeout=60)
    return proc.returncode, proc.stdout, proc.stderr


_SPECFUN = ["specfun", "eval", "--case", "s", "--alpha", "-1", "--beta", "2",
            "--ell", "2", "--m", "1"]
_POTENTIAL = ["potential", "--case", "one", "--alpha", "-2", "--beta", "0",
              "--m", "0"]


class TestNonFiniteWindow:
    """A NaN or infinite window bound exits 1 naming the option before a
    grid is built from it; numpy's linspace warned on stderr, and the
    command then failed on a NaN row."""

    @pytest.mark.parametrize("argv,constraint", [
        (_SPECFUN + ["--smin=-inf"], "smin must be finite, got -inf"),
        (_SPECFUN + ["--smax", "nan"], "smax must be finite, got nan"),
        (_POTENTIAL + ["--xmin=-inf"], "xmin must be finite, got -inf"),
        (["eigenfunction", "--case", "one", "--alpha", "-2", "--beta", "0",
          "--ell", "1", "--m", "0", "--xmax", "inf"],
         "xmax must be finite, got inf"),
        (["verify", "spectrum", "--system", "cuberoot", "--xmax", "inf",
          "--grid", "100"], "xmax must be finite, got inf"),
    ], ids=["smin", "smax", "xmin", "xmax", "cuberoot-xmax"])
    def test_exit_1_names_the_option(self, argv, constraint):
        assert run_fresh(argv) == (1, "", f"error: {constraint}\n")


class TestSharedParser:
    """``run`` parses with one parser per process; a call leaves it as it
    found it, whatever the call's outcome or thread."""

    SPECTRUM = ["verify", "spectrum", "--family", "one", "--alpha", "-2",
                "--beta", "0.5", "--m", "0", "--grid", "200"]

    def test_errors_leave_the_parser_as_it_was(self, capsys):
        with pytest.raises(SystemExit) as exc:
            run(_POTENTIAL + ["--grid", "0"])
        assert exc.value.code == 2
        assert invoke(["generate", "--c1", "0", "--c2", "0",
                       "--n", "0"]) == (1, "")
        code, text = invoke(self.SPECTRUM)
        assert (code, text, "") == run_fresh(self.SPECTRUM)

    def test_threads_print_what_they_print_one_after_the_other(self):
        argvs = [self.SPECTRUM, _SPECFUN + ["--grid", "41"]]
        sequential = [invoke(argv) for argv in argvs]
        start = threading.Barrier(len(argvs))

        def work(argv):
            start.wait()
            return invoke(argv)

        with ThreadPoolExecutor(max_workers=len(argvs)) as pool:
            for _ in range(4):
                assert list(pool.map(work, argvs)) == sequential

    def test_built_once(self, monkeypatch):
        built = []
        build = cli.build_parser
        monkeypatch.setattr(cli, "_parser", None)
        monkeypatch.setattr(cli, "build_parser",
                            lambda: built.append(1) or build())
        for argv in (["families"], _POTENTIAL + ["--grid", "3"],
                     ["families", "--alpha", "-7", "--beta", "1"]):
            assert invoke(argv)[0] == 0
        assert built == [1]



class TestNegativeOptionValues:
    """A negative number in exponent form or an infinity is an option's
    value, as -1 and -0.5 are: ``--c2 -1e300`` does what ``--c2=-1e300``
    does, byte for byte and exit code for exit code."""

    @staticmethod
    def outcome(argv):
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stderr(err):
            try:
                code = run(argv, out)
            except SystemExit as exc:
                code = exc.code
        return code, out.getvalue(), err.getvalue()

    @pytest.mark.parametrize("value", ["-1e300", "-2e0", "-inf", "-2E-1"])
    @pytest.mark.parametrize("argv,option", [
        (["solve-params", "--mode", "invsqrt", "--c1", "1", "--n", "0"],
         "--c2"),
        (["generate", "--which", "sqrt", "--c2", "1", "--n", "0"], "--c1"),
        (["families", "--beta", "1"], "--alpha"),
        (["potential", "--case", "one", "--alpha", "-2", "--m", "0",
          "--grid", "3"], "--beta"),
        (["specfun", "eval", "--case", "one", "--beta", "0", "--ell", "1",
          "--m", "0", "--grid", "3"], "--alpha"),
        (["verify", "spectrum", "--family", "one", "--alpha", "-2",
          "--beta", "0.5", "--grid", "100"], "--emax"),
        (["reproduce-dw", "--theta", "1", "--rho", "1", "--which", "2"],
         "--lambda"),
        (["poly", "--case", "one", "--alpha", "-2", "--beta", "0"],
         "--ell"),
    ])
    def test_space_form_is_the_equals_form(self, argv, option, value):
        spaced = self.outcome(argv + [option, value])
        assert spaced == self.outcome(argv + [f"{option}={value}"])
        assert "expected one argument" not in spaced[2]

    def test_invsqrt_overflow_is_a_domain_error(self):
        code, out, err = self.outcome(
            ["solve-params", "--mode", "invsqrt", "--c1", "1", "--c2",
             "-1e300", "--n", "0"])
        assert (code, out) == (1, "")
        assert err.startswith("error: alpha, beta and E must be finite")


class TestHugeEmax:
    def test_emax_above_the_spectrum_prints_the_levels(self):
        # 200 bisection passes from 1e300 stop far from every level, and
        # each row read 3.11150763893e+239
        code, text = invoke(["verify", "spectrum", "--family", "one",
                             "--alpha", "-2", "--beta", "0.5", "--m", "0",
                             "--emax", "1e300", "--grid", "100"])
        assert code == 0
        rows = [line.split(",") for line in text.splitlines()[1:]]
        assert len(rows) == 99
        assert [round(float(r[1])) for r in rows[:5]] == [0, 2, 4, 6, 8]
        assert max(float(r[1]) for r in rows) < 1e4


class TestMissingFamilyFlags:
    @pytest.mark.parametrize("argv", [
        ["verify", "residual", "--case", "one", "--beta", "1"],
        ["verify", "spectrum", "--case", "one", "--alpha", "-2"],
        ["verify", "spectrum", "--alpha", "-2", "--beta", "1"],
    ], ids=["no-alpha", "no-beta", "no-case"])
    def test_is_a_usage_error(self, argv, capsys):
        with pytest.raises(SystemExit) as exc:
            run(argv)
        assert exc.value.code == 2
        assert "--alpha, --beta are required" in capsys.readouterr().err


def _subparser(*names):
    """The parser of the subcommand named by the words in names."""
    parser = cli.build_parser()
    for name in names:
        [action] = [a for a in parser._actions
                    if isinstance(a, argparse._SubParsersAction)]
        parser = action.choices[name]
    return parser


class TestPostParseUsageErrors:
    # each printed the top-level usage line, "usage: solvable [-h] ..."
    @pytest.mark.parametrize("argv,words", [
        (["families", "--alpha", "-7"], 1),
        (["verify", "residual", "--case", "one", "--beta", "1"], 2),
        (["verify", "spectrum", "--alpha", "-2", "--beta", "1"], 2),
    ], ids=["families", "verify-residual", "verify-spectrum"])
    def test_usage_line_is_the_subcommands(self, argv, words, capsys):
        with pytest.raises(SystemExit) as exc:
            run(argv)
        assert exc.value.code == 2
        sub = _subparser(*argv[:words])
        err = capsys.readouterr().err
        assert err.startswith(sub.format_usage())
        assert f"\n{sub.prog}: error: " in err


def test_family_flags_are_declared_alike():
    cases = []

    def walk(parser):
        for action in parser._actions:
            if isinstance(action, argparse._SubParsersAction):
                for sub in action.choices.values():
                    walk(sub)
            elif action.dest == "case":
                cases.append(action)

    walk(cli.build_parser())
    # poly, specfun eval, potential, eigenfunction and the three verifies
    assert len(cases) == 7
    assert {tuple(a.option_strings) for a in cases} == {
        ("--case", "--family")}
    assert {tuple(a.choices) for a in cases} == {tuple(sorted(
        cli._CASE_NAMES))}


_FUZZ_VALUES = st.one_of(
    st.floats(allow_nan=False, allow_infinity=False),
    st.sampled_from((math.nan, math.inf, -math.inf, 0.0, 1e300, 1e-300)))


def _reject_constant(name):
    raise ValueError(f"{name} is not JSON")


def _examples(*examples):
    """One explicit hypothesis example per argument tuple.  A
    derandomized draw still changes whenever a loaded module's source
    changes (hypothesis mixes constants it collects from local modules
    into generation), so each input that once surfaced a defect is named
    here and runs whatever the draw."""
    def wrap(test):
        for args in examples:
            test = example(*args)(test)
        return test
    return wrap


_SOLVE, _GENERATE = ["solve-params", "--mode"], ["generate", "--which"]


class TestGeneratorFuzz:
    """solve-params and generate on any float c1 and c2 (NaN, infinities,
    0 and the extremes among them) end in exit 0, 1 or 2 without a
    traceback, print valid JSON, and report one root for --mode invsqrt.
    The draws drift with the source (see ``_examples``); the examples are
    the inputs that ended in a traceback, a wrong root count or invalid
    JSON, and two whose eigenpairs hold constants near the ends of the
    float range (c^(m - ell) = 1e375 at c1 = 1e-300, a shift of 6.9e76 in
    H_4's argument)."""

    @settings(derandomize=True, max_examples=100, deadline=None)
    @given(st.sampled_from((["solve-params", "--mode", "quantsys"],
                            ["solve-params", "--mode", "invsqrt"],
                            ["generate", "--which", "cuberoot"],
                            ["generate", "--which", "sqrt"])),
           _FUZZ_VALUES, _FUZZ_VALUES, st.integers(0, 30),
           st.sampled_from("+-"))
    @_examples(
        (_SOLVE + ["quantsys"], 1.0, math.nan, 0, "+"),
        (_SOLVE + ["quantsys"], 8.98846567431158e+307, -2.0, 0, "+"),
        (_SOLVE + ["invsqrt"], 1.0, -1e300, 0, "+"),
        (_SOLVE + ["invsqrt"], 1e-10, 1.0, 0, "+"),
        (_SOLVE + ["invsqrt"], 1e-200, 1.0, 0, "+"),
        (_SOLVE + ["invsqrt"], 1.4e154, 4.0, 0, "+"),
        (_SOLVE + ["invsqrt"], 1e300, 1.0, 0, "+"),
        (_SOLVE + ["invsqrt"], 21.92398293660021, 19.39880901019049, 1, "+"),
        (_SOLVE + ["quantsys"], 1e-300, 0.0, 5, "+"),
        (_GENERATE + ["cuberoot"], 0.0, 0.0, 0, "+"),
        (_GENERATE + ["cuberoot"], 1.0, math.inf, 0, "+"),
        (_GENERATE + ["cuberoot"], 1.0, 4.7403759540545894e+153, 4, "+"),
        (_GENERATE + ["sqrt"], 1.0, 1e300, 0, "+"))
    def test_exits_cleanly(self, command, c1, c2, n, branch):
        argv = command + [f"--c1={c1!r}", f"--c2={c2!r}", f"--n={n}"]
        if command[0] == "generate":
            argv.append(f"--branch={branch}")
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stderr(err):
            try:
                code = run(argv, out)
            except SystemExit as exc:
                code = exc.code
        assert code in (0, 1, 2)
        assert "Traceback" not in err.getvalue()
        if code != 0:
            assert out.getvalue() == ""
            return
        obj = json.loads(out.getvalue(), parse_constant=_reject_constant)
        if "invsqrt" in command:
            assert isinstance(obj, list) and len(obj) == 1


# the extremes, and ordinary values with which one option can be extreme
# while the others get past the parameter checks
_OPTION_VALUES = st.sampled_from(("0", "1e300", "-1e300", "1e-300", "inf",
                                  "-inf", "nan", "-2", "0.5", "1"))

# --Ik/--sub text: ordinary maps, literals past the float range, and
# parentheses or calls nested on both sides of the bound
_MAP_TEXTS = st.sampled_from((
    "x^2", "x", "2*x^3", "x^(-1/2)", "sqrt(2*r)", "(3*r/2)^(2/3)", "exp(r)",
    "1e400*x^2", "x^1e400", *(
        f"{opening * depth}{inner}{')' * depth}"
        for depth in (_MAX_NESTING - 1, _MAX_NESTING, _MAX_NESTING + 1)
        for opening, inner in (("(", "x^2"), ("exp(", "r"), ("-sin(", "r"))
    )))


@st.composite
def _commands(draw):
    """argv of potential, eigenfunction, specfun eval, poly, families,
    reproduce-dw or verify residual|spectrum|orthogonality, every float
    option drawn from ``_OPTION_VALUES``, every degree option from small
    integers, negative ones among them, every grid small, and reproduce-dw's
    --Ik and --sub, when given, from ``_MAP_TEXTS``."""
    def values(*names):
        return [f"--{name}={draw(_OPTION_VALUES)}" for name in names]

    def optional(*names):
        return [arg for arg in values(*names) if draw(st.booleans())]

    def family():
        return [f"--case={draw(st.sampled_from(sorted(cli._CASE_NAMES)))}",
                *values("alpha", "beta")]

    def degree(name, top):
        return f"--{name}={draw(st.integers(-2, top))}"

    def ell_m():
        return [degree("ell", 3), degree("m", 2)]

    m = degree("m", 2)
    kind = draw(st.sampled_from((
        "potential", "eigenfunction", "specfun", "poly", "families",
        "reproduce-dw", "residual", "spectrum", "orthogonality")))
    if kind == "potential":
        return ["potential", *family(), m, "--grid=5",
                *optional("xmin", "xmax")]
    if kind == "eigenfunction":
        return ["eigenfunction", *family(), *ell_m(), "--grid=5",
                *optional("xmin", "xmax")]
    if kind == "specfun":
        return ["specfun", "eval", *family(), *ell_m(), "--grid=5",
                *optional("smin", "smax")]
    if kind == "poly":
        return ["poly", *family(), degree("ell", 3)]
    if kind == "families":
        return ["families", *values("alpha", "beta")]
    if kind == "reproduce-dw":
        return ["reproduce-dw", *values("theta", "rho", "lambda"),
                f"--which={draw(st.sampled_from('12'))}",
                *(f"--{flag}={draw(_MAP_TEXTS)}" for flag in ("Ik", "sub")
                  if draw(st.booleans()))]
    if kind == "orthogonality":
        return ["verify", "orthogonality", *family(),
                degree("m", 1), degree("lmax", 2)]
    system = draw(st.sampled_from(("family", "cuberoot") if kind ==
                                  "spectrum" else ("family", "cuberoot",
                                                   "sqrt")))
    if system == "family":
        argv = ["verify", kind, "--system=family", *family()]
        argv += ell_m() if kind == "residual" else [m]
    else:
        argv = ["verify", kind, f"--system={system}", *values("c1", "c2")]
    if kind == "residual":
        if system != "family":
            argv += [f"--n={draw(st.integers(0, 3))}",
                     f"--branch={draw(st.sampled_from('+-'))}"]
        return argv + ["--grid=5"]
    return argv + ["--grid=32", *optional("emax", "xmin", "xmax")]


# each ended in a traceback: an OverflowError from a Python float power,
# a ZeroDivisionError from an underflowing h^2, a TypeError from
# iterating over one number, an OverflowError from a number literal past
# the float range, a RecursionError from 300 nested parentheses, or an
# OverflowError from printing the infinite coefficient that a finite but
# huge exponent leaves in W
_TRACEBACK_SEEDS = (
    (["eigenfunction", "--case", "s", "--alpha", "-7", "--beta", "1e300",
      "--ell", "1", "--m", "0", "--grid", "5"],
     "nan in column psi(x) of the row with x=7.50075"),
    (["verify", "residual", "--system", "family", "--case", "one",
      "--alpha", "-7", "--beta", "1e300", "--grid", "5"],
     "nan in column residual of the row with x=-10"),
    (["verify", "spectrum", "--system", "cuberoot", "--c1", "1e-300",
      "--c2", "1e300", "--grid", "100"],
     "left_ratio must be finite, got nan"),
    (["verify", "spectrum", "--family", "one", "--alpha", "-2", "--beta",
      "0", "--grid", "100", "--xmin", "0", "--xmax", "1e-300"],
     "mesh spacing 1e-302 is too small: its square underflows"),
    (["reproduce-dw", "--theta", "1", "--rho", "0", "--lambda", "-1",
      "--which", "1", "--Ik", "1e400*x^2"],
     "number '1e400' is beyond the float range (at position 0)"),
    (["reproduce-dw", "--theta", "1", "--rho", "0", "--lambda", "-1",
      "--which", "1", "--Ik", "(" * 300 + "x^2" + ")" * 300],
     "more than 100 nested parentheses (at position 100)"),
    (["reproduce-dw", "--theta", "1", "--rho", "0", "--lambda", "-1",
      "--which", "2", "--Ik", "x^1e200"],
     "W has a non-finite coefficient in its term inf*5e+199^(-2)*r^(-2)"),
)

# each printed a numpy RuntimeWarning ahead of its output: an overflow in
# sigma(s) at s = 1e300, a square of a mesh spacing that overflows, or a
# division by a product of norms that underflows to zero
_WARNING_SEEDS = (
    (["specfun", "eval", "--case", "s^2", "--alpha", "-1e300", "--beta",
      "1e300", "--ell", "0", "--m", "0", "--grid", "2", "--smax", "1e300"],
     0, ""),
    (["verify", "spectrum", "--system", "cuberoot", "--c1", "1e-300",
      "--c2", "0", "--grid", "32", "--xmax", "1e300"],
     1, "error: mesh spacing 1.03137e+299 is too large: its square "
        "overflows\n"),
    (["verify", "orthogonality", "--case", "one", "--alpha", "-1e300",
      "--beta", "-2", "--m", "1", "--lmax", "2"],
     1, "error: the norms of F_(1,1) and F_(2,1) multiply to 0, so no "
        "inner product can be normalized\n"),
)


# every command of the fuzz's kinds that once surfaced a defect: a
# traceback, a numpy warning, a NaN or empty table, a wrong spectrum window
# or a potential that lost its digits
_DEFECT_COMMANDS = (
    "potential --case s^2 --alpha -7 --beta 1 --m 0",
    "potential --case one --alpha -1 --beta nan --m 0",
    "eigenfunction --case s --alpha -7 --beta 1e300 --ell 1 --m 0 --grid 5",
    "eigenfunction --case s^2 --alpha -6.05 --beta 1.04 --ell 3 --m 0 "
    "--xmin 236 --xmax 238 --grid 3",
    "specfun eval --case s --alpha -1 --beta 2 --ell 2 --m 1 --smin=-inf",
    "specfun eval --case s^2 --alpha -1e300 --beta 1e300 --ell 0 --m 0 "
    "--grid 2 --smax 1e300",
    "specfun eval --case 1-s^2 --alpha -5 --beta 1 --ell 1 --m 1 --smin 0.5 "
    "--smax 2 --grid 3",
    "families --alpha nan --beta 1",
    "reproduce-dw --theta 1 --rho 0 --lambda -1 --which 1 --Ik x^(1/0)",
    "reproduce-dw --theta 1 --rho 0 --lambda -1 --which 1 --Ik x^1e200",
    "reproduce-dw --theta 1 --rho 0 --lambda -1 --which 2 --Ik x^1e200",
    "reproduce-dw --theta 1 --rho 1 --lambda 1 --which 1 --Ik cosh(1000)*x^2",
    "reproduce-dw --theta 1 --rho 1 --lambda 1 --which 1 --Ik exp(800)*x^2",
    "reproduce-dw --theta 1e200 --rho 1 --lambda 1 --which 2",
    "reproduce-dw --theta nan --rho 1 --lambda 1 --which 2",
    "reproduce-dw --theta 1 --rho inf --lambda 1 --which 2",
    "verify residual --case s^2 --alpha -7 --beta 1 --ell 0 --m 0",
    "verify residual --case 1-s^2 --alpha -2 --beta 1 --ell 2 --m 0 "
    "--grid 5",
    "verify residual --system family --case one --alpha -7 --beta 1e300 "
    "--grid 5",
    "verify spectrum --case s^2 --alpha -7 --beta 1 --m 0",
    "verify spectrum --system family --case s^2-1 --alpha -7 --beta 10 "
    "--m 1 --xmax 60",
    "verify spectrum --system family --case s --alpha -1 --beta 2 --m 0",
    "verify spectrum --system family --case 1-s^2 --alpha -5 --beta 1 "
    "--m 0",
    "verify spectrum --system cuberoot --c1 0",
    "verify spectrum --system cuberoot --c1 1e-300 --c2 0 --grid 32 "
    "--xmax 1e300",
    "verify spectrum --system cuberoot --c1 1e-300 --c2 1e300 --grid 100",
    "verify spectrum --family one --alpha -2 --beta 0 --grid 100 --xmin 0 "
    "--xmax 1e-300",
    "verify spectrum --family one --alpha -2 --beta 0.5 --m 0 --emax 1e300 "
    "--grid 100",
    "verify spectrum --family one --alpha -2 --beta 0.5 --m 0 --emax nan",
    "verify orthogonality --case one --alpha -1e300 --beta -2 --m 1 "
    "--lmax 2",
    "verify orthogonality --case s --alpha -1 --beta 2 --m 5 --lmax 4",
    "verify orthogonality --case s --alpha -1 --beta 2 --lmax -3",
)


class TestCommandFuzz:
    """Every other subcommand on extreme option values ends in exit 0, 1
    or 2 without a traceback, and exit 0 prints valid JSON or a CSV table
    of finite numbers, with at least one row unless it lists the levels
    below --emax; the commands that ended in a traceback exit 1 naming
    the value.  The draws drift with the source (see ``_examples``), so
    every command that once surfaced a defect is an explicit example."""

    @settings(derandomize=True, max_examples=600, deadline=None)
    @given(_commands())
    @_examples(*((shlex.split(command),) for command in _DEFECT_COMMANDS))
    def test_exits_cleanly(self, argv):
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stderr(err):
            try:
                code = run(argv, out)
            except SystemExit as exc:
                code = exc.code
        assert code in (0, 1, 2)
        assert "Traceback" not in err.getvalue()
        if code != 0:
            assert out.getvalue() == ""
            return
        text = out.getvalue()
        if argv[0] in ("families", "reproduce-dw"):
            json.loads(text, parse_constant=_reject_constant)
            return
        header, *rows = text.splitlines()
        assert rows or argv[:2] == ["verify", "spectrum"]
        for row in rows:
            cells = row.split(",")
            assert len(cells) == len(header.split(","))
            assert all(math.isfinite(float(cell)) for cell in cells)

    @pytest.mark.parametrize("argv,message", _TRACEBACK_SEEDS,
                             ids=["eigenfunction", "residual", "cuberoot",
                                  "mesh", "literal", "nesting", "exponent"])
    def test_seed_exits_1_naming_the_value(self, argv, message):
        # in a fresh interpreter, so a numpy RuntimeWarning would reach
        # stderr ahead of the error line
        env = dict(os.environ, PYTHONPATH="src")
        proc = subprocess.run(
            [sys.executable, "-m", "solvable", *argv],
            cwd=ROOT, env=env, capture_output=True, text=True, timeout=60)
        assert proc.returncode == 1
        assert proc.stdout == ""
        assert proc.stderr == f"error: {message}\n"

    # --sub at the bound exited 0 and still does; one level more exited 0
    # as well, and 200 levels ended in a RecursionError
    @pytest.mark.parametrize("depth,code,err", [
        (_MAX_NESTING, 0, ""),
        (_MAX_NESTING + 1, 1, "error: more than 100 nested parentheses "
                              f"(at position {4 * _MAX_NESTING + 3})\n")],
        ids=["at-bound", "past-bound"])
    def test_nesting_bound_through_sub(self, depth, code, err, capsys):
        sub = "exp(" * depth + "r" + ")" * depth
        assert invoke(["reproduce-dw", "--theta", "1", "--rho", "0",
                       "--lambda", "-1", "--which", "1",
                       f"--sub={sub}"])[0] == code
        assert capsys.readouterr().err == err

    @pytest.mark.parametrize("argv,code,err", _WARNING_SEEDS,
                             ids=["specfun", "mesh", "orthogonality"])
    def test_seed_warns_no_more(self, argv, code, err, capsys):
        # pytest turns every warning into an error, so a numpy
        # RuntimeWarning fails this test
        assert invoke(argv)[0] == code
        assert capsys.readouterr().err == err


class TestGridSize:
    @pytest.mark.parametrize("argv", [
        ["potential", "--case", "one", "--alpha", "-2", "--beta", "0",
         "--m", "0"],
        ["eigenfunction", "--case", "one", "--alpha", "-2", "--beta", "0",
         "--ell", "1", "--m", "0"],
        ["specfun", "eval", "--case", "s", "--alpha", "-1", "--beta", "2",
         "--ell", "2", "--m", "1"],
        ["verify", "residual", "--system", "cuberoot"],
        # --grid 0 ended in a ZeroDivisionError traceback
        ["verify", "spectrum", "--system", "cuberoot"],
    ], ids=["potential", "eigenfunction", "specfun", "verify-residual",
            "verify-spectrum"])
    @pytest.mark.parametrize("grid", ["0", "-5"])
    def test_grid_below_one_is_a_usage_error(self, argv, grid, capsys):
        with pytest.raises(SystemExit) as exc:
            run(argv + ["--grid", grid])
        assert exc.value.code == 2
        assert "--grid: must be at least 1" in capsys.readouterr().err

    def test_one_point_grid(self):
        code, text = invoke(["potential", "--case", "one", "--alpha", "-2",
                             "--beta", "0", "--m", "0", "--grid", "1"])
        assert code == 0
        assert text == "x,V(x)\n-10,99\n"


class TestDeterminism:
    @pytest.mark.parametrize("argv", [
        ["families", "--alpha", "-7", "--beta", "1"],
        ["poly", "--case", "s^2", "--alpha", "-7", "--beta", "1",
         "--ell", "3"],
        ["generate", "--c1", "1", "--c2", "0", "--n", "2", "--branch", "-",
         "--which", "cuberoot"],
        ["specfun", "eval", "--case", "one", "--alpha", "-2", "--beta",
         "1", "--ell", "2", "--m", "1", "--grid", "11"],
    ])
    def test_byte_identical_output(self, argv):
        _, first = invoke(argv)
        _, second = invoke(argv)
        assert first == second

    def test_byte_identical_across_processes(self):
        argv = [sys.executable, "-m", "solvable", "generate", "--c1", "1",
                "--c2", "0", "--n", "1", "--branch", "+",
                "--which", "cuberoot"]
        runs = [subprocess.run(argv, capture_output=True, check=True).stdout
                for _ in range(2)]
        assert runs[0] == runs[1]


class TestHelp:
    @pytest.mark.parametrize("argv", [
        ["--help"],
        ["families", "--help"], ["poly", "--help"],
        ["specfun", "eval", "--help"], ["potential", "--help"],
        ["eigenfunction", "--help"], ["generate", "--help"],
        ["solve-params", "--help"], ["verify", "residual", "--help"],
        ["verify", "spectrum", "--help"],
        ["verify", "orthogonality", "--help"],
        ["reproduce-dw", "--help"], ["acceptance", "--help"],
    ])
    def test_every_subcommand_has_help(self, argv, capsys):
        with pytest.raises(SystemExit) as exc:
            run(argv)
        assert exc.value.code == 0
        assert "usage" in capsys.readouterr().out.lower()


class TestAcceptanceCommand:
    # the run is deterministic and takes no seed: --seed is unknown, and
    # SOLVABLE_SEED=abc once ended in a ValueError traceback
    def test_seed_option_is_a_usage_error(self, capsys):
        with pytest.raises(SystemExit) as exc:
            run(["acceptance", "--seed", "3"])
        assert exc.value.code == 2
        assert "unrecognized arguments: --seed 3" in capsys.readouterr().err

    def test_seed_environment_variable_is_not_read(self, monkeypatch):
        monkeypatch.setenv("SOLVABLE_SEED", "abc")
        code, text, err = run_fresh(["acceptance", "--only", "6"])
        assert (code, err) == (0, "")
        assert text.endswith("1/1 criteria passed\n")

    def test_subset_runs_and_reports(self):
        code, text = invoke(["acceptance", "--only", "6,8"])
        assert code == 0
        assert "PASS criterion  6" in text
        assert "PASS criterion  8" in text
        assert "2/2 criteria passed" in text

    def test_criterion_9_passes(self):
        code, text = invoke(["acceptance", "--only", "9"])
        assert code == 0
        assert "PASS criterion  9" in text


class TestNoEnvironmentKnobs:
    _READERS = ("environ", "environb", "getenv", "getenvb")

    def test_no_module_reads_the_environment(self):
        # the CLI's options are its only inputs: no module under
        # src/solvable reads os.environ or os.getenv, as an attribute or
        # imported by name
        found = []
        for path in sorted((ROOT / "src" / "solvable").rglob("*.py")):
            for node in ast.walk(ast.parse(path.read_text())):
                if ((isinstance(node, ast.Attribute)
                     and node.attr in self._READERS)
                        or (isinstance(node, ast.ImportFrom)
                            and node.module == "os"
                            and any(alias.name in self._READERS
                                    for alias in node.names))):
                    found.append(f"{path.name}:{node.lineno}")
        assert found == []

