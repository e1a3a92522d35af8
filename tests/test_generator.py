import ast
import math
import pickle
import sys
from dataclasses import replace
from fractions import Fraction
from pathlib import Path

import mpmath
import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from solvable.errors import Inadmissible, InvalidParameter, NonFiniteValue
from solvable.expr import (
    VAR, add, as_fraction, differentiate, evaluate, exp_, mul, parse, pow_,
    power_terms, simplify,
)
from solvable.families import FamilySpec, SigmaCase
from solvable.generator import (
    decompose, reproduce_dw, solve_params_inverse_sqrt, solve_params_quantsys,
    substitute, transformed_system,
)
from solvable.oracle import indicial_grading, integrate, residual_norm
from solvable.schrodinger import potential as family_potential


def terms_of(e):
    return {q: c for q, c in power_terms(e).items() if c != 0.0}


class TestDecompose:
    def test_oscillator_coefficients(self):
        fam = FamilySpec(SigmaCase.ONE, -2.0, 4.0)
        dec = decompose(fam, 1, 1)
        assert dec.c_plus == 1.0
        assert dec.c_minus == -4.0
        assert dec.c_zero == pytest.approx(3.0)
        assert power_terms(dec.i_plus) == {Fraction(2): 1.0}
        assert power_terms(dec.i_minus) == {Fraction(1): 1.0}

    def test_c_zero_matches_ground_case(self):
        fam = FamilySpec(SigmaCase.ONE, -2.0, 0.0)
        dec = decompose(fam, 0, 0)
        assert dec.c_zero == pytest.approx(-1.0)

    def test_reassembles_potential_minus_eigenvalue(self):
        from solvable.families import eigenvalue

        fam = FamilySpec(SigmaCase.ONE, -1.5, 0.7)
        for m in (0, 1, 2):
            v = family_potential(fam, m).potential
            for ell in (m, m + 2):
                dec = decompose(fam, m, ell)
                # the potential-minus-eigenvalue the decomposition encodes
                target = add(mul(dec.c_plus, dec.i_plus),
                             mul(dec.c_minus, dec.i_minus), dec.c_zero)
                lam = eigenvalue(fam, ell)
                for x in np.linspace(-3, 3, 25):
                    want = evaluate(v, x) - lam
                    got = evaluate(target, x)
                    assert abs(got - want) <= 1e-10 * (1 + abs(want))

    def test_coefficients_are_rounded_once(self):
        # (0.5 alpha)^2 in floats is 2.7224999999999997
        assert decompose(FamilySpec(SigmaCase.ONE, -3.3, 1.7), 1, 2).c_plus \
            == 2.7225

    @settings(derandomize=True, max_examples=200, deadline=None)
    @given(st.floats(-1e6, -1e-6), st.floats(-1e6, 1e6),
           st.integers(0, 8), st.integers(0, 8))
    def test_coefficients_are_the_exact_table_rounded(self, alpha, beta, m,
                                                      ell):
        a, b = as_fraction(alpha), as_fraction(beta)
        dec = decompose(FamilySpec(SigmaCase.ONE, alpha, beta), m, ell)
        assert (dec.c_plus, dec.c_minus, dec.c_zero) == (
            float(a * a / 4), float(a * b / 2),
            float(b * b / 4 + a / 2 - a * m + a * ell))

    def test_other_cases_unimplemented(self):
        fam = FamilySpec(SigmaCase.S, -1.0, 2.0)
        with pytest.raises(InvalidParameter, match="only shipped for"):
            decompose(fam, 0, 0)

    def test_records_compare_equal_and_pickle(self):
        fam = FamilySpec(SigmaCase.ONE, -2.0, 4.0)
        dec = decompose(fam, 1, 2)
        assert dec == decompose(fam, 1, 2)
        assert pickle.loads(pickle.dumps(dec)) == dec
        for k in (+1, -1):
            sub = substitute(dec, k)
            assert sub == substitute(decompose(fam, 1, 2), k)
            assert pickle.loads(pickle.dumps(sub)) == sub


class TestSubstitute:
    @pytest.fixture()
    def dec(self):
        return decompose(FamilySpec(SigmaCase.ONE, -2.0, 4.0), 1, 1)

    def test_cuberoot_route(self, dec):
        sub = substitute(dec, +1)
        assert sub.energy == pytest.approx(4.0)  # -C_{-1} = -alpha*beta/2
        t = terms_of(sub.potential)
        assert t[Fraction(2, 3)] == pytest.approx(1.0 * 1.5 ** (2 / 3))
        assert t[Fraction(-2, 3)] == pytest.approx(3.0 * (2 / 3) ** (2 / 3))
        assert t[Fraction(-2)] == float(Fraction(-5, 36))
        # x(r) = (3r/2)^{2/3}
        assert evaluate(sub.provenance.x_of_r, 2.0 / 3.0) == \
            pytest.approx(1.0)

    def test_sqrt_route(self, dec):
        sub = substitute(dec, -1)
        assert sub.energy == pytest.approx(-1.0)  # -C_{+1} = -alpha^2/4
        t = terms_of(sub.potential)
        assert t[Fraction(-1, 2)] == pytest.approx(-4.0 / math.sqrt(2.0))
        assert t[Fraction(-1)] == pytest.approx(1.5)
        assert t[Fraction(-2)] == -0.1875
        assert evaluate(sub.provenance.x_of_r, 0.5) == pytest.approx(1.0)

    def test_map_derivative_relation(self, dec):
        # x'(r) = 1/sqrt(I(x(r))) for the map-defining term
        for k in (+1, -1):
            x_of_r = substitute(dec, k).provenance.x_of_r
            i_map = dec.i_minus if k == 1 else dec.i_plus
            dx = simplify(differentiate(x_of_r))
            for r in np.linspace(0.05, 10, 100):
                ix = evaluate(i_map, evaluate(x_of_r, r))
                assert evaluate(dx, r) == pytest.approx(
                    1.0 / math.sqrt(ix), rel=1e-9)

    def test_gauge_is_quarter_power(self, dec):
        sub = substitute(dec, +1)
        t = terms_of(sub.provenance.gauge)
        assert set(t) == {Fraction(1, 6)}  # (x(r))^{1/4} = const * r^{1/6}
        sub2 = substitute(dec, -1)
        t2 = terms_of(sub2.provenance.gauge)
        assert set(t2) == {Fraction(1, 4)}
        # the generated systems, whose gauge sets the containment's grading
        for c1, c2, n in ((1.0, 0.0, 0), (2.0, -1.0, 2), (0.5, 3.0, 5)):
            cube = solve_params_quantsys(c1, c2, n, "+")
            (gamma,) = terms_of(cube.provenance.gauge)
            assert gamma == Fraction(1, 6)
            assert indicial_grading(float(gamma)) == indicial_grading(1 / 6)
            root = solve_params_inverse_sqrt(c1, c2, n)
            assert set(terms_of(root.provenance.gauge)) == {Fraction(1, 4)}

    def test_unsolvable_map_raises(self, dec):
        odd = type(dec)(i_plus=exp_(VAR), i_minus=VAR, c_plus=1.0,
                        c_minus=1.0, c_zero=0.0)
        with pytest.raises(InvalidParameter, match="cannot solve"):
            substitute(odd, -1)

    def test_caller_supplied_map(self, dec):
        # supplying the closed form explicitly must reproduce the builtin
        sub = substitute(dec, -1, x_of_r=parse("sqrt(2*r)"))
        t = terms_of(sub.potential)
        assert t[Fraction(-2)] == pytest.approx(-3.0 / 16.0)

    @pytest.mark.parametrize("k", [+1, -1])
    def test_transformed_solution_residual_full_sweep(self, k):
        # gauge * Psi_{ell,m}(x(r)) solves the transformed equation for
        # every ell <= 6, m <= ell
        fam = FamilySpec(SigmaCase.ONE, -1.7, 0.9)
        for ell in range(7):
            for m in range(ell + 1):
                g = transformed_system(fam, ell, m, k)
                assert residual_norm(g) <= 1e-8, (ell, m, k)


class TestQuantsysEigenpairs:
    def test_ground_state_energy(self):
        p = solve_params_quantsys(1.0, 0.0, 0, "+")
        assert p.energy == pytest.approx(2.0, abs=1e-12)
        assert residual_norm(p) <= 1e-8

    def test_negative_branch(self):
        p = solve_params_quantsys(1.0, 0.0, 1, "-")
        assert p.energy == pytest.approx(-2.0 * math.sqrt(3.0), abs=1e-12)

    # 1 and -1 were accepted as well, though no caller passed them
    @pytest.mark.parametrize("branch", [1, -1, "x"])
    def test_branch_is_plus_or_minus(self, branch):
        with pytest.raises(InvalidParameter, match="branch must be"):
            solve_params_quantsys(1.0, 0.0, 0, branch)

    def test_admissibility_boundary(self):
        with pytest.raises(Inadmissible):
            solve_params_quantsys(1.0, -5.0, 0, "+")
        with pytest.raises(Inadmissible):
            solve_params_quantsys(1.0, -5.0, 1, "+")
        p = solve_params_quantsys(1.0, -5.0, 2, "+")
        assert p.energy == pytest.approx(0.0, abs=1e-12)

    def test_energy_formula_vs_coefficient(self):
        # E must equal -alpha*beta/2 at the solved parameters
        for n in range(5):
            for br in "+-":
                p = solve_params_quantsys(1.3, -0.4, n, br)
                prov = p.provenance
                assert p.energy == pytest.approx(
                    -prov.alpha * prov.beta / 2.0, abs=1e-12)

    @pytest.mark.parametrize("n", range(4))
    @pytest.mark.parametrize("branch", ["+", "-"])
    def test_residuals(self, n, branch):
        p = solve_params_quantsys(1.0, 0.0, n, branch)
        assert residual_norm(p) <= 1e-8

    @pytest.mark.parametrize("c1,c2,branch", [
        (1.0, 0.0, "+"), (1.7, 0.6, "+"), (1.7, 0.6, "-"),
    ])
    def test_coincides_with_pipeline_up_to_constant(self, c1, c2, branch):
        rs = np.linspace(0.2, 8.0, 50)
        for n in range(5):
            q = solve_params_quantsys(c1, c2, n, branch)
            fam = FamilySpec(SigmaCase.ONE, q.provenance.alpha,
                             q.provenance.beta)
            for m in (0, 1, 2):
                g = transformed_system(fam, n + m, m, +1)
                assert g.energy == pytest.approx(q.energy, abs=1e-12)
                ratio = evaluate(g.psi, rs) / evaluate(q.psi, rs)
                dev = np.max(np.abs(ratio - np.mean(ratio)))
                assert dev <= 1e-8 * abs(np.mean(ratio))

    def test_branch_sign_locked_to_beta(self):
        # E = -alpha*beta/2 with alpha < 0 forces sign(E) = sign(beta)
        for n in range(4):
            for br in "+-":
                p = solve_params_quantsys(2.3, 1.1, n, br)
                assert p.provenance.alpha < 0
                assert math.copysign(1, p.energy) == math.copysign(
                    1, p.provenance.beta)

    def test_square_integrable(self):
        for n in (0, 3):
            p = solve_params_quantsys(1.0, 0.0, n, "+")
            res = integrate(lambda r: evaluate(p.psi, r) ** 2,
                            (0.0, math.inf), 1e-8)
            assert math.isfinite(res.value) and res.value > 0


class TestInverseSqrtEigenpairs:
    def test_round_trip_recovers_alpha(self):
        alpha, beta, m, ell = -2.0, 1.0, 0, 3
        c1 = alpha * beta / 2.0
        c2 = beta ** 2 / 4.0 + alpha / 2.0 - alpha * m + alpha * ell
        assert (c1, c2) == (-1.0, -6.75)
        p = solve_params_inverse_sqrt(c1, c2, n=ell - m)
        assert p.provenance.alpha == pytest.approx(-2.0, abs=1e-10)
        assert p.energy == pytest.approx(-1.0, abs=1e-12)

    def test_degenerate_c1_zero(self):
        p = solve_params_inverse_sqrt(0.0, -2.0, 1)
        assert p.provenance.degenerate
        assert p.provenance.beta == 0.0
        assert p.provenance.alpha == pytest.approx(-2.0 / 1.5)

    def test_degenerate_inadmissible(self):
        with pytest.raises(Inadmissible, match="no real root"):
            solve_params_inverse_sqrt(0.0, 2.0, 1)

    def test_cardano_single_root(self):
        p = solve_params_inverse_sqrt(-1.0, 0.0, 0)
        assert p.provenance.alpha == pytest.approx(
            -2.0 ** (1.0 / 3.0), abs=1e-12)
        assert p.energy == pytest.approx(-2.0 ** (2.0 / 3.0) / 4.0, abs=1e-12)

    @pytest.mark.parametrize("c1,c2,n", [
        (-1.0, -6.75, 3), (-1.0, 0.0, 0), (2.0, -3.0, 1), (0.5, 1.0, 2),
    ])
    def test_residuals(self, c1, c2, n):
        assert residual_norm(solve_params_inverse_sqrt(c1, c2, n)) <= 1e-8

    def test_beta_sign_consistency(self):
        # alpha*beta/2 must reproduce c1
        prov = solve_params_inverse_sqrt(2.0, -3.0, 1).provenance
        assert prov.alpha * prov.beta / 2.0 == pytest.approx(2.0, rel=1e-10)

    def test_root_below_the_normal_floats_is_refused(self):
        # alpha = -1e-314: the shift beta/sqrt(-2 alpha) of H_1's argument
        # is past the float range
        with pytest.raises(InvalidParameter, match="must be finite"):
            solve_params_inverse_sqrt(1e-160, 1e308, 1)


class TestConditioning:
    """High levels far from the origin, where a Hermite polynomial summed
    in powers of x cancels its digits away."""

    @pytest.mark.parametrize("c1,c2", [(0.5, 100.0), (1.0, 30.0)])
    @pytest.mark.parametrize("branch", ["+", "-"])
    def test_cuberoot_high_level(self, c1, c2, branch):
        assert residual_norm(solve_params_quantsys(c1, c2, 15, branch)) \
            <= 1e-8

    def test_inverse_sqrt_high_level(self):
        assert residual_norm(solve_params_inverse_sqrt(-1.0, -30.0, 15)) \
            <= 1e-8

    def test_energy_overflow_is_an_invalid_parameter(self):
        # E = -(alpha/2) beta = 2 sqrt(c1 (c2 + sqrt(c1))) overflows
        with pytest.raises(InvalidParameter, match="E must be finite"):
            solve_params_quantsys(1e308, 1e308, 0, "+")


class TestSinglePath:
    """The pipeline is the only code that builds a generated eigenpair."""

    def test_generator_builds_no_polynomial(self):
        # no hand-built H_n: generator.py imports nothing from polynomials
        source = (Path(__file__).resolve().parent.parent / "src" / "solvable"
                  / "generator.py").read_text()
        found = [node.lineno for node in ast.walk(ast.parse(source))
                 if (isinstance(node, ast.ImportFrom)
                     and (node.module or "").endswith("polynomials"))
                 or (isinstance(node, ast.Import)
                     and any(alias.name.endswith("polynomials")
                             for alias in node.names))]
        assert found == []

    @pytest.mark.parametrize("branch", ["+", "-"])
    def test_quantsys_is_the_transformed_system(self, branch):
        p = solve_params_quantsys(1.7, 0.6, 3, branch)
        fam = FamilySpec(SigmaCase.ONE, p.provenance.alpha,
                         p.provenance.beta)
        g = transformed_system(fam, 3, 0, +1)
        assert (p.potential, p.known_eigenpairs) == (g.potential,
                                                     g.known_eigenpairs)
        assert p.provenance == replace(g.provenance, branch=branch)

    def test_minus_branch_at_zero_radicand(self):
        # rad = 0 makes beta = -0.0 on the "-" branch
        p = solve_params_quantsys(1.0, -5.0, 2, "-")
        assert math.copysign(1.0, p.provenance.beta) == -1.0
        assert p.provenance.branch == "-"
        # E = 0.0 - C_{-1} is +0.0 where C_{-1} is an exact 0
        assert math.copysign(1.0, p.energy) == 1.0


def _bisected_root(c1, c2, n):
    """The negative root of (n + 1/2) a^3 - c2 a^2 + c1^2 by bisection on
    u = -a at 60 digits: double or halve u until h(u) = -f(-u) changes
    sign, then halve the bracket 200 times."""
    with mpmath.workdps(60):
        a, c1, c2 = mpmath.mpf(n) + 0.5, mpmath.mpf(c1), mpmath.mpf(c2)

        def h(u):
            return (a * u + c2) * u * u - c1 * c1

        lo = hi = mpmath.mpf(1)
        while h(hi) < 0:
            lo, hi = hi, 2 * hi
        while h(lo) >= 0:
            lo, hi = lo / 2, lo
        for _ in range(200):
            mid = (lo + hi) / 2
            lo, hi = (lo, mid) if h(mid) >= 0 else (mid, hi)
        return -(lo + hi) / 2


def _signed_powers(lo, hi):
    """+-10^e for e in [lo, hi]."""
    return st.builds(lambda sign, e: sign * 10.0 ** e,
                     st.sampled_from((1.0, -1.0)), st.floats(lo, hi))


_SIGNED_MAGNITUDES = _signed_powers(-60.0, 60.0)


class TestNegativeRoot:
    """The one negative root of the inverse-sqrt parameter cubic against a
    60-digit bisection, and the inputs the general three-root solver got
    wrong."""

    @settings(derandomize=True, max_examples=200, deadline=None)
    @given(_SIGNED_MAGNITUDES, _SIGNED_MAGNITUDES, st.integers(0, 29))
    def test_against_bisection(self, c1, c2, n):
        got = solve_params_inverse_sqrt(c1, c2, n).provenance.alpha
        want = _bisected_root(c1, c2, n)
        assert abs((got - want) / want) <= 1e-13

    @pytest.mark.parametrize("c1,c2,n", [
        (1e-200, 1.0, 0),  # c1^2 underflows
        (1.4e154, 4.0, 0),  # c1^2 overflows
        # u (a u + c2 - (c1/u)^2), the Newton step times its denominator,
        # underflows: the step must be u times a ratio
        (2.3097639909213792e-287, 5.372600203840193e-199, 25),
        # alpha^2 overflows, alpha^2/4 does not
        (-2.3042290871171234e292, 1.2896128416779344e276, 11),
    ])
    def test_root_beyond_the_squares_of_c1(self, c1, c2, n):
        got = solve_params_inverse_sqrt(c1, c2, n)
        want = _bisected_root(c1, c2, n)
        assert abs((got.provenance.alpha - want) / want) <= 1e-13
        assert math.isfinite(got.energy)

    @settings(derandomize=True, max_examples=200, deadline=None)
    @given(_signed_powers(-320.0, 308.0), _signed_powers(-320.0, 308.0),
           st.integers(0, 29))
    def test_whole_float_range(self, c1, c2, n):
        # InvalidParameter only where alpha is not a normal float or
        # beta = 2 c1/alpha or E = -alpha^2/4 overflows
        want = _bisected_root(c1, c2, n)
        with mpmath.workdps(60):
            beta, energy = 2 * c1 / want, want * want / 4
        out_of_range = (abs(want) < sys.float_info.min
                        or max(abs(beta), energy) > sys.float_info.max)
        try:
            got = solve_params_inverse_sqrt(c1, c2, n).provenance.alpha
        except InvalidParameter:
            assert out_of_range
            return
        if abs(want) >= sys.float_info.min:
            assert abs((got - want) / want) <= 1e-13

    def test_small_c1_has_its_root(self):
        p = solve_params_inverse_sqrt(1e-10, 1.0, 0)
        assert p.provenance.alpha == pytest.approx(-1e-10, rel=1e-9)
        assert p.provenance.beta == pytest.approx(-2.0, rel=1e-9)

    def test_no_spurious_second_root(self):
        c1, c2, n = 3.872734097798315e-06, -755.9576125366825, 7
        p = solve_params_inverse_sqrt(c1, c2, n)
        alpha = p.provenance.alpha
        assert alpha == pytest.approx(-100.794348338, rel=1e-11)
        cubic = (n + 0.5) * alpha ** 3 - c2 * alpha ** 2 + c1 ** 2
        assert abs(cubic) <= 1e-12 * (n + 0.5) * abs(alpha) ** 3

    def test_huge_c2_does_not_overflow(self):
        p = solve_params_inverse_sqrt(1.0, 1e300, 0)
        assert p.provenance.alpha == pytest.approx(-1e-150, rel=1e-13)
        assert p.provenance.beta == pytest.approx(-2e150, rel=1e-13)
        assert p.energy == pytest.approx(-2.5e-301, rel=1e-13)

    def test_double_root_from_rounding(self):
        # (n + 1/2) a^3 - c2 a^2 + c1^2 at n = 1 with a double root at
        # a = c2 / 2.25 beside the simple root -c2 / 4.5
        c1, c2 = 21.92398293660021, 19.39880901019049
        pair = solve_params_inverse_sqrt(c1, c2, 1)
        assert pair.provenance.alpha == pytest.approx(-c2 / 4.5, rel=1e-9)


class TestReproduceDW:
    @pytest.mark.parametrize("which", [1, 2])
    def test_infinite_coefficient_is_named(self, which):
        # the exponent p = 1e200 is finite, but p^2 in I'^2 and
        # p (p - 1) in I'' are not
        with pytest.raises(NonFiniteValue,
                           match=r"term inf\*5e\+199\^\(-2\)\*r\^\(-2\)$"):
            reproduce_dw(1.0, 0.0, -1.0, which, i_map=parse("x^1e200"))

    def test_sqrt_route_pattern(self):
        g = reproduce_dw(1.0, 0.0, -1.0, which=1)
        assert terms_of(g.potential) == {Fraction(-1): -0.5,
                                         Fraction(-2): -0.1875}
        assert g.energy == pytest.approx(-1.0)

    def test_sqrt_route_ground_state(self):
        g = reproduce_dw(1.0, 0.0, -1.0, which=1)
        psi = simplify(mul(pow_(VAR, Fraction(1, 4)), exp_(mul(-1, VAR))))
        # the energy is known in closed form, the eigenfunction is not
        assert g.known_eigenpairs == ((g.energy, None),)
        sys_with_pair = replace(g, known_eigenpairs=((g.energy, psi),))
        assert residual_norm(sys_with_pair) <= 1e-10

    def test_cuberoot_route_pattern(self):
        g = reproduce_dw(1.0, 0.0, -1.0, which=2)
        t = terms_of(g.potential)
        assert t[Fraction(2, 3)] == pytest.approx(1.5 ** (2 / 3))
        assert t[Fraction(-2, 3)] == pytest.approx(-(2.0 / 3.0) ** (2 / 3))
        assert t[Fraction(-2)] == pytest.approx(-5.0 / 36.0)
        assert g.energy == pytest.approx(0.0)

    def test_all_source_terms_vanish(self):
        g = reproduce_dw(0.0, 0.0, 0.0, which=1)
        t = terms_of(g.potential)
        assert set(t) == {Fraction(-2)}
        assert t[Fraction(-2)] == pytest.approx(-3.0 / 16.0)


class TestTargetPotentials:
    @pytest.mark.parametrize("route", ["cuberoot", "sqrt"])
    @settings(derandomize=True, max_examples=60, deadline=None)
    @given(c1=st.floats(0.01, 100.0), c2=st.floats(-100.0, 100.0),
           n=st.integers(0, 10), branch=st.sampled_from("+-"))
    def test_correction_is_the_nearest_float(self, route, c1, c2, n,
                                             branch):
        # the r^-2 coefficient is -5/36 or -3/16 rounded once, whatever
        # the other coefficients are
        if route == "cuberoot":
            assume(c2 + math.sqrt(c1) * (1 + 2 * n) >= 0)
            system = solve_params_quantsys(c1, c2, n, branch)
            want = Fraction(-5, 36)
        else:
            system = solve_params_inverse_sqrt(
                c1 if branch == "+" else -c1, c2, n)
            want = Fraction(-3, 16)
        assert terms_of(system.potential)[Fraction(-2)] == float(want)

    def test_cuberoot_potential_terms(self):
        t = terms_of(solve_params_quantsys(1.0, 0.5, 0, "+").potential)
        assert t[Fraction(2, 3)] == pytest.approx(1.5 ** (2 / 3))
        assert t[Fraction(-2, 3)] == pytest.approx(0.5 * (2 / 3) ** (2 / 3))
        assert t[Fraction(-2)] == pytest.approx(-5.0 / 36.0)

    def test_inverse_sqrt_potential_terms(self):
        t = terms_of(solve_params_inverse_sqrt(3.0, -1.0, 0).potential)
        assert t[Fraction(-1, 2)] == pytest.approx(3.0 / math.sqrt(2.0))
        assert t[Fraction(-1)] == pytest.approx(-0.5)
        assert t[Fraction(-2)] == pytest.approx(-3.0 / 16.0)
