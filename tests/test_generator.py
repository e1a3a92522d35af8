import math
import sys
from dataclasses import replace
from fractions import Fraction

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from solvable.errors import (
    Inadmissible, InvalidParameter, MapNotClosedForm, NoAdmissibleRoot,
    NonIntegrableGauge, Unimplemented,
)
from solvable.expr import (
    VAR, add, differentiate, evaluate, exp_, mul, parse, pow_, power_terms,
    simplify,
)
from solvable.families import FamilySpec, SigmaCase
from solvable.generator import (
    SecondOrderODE, antiderivative_of_powers,
    boundary_ratio, cuberoot_potential, decompose, eliminate_first_derivative,
    inverse_sqrt_potential, reproduce_dw, solve_params_inverse_sqrt,
    solve_params_quantsys, substitute, transformed_system,
)
from solvable.oracle import integrate, residual_norm
from solvable.schrodinger import potential as family_potential


def terms_of(e):
    return {q: c for q, c in power_terms(e).items() if c != 0.0}


class TestEliminateFirstDerivative:
    def test_already_normalized(self):
        ode = SecondOrderODE(parse("1"), parse("0"), parse("r^2 + 3"))
        res = eliminate_first_derivative(ode)
        assert evaluate(res.gauge, 1.7) == 1.0
        assert evaluate(res.normalized_potential, 1.7) == pytest.approx(
            1.7 ** 2 + 3)

    def test_gaussian_gauge(self):
        ode = SecondOrderODE(parse("1"), parse("-2*r"), parse("r^2 + 5"))
        res = eliminate_first_derivative(ode)
        for r in (0.3, 1.0, 2.5):
            assert evaluate(res.gauge, r) == pytest.approx(
                math.exp(-r * r / 2), rel=1e-12)
            assert evaluate(res.normalized_potential, r) == pytest.approx(
                6.0, rel=1e-12)

    def test_power_gauge(self):
        ode = SecondOrderODE(parse("r"), parse("1"), parse("0"))
        res = eliminate_first_derivative(ode)
        for r in (0.5, 2.0):
            assert evaluate(res.gauge, r) == pytest.approx(
                math.sqrt(r), rel=1e-12)
            assert evaluate(res.normalized_potential, r) == pytest.approx(
                1.0 / (4 * r * r), rel=1e-12)

    def test_non_integrable_gauge(self):
        ode = SecondOrderODE(parse("1"), exp_(VAR), parse("0"))
        with pytest.raises(NonIntegrableGauge):
            eliminate_first_derivative(ode)

    def test_caller_supplied_antiderivative(self):
        # B/(2A) = exp(r)/2, primitive exp(r)/2 supplied by hand
        ode = SecondOrderODE(parse("1"), exp_(VAR), parse("0"))
        res = eliminate_first_derivative(
            ode, antiderivative=mul(0.5, exp_(VAR)))
        assert evaluate(res.gauge, 0.4) == pytest.approx(
            math.exp(math.exp(0.4) / 2), rel=1e-12)

    def test_antiderivative_table(self):
        e = parse("3*r^2 + 2/r - 1")
        f = antiderivative_of_powers(e)
        df = differentiate(f)
        for r in (0.3, 1.1, 4.0):
            assert evaluate(df, r) == pytest.approx(evaluate(e, r), rel=1e-11)

    def test_gauge_identity_manufactured_solutions(self):
        # pick psi = exp(p(r)), set C = -(A psi'' + B psi')/psi, and check
        # [d^2/dr^2 + Q](h psi) = 0
        rng = np.random.RandomState(42)
        rs = np.linspace(0.4, 3.0, 50)
        for trial in range(20):
            if trial % 2 == 0:
                a = parse(f"{rng.uniform(0.5, 2.0):.6f}")
            else:
                a = mul(rng.uniform(0.5, 2.0), VAR)
            b = add(rng.uniform(-1, 1), mul(rng.uniform(-1, 1), VAR))
            p = add(mul(rng.uniform(-0.5, 0.5), pow_(VAR, 2)),
                    mul(rng.uniform(-1, 1), VAR))
            psi = exp_(p)
            dpsi = simplify(differentiate(psi))
            d2psi = simplify(differentiate(dpsi))
            c = simplify(mul(-1, add(mul(a, d2psi), mul(b, dpsi)),
                             pow_(psi, -1)))
            res = eliminate_first_derivative(SecondOrderODE(a, b, c))
            u = simplify(mul(res.gauge, psi))
            u2 = differentiate(simplify(differentiate(u)))
            vals = evaluate(u2, rs) + evaluate(res.normalized_potential, rs) \
                * evaluate(u, rs)
            assert np.max(np.abs(vals)) <= 1e-7 * np.max(
                np.abs(evaluate(u, rs)) + 1.0)


class TestDecompose:
    def test_oscillator_coefficients(self):
        fam = FamilySpec(SigmaCase.ONE, -2.0, 4.0)
        dec = decompose(fam, 1)
        assert dec.c_plus == 1.0
        assert dec.c_minus == -4.0
        assert dec.c_zero(1) == pytest.approx(3.0)
        assert power_terms(dec.i_plus) == {Fraction(2): 1.0}
        assert power_terms(dec.i_minus) == {Fraction(1): 1.0}

    def test_c_zero_matches_ground_case(self):
        fam = FamilySpec(SigmaCase.ONE, -2.0, 0.0)
        dec = decompose(fam, 0)
        assert dec.c_zero(0) == pytest.approx(-1.0)

    def test_reassembles_potential_minus_eigenvalue(self):
        from solvable.families import eigenvalue

        fam = FamilySpec(SigmaCase.ONE, -1.5, 0.7)
        for m in (0, 1, 2):
            dec = decompose(fam, m)
            v = family_potential(fam, m).potential
            for ell in (m, m + 2):
                target = dec.reassemble(ell)
                lam = eigenvalue(fam, ell)
                for x in np.linspace(-3, 3, 25):
                    want = evaluate(v, x) - lam
                    got = evaluate(target, x)
                    assert abs(got - want) <= 1e-10 * (1 + abs(want))

    def test_other_cases_unimplemented(self):
        fam = FamilySpec(SigmaCase.S, -1.0, 2.0)
        with pytest.raises(Unimplemented):
            decompose(fam, 0)


class TestSubstitute:
    @pytest.fixture()
    def dec(self):
        return decompose(FamilySpec(SigmaCase.ONE, -2.0, 4.0), 1)

    def test_cuberoot_route(self, dec):
        sub = substitute(dec, +1)
        assert sub.energy == pytest.approx(4.0)  # -C_{-1} = -alpha*beta/2
        t = terms_of(sub.potential(dec, 1))
        assert t[Fraction(2, 3)] == pytest.approx(1.0 * 1.5 ** (2 / 3))
        assert t[Fraction(-2, 3)] == pytest.approx(3.0 * (2 / 3) ** (2 / 3))
        assert t[Fraction(-2)] == pytest.approx(-5.0 / 36.0)
        # x(r) = (3r/2)^{2/3}
        assert evaluate(sub.map.x_of_r, 2.0 / 3.0) == pytest.approx(1.0)

    def test_sqrt_route(self, dec):
        sub = substitute(dec, -1)
        assert sub.energy == pytest.approx(-1.0)  # -C_{+1} = -alpha^2/4
        t = terms_of(sub.potential(dec, 1))
        assert t[Fraction(-1, 2)] == pytest.approx(-4.0 / math.sqrt(2.0))
        assert t[Fraction(-1)] == pytest.approx(1.5)
        assert t[Fraction(-2)] == pytest.approx(-3.0 / 16.0)
        assert evaluate(sub.map.x_of_r, 0.5) == pytest.approx(1.0)

    def test_map_derivative_relation(self, dec):
        # x'(r) = 1/sqrt(I(x(r))) for the map-defining term
        for k in (+1, -1):
            sub = substitute(dec, k)
            dx = simplify(differentiate(sub.map.x_of_r))
            for r in np.linspace(0.05, 10, 100):
                ix = evaluate(sub.map.i_map, evaluate(sub.map.x_of_r, r))
                assert evaluate(dx, r) == pytest.approx(
                    1.0 / math.sqrt(ix), rel=1e-9)

    def test_gauge_is_quarter_power(self, dec):
        sub = substitute(dec, +1)
        t = terms_of(sub.gauge)
        assert set(t) == {Fraction(1, 6)}  # (x(r))^{1/4} = const * r^{1/6}
        sub2 = substitute(dec, -1)
        t2 = terms_of(sub2.gauge)
        assert set(t2) == {Fraction(1, 4)}

    def test_unsolvable_map_raises(self, dec):
        bad = decompose(FamilySpec(SigmaCase.ONE, -2.0, 4.0), 1)
        odd = type(bad)(i_plus=exp_(VAR), i_minus=VAR, c_plus=1.0,
                        c_minus=1.0, c_zero=lambda ell: 0.0)
        with pytest.raises(MapNotClosedForm):
            substitute(odd, -1)

    def test_caller_supplied_map(self, dec):
        # supplying the closed form explicitly must reproduce the builtin
        sub = substitute(dec, -1, x_of_r=parse("sqrt(2*r)"))
        t = terms_of(sub.potential(dec, 1))
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
        with pytest.raises(NoAdmissibleRoot):
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
    def test_sqrt_route_pattern(self):
        g = reproduce_dw(1.0, 0.0, -1.0, which=1)
        t = terms_of(g.potential)
        assert set(t) == {Fraction(-1), Fraction(-2)}
        assert t[Fraction(-1)] == pytest.approx(-0.5)
        assert t[Fraction(-2)] == pytest.approx(-3.0 / 16.0)
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
    def test_cuberoot_potential_terms(self):
        t = terms_of(cuberoot_potential(1.0, 0.5))
        assert t[Fraction(2, 3)] == pytest.approx(1.5 ** (2 / 3))
        assert t[Fraction(-2, 3)] == pytest.approx(0.5 * (2 / 3) ** (2 / 3))
        assert t[Fraction(-2)] == pytest.approx(-5.0 / 36.0)

    def test_inverse_sqrt_potential_terms(self):
        t = terms_of(inverse_sqrt_potential(3.0, -1.0))
        assert t[Fraction(-1, 2)] == pytest.approx(3.0 / math.sqrt(2.0))
        assert t[Fraction(-1)] == pytest.approx(-0.5)
        assert t[Fraction(-2)] == pytest.approx(-3.0 / 16.0)

    def test_boundary_ratio_matches_model(self):
        p = solve_params_quantsys(1.0, 0.0, 0, "+")
        r0, r1 = 1e-3, 2e-3
        got = boundary_ratio(p, r0, r1)
        assert got == pytest.approx(
            evaluate(p.psi, r0) / evaluate(p.psi, r1), rel=1e-14)
