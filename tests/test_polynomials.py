import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.polynomial.polynomial import polyadd, polymul

from solvable.errors import (
    DegreeBeyondCutoff, InvalidParameter, NonFiniteValue,
)
from solvable.expr import evaluate
from solvable.families import (
    ALL_CASES, FamilySpec, SigmaCase, cutoff, eigenvalue, sample_points,
)
from solvable.polynomials import (
    Poly, classical_match, hermite_value, jacobi_value,
    laguerre_value, phi, phi_rodrigues,
)
from solvable.schrodinger import _HERMITE
from .test_families import make


class TestPoly:
    def test_degree_and_trim(self):
        p = Poly((1.0, 2.0, 0.0, 0.0))
        assert p.degree == 1
        assert p.coeffs == (1.0, 2.0)

    def test_eval_horner(self):
        p = Poly((1.0, -3.0, 2.0))
        assert p(2.0) == 1.0 - 6.0 + 8.0

    def test_derivative_drops_degree_by_one(self):
        p = Poly((5.0, 0.0, 3.0, 7.0))
        dp = p.deriv()
        assert dp.degree == p.degree - 1
        assert dp.coeffs == (0.0, 6.0, 21.0)

    def test_to_expr_round_trip(self):
        p = Poly((0.5, 0.0, -2.0, 1.0))
        e = p.to_expr()
        for s in np.linspace(-2, 2, 9):
            assert evaluate(e, s) == pytest.approx(p(s), rel=1e-14)


class TestPhi:
    def test_constant_solution(self):
        fam = FamilySpec(SigmaCase.ONE, -2.0, 0.0)
        assert phi(fam, 0).coeffs == (1.0,)

    def test_monic_hermite_two(self):
        fam = FamilySpec(SigmaCase.ONE, -2.0, 0.0)
        assert phi(fam, 2).coeffs == pytest.approx((-0.5, 0.0, 1.0))

    def test_monic_laguerre_one(self):
        fam = FamilySpec(SigmaCase.S, -1.0, 1.0)
        assert phi(fam, 1).coeffs == pytest.approx((-1.0, 1.0))

    def test_beyond_cutoff_raises(self):
        fam = FamilySpec(SigmaCase.S2, -7.0, 1.0)
        with pytest.raises(DegreeBeyondCutoff):
            phi(fam, 4)

    def test_rodrigues_negative_degree_raises(self):
        # ended in numpy's bare "ValueError: Coefficient array is empty"
        fam = FamilySpec(SigmaCase.ONE, -2.0, 0.0)
        with pytest.raises(InvalidParameter,
                           match="ell must be a nonnegative integer"):
            phi_rodrigues(fam, -1)

    @pytest.mark.parametrize("case", ALL_CASES)
    def test_ode_residual_coefficients(self, case):
        # sigma phi'' + tau phi' + lambda phi must vanish coefficientwise
        fam = make(case)
        cap = cutoff(fam)
        top = min(cap.max_degree if cap.max_degree is not None else 8, 8)
        a, b, c = fam.sigma_coeffs
        sigma = (c, b, a)
        tau = (fam.beta, fam.alpha)
        for ell in range(top + 1):
            p = phi(fam, ell)
            lam = eigenvalue(fam, ell)
            res = polyadd(polyadd(polymul(sigma, p.deriv(2).coeffs),
                                  polymul(tau, p.deriv().coeffs)),
                          lam * np.array(p.coeffs))
            bound = 1e-10 * (1.0 + max(abs(x) for x in p.coeffs))
            assert all(abs(x) <= bound for x in res)

    # the recursion's denominator (j - ell)(a (j + ell - 1) + alpha) is
    # nonzero for j < ell below the cutoff, even at alpha one ulp from the
    # integers where it could vanish for a = 1
    @settings(derandomize=True, max_examples=200, deadline=None)
    @given(case=st.sampled_from((SigmaCase.S2_MINUS_1, SigmaCase.S2,
                                 SigmaCase.S2_PLUS_1)),
           k=st.integers(1, 9), step=st.sampled_from((-1, 0, 1)))
    def test_denominator_nonzero_below_cutoff(self, case, k, step):
        alpha = float(-k)
        if step:
            alpha = math.nextafter(alpha, step * math.inf)
        fam = FamilySpec(case, alpha, k + 2.0)  # admissible for all three
        top = cutoff(fam).max_degree
        for ell in range(top + 1):
            p = phi(fam, ell)
            assert p.degree == ell
            assert all(map(math.isfinite, p.coeffs))
        with pytest.raises(DegreeBeyondCutoff):
            phi(fam, top + 1)

    @pytest.mark.parametrize("case,beta", [
        (SigmaCase.ONE, 1.0), (SigmaCase.S, 1.0),
        (SigmaCase.ONE_MINUS_S2, 0.0)])
    def test_denominator_nonzero_at_tiniest_alpha(self, case, beta):
        # alpha * (j - ell) is a nonzero subnormal, never 0.0: each degree
        # is finite and exact, or refused as non-finite
        fam = FamilySpec(case, -5e-324, beta)
        for ell in range(9):
            try:
                p = phi(fam, ell)
            except NonFiniteValue:
                continue
            assert p.degree == ell
            assert all(map(math.isfinite, p.coeffs))

    @pytest.mark.parametrize("case", [SigmaCase.ONE, SigmaCase.S])
    def test_non_finite_coefficient_raises(self, case):
        # dividing by alpha (j - ell) overflows c_{ell-1} to -inf from
        # ell = 1 on; phi names it rather than return a Poly of inf/NaN
        fam = FamilySpec(case, -5e-324, 1.0)
        for ell in range(1, 9):
            with pytest.raises(NonFiniteValue, match=(
                    rf"^coefficient c_{ell - 1} of phi at ell={ell} is -inf "
                    rf"for alpha=-4.94066e-324, beta=1$")):
                phi(fam, ell)

    def test_tiniest_alpha_stays_finite_on_one_minus_s2(self):
        fam = FamilySpec(SigmaCase.ONE_MINUS_S2, -5e-324, 0.0)
        for ell in range(9):
            assert all(map(math.isfinite, phi(fam, ell).coeffs))

    @pytest.mark.parametrize("case", ALL_CASES)
    def test_exact_degree(self, case):
        fam = make(case)
        cap = cutoff(fam)
        top = min(cap.max_degree if cap.max_degree is not None else 8, 8)
        for ell in range(top + 1):
            assert phi(fam, ell).degree == ell


class TestRodrigues:
    def test_order_zero_is_constant(self):
        for case in ALL_CASES:
            assert phi_rodrigues(make(case), 0).degree == 0

    def test_gaussian_weight_order_one(self):
        fam = FamilySpec(SigmaCase.ONE, -2.0, 0.0)
        p = phi_rodrigues(fam, 1)
        # d/ds[e^{-s^2}] / e^{-s^2} = -2 s
        assert p.coeffs == pytest.approx((0.0, -2.0), abs=1e-12)

    def test_laguerre_weight_order_one(self):
        fam = FamilySpec(SigmaCase.S, -1.0, 2.0)
        p = phi_rodrigues(fam, 1)
        # d/ds[s^2 e^{-s}] / (s e^{-s}) = 2 - s
        assert p.coeffs == pytest.approx((2.0, -1.0), rel=1e-12)

    @pytest.mark.parametrize("case", ALL_CASES)
    def test_proportional_to_recursion(self, case):
        fam = make(case)
        cap = cutoff(fam)
        top = min(cap.max_degree if cap.max_degree is not None else 5, 5)
        xs = sample_points(fam, 50)
        for ell in range(top + 1):
            p = phi(fam, ell)(xs)
            q = phi_rodrigues(fam, ell)(xs)
            const = np.dot(q, p) / np.dot(p, p)
            assert const != 0.0
            dev = np.max(np.abs(q - const * p)) / np.max(np.abs(q))
            assert dev <= 1e-9


class TestClassicalRecurrences:
    def test_hermite_values(self):
        xs = np.linspace(-2, 2, 5)
        assert np.allclose(hermite_value(2, xs), 4 * xs ** 2 - 2)
        assert np.allclose(hermite_value(3, xs), 8 * xs ** 3 - 12 * xs)

    def test_hermite_poly_coefficients(self):
        # the sigma = 1 wavefunction's H_n is 2^n times phi of tau = -2s
        def hermite(n):
            return Poly(tuple(2.0 ** n * c for c in phi(_HERMITE, n).coeffs))

        assert hermite(0).coeffs == (1.0,)
        assert hermite(2).coeffs == (-2.0, 0.0, 4.0)
        assert hermite(4).coeffs == (12.0, 0.0, -48.0, 0.0, 16.0)
        xs = np.linspace(-2, 2, 9)
        for n in range(16):
            assert np.allclose(hermite(n)(xs), hermite_value(n, xs),
                               rtol=1e-12, atol=0)

    def test_laguerre_values(self):
        xs = np.linspace(0.1, 4, 5)
        assert np.allclose(laguerre_value(1, 0.0, xs), 1 - xs)
        assert np.allclose(
            laguerre_value(2, 1.0, xs), xs ** 2 / 2 - 3 * xs + 3)

    def test_jacobi_values(self):
        xs = np.linspace(-0.9, 0.9, 7)
        # P_1^{(p,q)}(x) = (p - q)/2 + (p + q + 2) x / 2
        assert np.allclose(jacobi_value(1, 1.0, 2.0, xs), -0.5 + 2.5 * xs)
        # Legendre special case p = q = 0
        assert np.allclose(jacobi_value(2, 0.0, 0.0, xs),
                           1.5 * xs ** 2 - 0.5)


class TestClassicalMatch:
    def test_hermite_constant(self):
        fam = FamilySpec(SigmaCase.ONE, -2.0, 0.0)
        rep = classical_match(fam, 2)
        assert rep.constant == pytest.approx(4.0, rel=1e-12)
        assert rep.max_rel_dev < 1e-12

    def test_laguerre_constant(self):
        fam = FamilySpec(SigmaCase.S, -1.0, 1.0)
        rep = classical_match(fam, 1)
        assert rep.constant == pytest.approx(-1.0, rel=1e-12)
        assert rep.max_rel_dev < 1e-12

    def test_bessel_like_case(self):
        fam = FamilySpec(SigmaCase.S2, -7.0, 2.0)
        rep = classical_match(fam, 1)
        assert np.isfinite(rep.constant) and rep.constant != 0.0
        assert rep.max_rel_dev < 1e-10

    @pytest.mark.parametrize("case", [c for c in ALL_CASES
                                      if c is not SigmaCase.S2_PLUS_1])
    def test_all_real_parameter_cases(self, case):
        fam = make(case)
        cap = cutoff(fam)
        top = min(cap.max_degree if cap.max_degree is not None else 4, 4)
        for ell in range(top + 1):
            rep = classical_match(fam, ell)
            assert rep.max_rel_dev < 1e-10

    def test_complex_parameter_case_rejected(self):
        fam = make(SigmaCase.S2_PLUS_1)
        with pytest.raises(InvalidParameter, match="complex parameters"):
            classical_match(fam, 1)
