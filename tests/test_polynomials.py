import numpy as np
import pytest

from solvable.errors import (
    DegreeBeyondCutoff, InvalidParameter, UnsupportedCorrespondence,
)
from solvable.expr import evaluate
from solvable.families import (
    ALL_CASES, FamilySpec, SigmaCase, cutoff, eigenvalue, sample_points,
)
from solvable.polynomials import (
    Poly, classical_match, hermite_poly, hermite_value, jacobi_value,
    laguerre_value, phi, phi_rodrigues,
)
from .test_families import make


class TestPoly:
    def test_degree_and_trim(self):
        p = Poly((1.0, 2.0, 0.0, 0.0))
        assert p.degree == 1
        assert p.coeffs == (1.0, 2.0)

    def test_eval_horner(self):
        p = Poly((1.0, -3.0, 2.0))
        assert p(2.0) == 1.0 - 6.0 + 8.0

    def test_arithmetic(self):
        p = Poly((1.0, 1.0))
        q = Poly((-1.0, 1.0))
        assert (p * q).coeffs == (-1.0, 0.0, 1.0)
        assert (p + q).coeffs == (0.0, 2.0)

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
        sigma = Poly((c, b, a))
        tau = Poly((fam.beta, fam.alpha))
        for ell in range(top + 1):
            p = phi(fam, ell)
            lam = eigenvalue(fam, ell)
            res = sigma * p.deriv(2) + tau * p.deriv() + lam * p
            bound = 1e-10 * (1.0 + max(abs(x) for x in p.coeffs))
            assert all(abs(x) <= bound for x in res.coeffs)

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
        assert hermite_poly(0).coeffs == (1.0,)
        assert hermite_poly(2).coeffs == (-2.0, 0.0, 4.0)
        assert hermite_poly(4).coeffs == (12.0, 0.0, -48.0, 0.0, 16.0)

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
        with pytest.raises(UnsupportedCorrespondence):
            classical_match(fam, 1)
