import math

import numpy as np
import pytest

from solvable import expr, families, oracle, specfun
from solvable.acceptance import ACCEPTANCE_FAMILIES
from solvable.errors import DegreeBeyondCutoff, DomainError, InvalidParameter
from solvable.expr import ZERO, Const
from solvable.families import (
    ALL_CASES, FamilySpec, SigmaCase, cutoff, eigenvalue, sample_points,
)
from solvable.specfun import (
    apply_hm, hm_operator, multiplication_part, scalar_product,
    special_function,
)
from .test_families import make


class TestSpecialFunction:
    def test_order_zero_is_the_polynomial(self):
        fam = FamilySpec(SigmaCase.ONE, -2.0, 0.0)
        sf = special_function(fam, 2, 0)
        assert sf.poly_part.coeffs == pytest.approx((-0.5, 0.0, 1.0))

    def test_first_derivative_of_monic_quadratic(self):
        fam = FamilySpec(SigmaCase.ONE, -2.0, 0.0)
        sf = special_function(fam, 2, 1)
        assert sf.poly_part.coeffs == pytest.approx((0.0, 2.0))
        assert sf(0.5) == pytest.approx(1.0)  # kappa = 1

    def test_kappa_factor(self):
        fam = FamilySpec(SigmaCase.S, -1.0, 1.0)
        sf = special_function(fam, 1, 1)
        assert sf.poly_part.coeffs == (1.0,)
        assert sf(4.0) == pytest.approx(2.0)  # sqrt(s) * 1

    def test_degree_drop(self):
        fam = make(SigmaCase.S2)
        for ell in range(4):
            for m in range(ell + 1):
                sf = special_function(fam, ell, m)
                assert sf.poly_part.degree == ell - m

    def test_order_exceeds_degree(self):
        fam = FamilySpec(SigmaCase.ONE, -2.0, 0.0)
        with pytest.raises(InvalidParameter, match="m=2 exceeds ell=1"):
            special_function(fam, 1, 2)

    def test_beyond_cutoff(self):
        fam = FamilySpec(SigmaCase.S2, -7.0, 1.0)
        with pytest.raises(DegreeBeyondCutoff):
            special_function(fam, 4, 0)

    def test_order_zero_is_the_polynomial_part(self):
        sf = special_function(make(SigmaCase.S2_PLUS_1), 2, 0)
        s = np.linspace(-3.0, 3.0, 13)
        assert sf(s).tobytes() == sf.poly_part(s).tobytes()

    def test_negative_sigma_at_odd_order_is_named(self):
        # kappa = sqrt(1 - s^2) is not real past s = 1: a scalar gave
        # (1.06e-16+1.73j), an array NaN with a RuntimeWarning
        sf = special_function(FamilySpec(SigmaCase.ONE_MINUS_S2, -5, 1), 1, 1)
        with pytest.raises(DomainError, match=r"sigma\(s\) < 0 at s=2,"):
            sf(2.0)
        with pytest.raises(DomainError, match=r"sigma\(s\) < 0 at s=1.25,"):
            sf(np.array([0.5, 1.25, 2.0]))
        assert sf(0.5) == pytest.approx(math.sqrt(0.75) * sf.poly_part(0.5))

    def test_negative_sigma_at_even_order_is_real(self):
        # kappa^2 = sigma is a polynomial, real wherever sigma is
        sf = special_function(FamilySpec(SigmaCase.ONE_MINUS_S2, -5, 1), 2, 2)
        value = sf(2.0)
        assert isinstance(value, float)
        assert value == -3.0 * sf.poly_part(2.0)


class TestHmOperator:
    def test_multiplication_part_vanishes_at_m_zero(self):
        for case in ALL_CASES:
            fam = make(case)
            mult = multiplication_part(fam, 0)
            assert mult == Const(0.0)

    def test_eigenrelation_value_m0(self):
        fam = FamilySpec(SigmaCase.ONE, -2.0, 0.0)
        op = hm_operator(fam, 0)
        sf = special_function(fam, 2, 0)
        assert apply_hm(op, sf, 0.7) == pytest.approx(-0.04, abs=1e-12)

    def test_eigenrelation_value_m1(self):
        fam = FamilySpec(SigmaCase.ONE, -2.0, 0.0)
        op = hm_operator(fam, 1)
        sf = special_function(fam, 2, 1)
        assert apply_hm(op, sf, 1.0) == pytest.approx(8.0, abs=1e-12)

    def test_zero_function(self):
        fam = make(SigmaCase.S)
        op = hm_operator(fam, 1)
        assert apply_hm(op, ZERO, 0.5) == 0.0

    def test_singular_point(self):
        fam = make(SigmaCase.S)
        op = hm_operator(fam, 1)
        sf = special_function(fam, 1, 1)
        with pytest.raises(DomainError, match="sigma vanishes"):
            apply_hm(op, sf, 0.0)

    @pytest.mark.parametrize("case", ALL_CASES)
    def test_eigenrelation_sweep(self, case):
        # H_m F_{ell,m} = lambda_ell F_{ell,m} pointwise, all orders
        fam = make(case)
        cap = cutoff(fam)
        top = min(cap.max_degree if cap.max_degree is not None else 8, 8)
        pts = sample_points(fam, 100)
        for ell in range(top + 1):
            lam = eigenvalue(fam, ell)
            for m in range(ell + 1):
                op = hm_operator(fam, m)
                sf = special_function(fam, ell, m)
                want = lam * sf(pts)
                got = np.array([apply_hm(op, sf, s) for s in pts])
                assert np.all(np.abs(got - want) <= 1e-8 * (1 + np.abs(want)))

    @pytest.mark.parametrize("case", ALL_CASES)
    def test_m_zero_reduces_to_bare_operator(self, case):
        fam = make(case)
        op = hm_operator(fam, 0)
        sf = special_function(fam, 2, 0) if not fam.sigma_case.finite_system \
            else special_function(fam, 1, 0)
        d1 = sf.poly_part.deriv()
        d2 = d1.deriv()
        for s in sample_points(fam, 25):
            want = -fam.sigma(s) * d2(s) - fam.tau(s) * d1(s)
            got = apply_hm(op, sf, s)
            assert got == pytest.approx(want, rel=1e-12, abs=1e-12)


class _Counted:
    """A callable that counts its calls."""

    def __init__(self, f):
        self.f, self.calls = f, 0

    def __call__(self, s):
        self.calls += 1
        return self.f(s)


class TestScalarProduct:
    @pytest.mark.parametrize("row", ACCEPTANCE_FAMILIES,
                             ids=lambda row: row[0].value)
    def test_norm_evaluates_f_once_with_the_same_floats(self, row):
        # <F, F> squares one evaluation of F a call; two evaluations of
        # the same F give the same floats, so the norm is unchanged
        fam = FamilySpec(*row)
        top = cutoff(fam).top_degree(3)
        for ell, m in ((top, 0), (top, min(top, 1))):
            f = _Counted(special_function(fam, ell, m))
            norm = scalar_product(fam, f, f)
            once = f.calls
            pair = scalar_product(fam, f, lambda s: f(s))
            assert norm.hex() == pair.hex()
            assert f.calls - once == 2 * once

    def test_builds_and_walks_no_expr(self, monkeypatch):
        # the weight is weight_function's floats: neither weight() nor
        # evaluate runs, wherever either name was imported
        def products():
            out = []
            for row in ACCEPTANCE_FAMILIES:
                fam = FamilySpec(*row)
                f, g = (special_function(fam, ell, 1) for ell in (1, 2))
                out += [scalar_product(fam, f, f), scalar_product(fam, f, g)]
            return out

        def refuse(*args):
            raise AssertionError("scalar_product built or walked an Expr")

        want = products()
        originals = {"weight": families.weight, "evaluate": expr.evaluate}
        for module in (expr, families, oracle, specfun):
            for name, fn in originals.items():
                if getattr(module, name, None) is fn:
                    monkeypatch.setattr(module, name, refuse)
        assert products() == want

    def test_gaussian_normalization(self):
        fam = FamilySpec(SigmaCase.ONE, -2.0, 0.0)
        val = scalar_product(fam, lambda s: 1.0, lambda s: 1.0)
        assert val == pytest.approx(math.sqrt(math.pi), abs=1e-9)

    def test_odd_integrand_vanishes(self):
        fam = FamilySpec(SigmaCase.ONE, -2.0, 0.0)
        p1 = special_function(fam, 1, 0)
        p2 = special_function(fam, 2, 0)
        assert abs(scalar_product(fam, p1, p2)) < 1e-10

    def test_gamma_identity(self):
        # integral of (s-1) e^{-s} over (0, inf) vanishes
        fam = FamilySpec(SigmaCase.S, -1.0, 1.0)
        p0 = special_function(fam, 0, 0)
        p1 = special_function(fam, 1, 0)
        assert abs(scalar_product(fam, p0, p1)) < 1e-9

    @pytest.mark.parametrize("case", ALL_CASES)
    def test_associated_orthogonality(self, case):
        # fixed m: <F_{ell,m}, F_{k,m}> = 0 for ell != k, checked on
        # unit-normalized functions so the bound is absolute
        fam = make(case)
        cap = cutoff(fam)
        top = min(cap.max_degree if cap.max_degree is not None else 4, 4)
        for m in range(min(top, 2) + 1):
            fns = {}
            for ell in range(m, top + 1):
                f = special_function(fam, ell, m)
                nrm = math.sqrt(scalar_product(fam, f, f))
                fns[ell] = (f, nrm)
            for ell in fns:
                for k in fns:
                    if k <= ell:
                        continue
                    f, nf = fns[ell]
                    g, ng = fns[k]
                    inner = scalar_product(
                        fam, lambda s: f(s) / nf, lambda s: g(s) / ng)
                    assert abs(inner) <= 1e-8
