import math
from dataclasses import FrozenInstanceError

import numpy as np
import pytest

from solvable.errors import DegreeBeyondCutoff, InvalidParameter
from solvable.expr import differentiate, evaluate, parse, simplify
from solvable.families import (
    ALL_CASES, FamilySpec, SigmaCase, cutoff, eigenvalue, sample_points,
)
from solvable.generator import (
    reproduce_dw, solve_params_inverse_sqrt, solve_params_quantsys,
    transformed_system,
)
from solvable.oracle import (
    eigenvalues_below, fd_hamiltonian, integrate, residual,
)
from solvable.schrodinger import (
    SchrodingerSystem, oscillator_potential_value, potential, variable_map,
    wavefunction,
)
from .test_families import make


# each constructor's systems, with one known eigenpair apiece
CONSTRUCTORS = {
    "potential": lambda: [potential(make(SigmaCase.S), 0, attach_ells=(0,))],
    "transformed_system": lambda: [
        transformed_system(FamilySpec(SigmaCase.ONE, -1.7, 0.9), 2, 1, 1)],
    "reproduce_dw": lambda: [reproduce_dw(1.0, 0.0, -1.0, which=1)],
    "solve_params_quantsys": lambda: [
        solve_params_quantsys(1.0, 0.0, 1, "-")],
    "solve_params_inverse_sqrt": lambda: [
        solve_params_inverse_sqrt(-1.0, -6.75, 3),
        solve_params_inverse_sqrt(1.0, 3.0, 0),
        solve_params_inverse_sqrt(0.0, -2.0, 1)],
}


class TestOneSystemType:
    @pytest.mark.parametrize("make_systems", CONSTRUCTORS.values(),
                             ids=CONSTRUCTORS.keys())
    def test_frozen_system_with_one_eigenpair(self, make_systems):
        systems = make_systems()
        assert systems
        for system in systems:
            assert isinstance(system, SchrodingerSystem)
            with pytest.raises(FrozenInstanceError):
                system.potential = parse("x")
            with pytest.raises(FrozenInstanceError):
                system.known_eigenpairs = ()
            (lam, psi), = system.known_eigenpairs
            assert system.energy == lam
            assert system.psi is psi

    @pytest.mark.parametrize("ells", [(), (0, 1, 2)])
    def test_energy_and_psi_need_exactly_one_eigenpair(self, ells):
        system = potential(make(SigmaCase.S), 0, attach_ells=ells)
        count = len(ells)
        for name in ("energy", "psi"):
            with pytest.raises(InvalidParameter,
                               match=f"this system has {count}"):
                getattr(system, name)


class TestVariableMap:
    def test_identity_for_constant_sigma(self):
        vm = variable_map(FamilySpec(SigmaCase.ONE, -2.0, 0.0))
        assert evaluate(vm.forward, 1.3) == 1.3
        assert vm.image == (-math.inf, math.inf)

    def test_two_sqrt_map(self):
        vm = variable_map(make(SigmaCase.S))
        assert evaluate(vm.forward, 4.0) == pytest.approx(4.0)
        assert evaluate(vm.inverse, 4.0) == pytest.approx(4.0)
        assert vm.image == (0.0, math.inf)

    def test_exponential_map(self):
        vm = variable_map(make(SigmaCase.S2))
        assert evaluate(vm.forward, math.e) == pytest.approx(1.0)
        assert evaluate(vm.inverse, 0.0) == pytest.approx(1.0)
        assert vm.image == (-math.inf, math.inf)

    @pytest.mark.parametrize("case", ALL_CASES)
    def test_round_trip(self, case):
        fam = make(case)
        vm = variable_map(fam)
        for s in sample_points(fam, 100):
            back = evaluate(vm.inverse, evaluate(vm.forward, s))
            assert back == pytest.approx(s, rel=1e-12, abs=1e-12)

    @pytest.mark.parametrize("case", ALL_CASES)
    def test_defining_derivative_relation(self, case):
        # d(forward)/ds = 1/kappa(s), via the symbolic derivative
        fam = make(case)
        vm = variable_map(fam)
        dfwd = simplify(differentiate(vm.forward))
        for s in sample_points(fam, 100):
            want = 1.0 / math.sqrt(fam.sigma(s))
            assert evaluate(dfwd, s) == pytest.approx(want, rel=1e-10)


class TestPotential:
    def test_oscillator_ground_case(self):
        fam = FamilySpec(SigmaCase.ONE, -2.0, 0.0)
        sys0 = potential(fam, 0)
        xs = np.linspace(-5, 5, 41)
        assert np.allclose(evaluate(sys0.potential, xs), xs ** 2 - 1,
                           atol=1e-12)

    def test_shifted_oscillator_m1(self):
        fam = FamilySpec(SigmaCase.ONE, -2.0, 2.0)
        sys1 = potential(fam, 1)
        xs = np.linspace(-4, 4, 33)
        assert np.allclose(evaluate(sys1.potential, xs),
                           xs ** 2 - 2 * xs + 2, atol=1e-12)

    def test_closed_form_consistency_random_draws(self):
        # the symbolic pipeline must agree with the sigma=1 closed form
        rng = np.random.RandomState(42)
        xs = np.linspace(-3, 3, 20)
        for _ in range(20):
            alpha = -rng.uniform(0.5, 4.0)
            beta = rng.uniform(-3.0, 3.0)
            m = int(rng.randint(0, 6))
            fam = FamilySpec(SigmaCase.ONE, alpha, beta)
            v = potential(fam, m).potential
            want = np.array([oscillator_potential_value(fam, m, x)
                             for x in xs])
            got = evaluate(v, xs)
            assert np.all(np.abs(got - want) <= 1e-10 * (1 + np.abs(want)))

    def test_m_beyond_cutoff(self):
        fam = FamilySpec(SigmaCase.S2, -7.0, 1.0)
        with pytest.raises(DegreeBeyondCutoff):
            potential(fam, 4)

    def test_attach_validates_ell(self):
        fam = FamilySpec(SigmaCase.S2, -7.0, 1.0)
        with pytest.raises(DegreeBeyondCutoff):
            potential(fam, 0, attach_ells=(4,))


class TestWavefunction:
    def test_oscillator_first_excited(self):
        fam = FamilySpec(SigmaCase.ONE, -2.0, 0.0)
        psi = wavefunction(fam, 1, 0)
        for x in (-1.5, 0.4, 2.0):
            assert evaluate(psi, x) == pytest.approx(
                x * math.exp(-x * x / 2), rel=1e-12)

    def test_oscillator_derivative_order(self):
        fam = FamilySpec(SigmaCase.ONE, -2.0, 0.0)
        psi = wavefunction(fam, 1, 1)
        for x in (-1.0, 0.0, 1.7):
            assert evaluate(psi, x) == pytest.approx(
                math.exp(-x * x / 2), rel=1e-12)

    def test_laguerre_ground_state(self):
        fam = FamilySpec(SigmaCase.S, -1.0, 1.0)
        psi = wavefunction(fam, 0, 0)
        for x in (0.5, 1.7, 3.0):
            s = x * x / 4.0
            want = math.sqrt(math.sqrt(s) * math.exp(-s))
            assert evaluate(psi, x) == pytest.approx(want, rel=1e-12)

    @pytest.mark.parametrize("case", ALL_CASES)
    def test_square_integrable(self, case):
        fam = make(case)
        cap = cutoff(fam)
        top = min(cap.max_degree if cap.max_degree is not None else 3, 3)
        vm = variable_map(fam)
        for ell in (0, top):
            psi = wavefunction(fam, ell, 0)
            res = integrate(lambda x: evaluate(psi, x) ** 2, vm.image, 1e-8)
            assert math.isfinite(res.value) and res.value > 0


class TestResidual:
    def test_oscillator_pairs(self):
        fam = FamilySpec(SigmaCase.ONE, -2.0, 0.0)
        sys0 = potential(fam, 0, attach_ells=(0, 1, 2))
        (lam0, psi0), _, (lam2, psi2) = sys0.known_eigenpairs
        assert abs(residual(sys0.potential, lam0, psi0, 0.3)) < 1e-10
        assert abs(residual(sys0.potential, lam2, psi2, 1.5)) < 1e-9

    @pytest.mark.parametrize("case", ALL_CASES)
    def test_residual_sweep(self, case):
        fam = make(case)
        cap = cutoff(fam)
        top = min(cap.max_degree if cap.max_degree is not None else 4, 4)
        vm = variable_map(fam)
        xs = np.array([evaluate(vm.forward, s)
                       for s in sample_points(fam, 100)])
        for m in range(top + 1):
            system = potential(fam, m, attach_ells=range(m, top + 1))
            for lam, psi in system.known_eigenpairs:
                res = residual(system.potential, lam, psi, xs)
                scale = 1.0 + np.abs(lam * evaluate(psi, xs))
                assert np.max(np.abs(res) / scale) <= 1e-8


class TestOrthogonalityBothSpaces:
    @pytest.mark.parametrize("case", ALL_CASES)
    def test_x_space_matches_s_space(self, case):
        from solvable.specfun import scalar_product, special_function

        fam = make(case)
        cap = cutoff(fam)
        top = min(cap.max_degree if cap.max_degree is not None else 3, 3)
        vm = variable_map(fam)
        m = 0
        fns = [special_function(fam, ell, m) for ell in range(top + 1)]
        psis = [wavefunction(fam, ell, m) for ell in range(top + 1)]
        norms_s = [math.sqrt(scalar_product(fam, f, f)) for f in fns]
        for i in range(top + 1):
            for j in range(i + 1, top + 1):
                inner_s = scalar_product(
                    fam, lambda s: fns[i](s) / norms_s[i],
                    lambda s: fns[j](s) / norms_s[j])
                pi, pj = psis[i], psis[j]
                inner_x = integrate(
                    lambda x: evaluate(pi, x) * evaluate(pj, x)
                    / (norms_s[i] * norms_s[j]),
                    vm.image, 1e-9).value
                assert abs(inner_s) <= 1e-8
                assert abs(inner_x) <= 1e-8
                assert inner_x == pytest.approx(inner_s, abs=1e-8)


class TestNormsAgreeAcrossCoordinates:
    @pytest.mark.parametrize("case", [SigmaCase.S, SigmaCase.S2,
                                      SigmaCase.ONE_MINUS_S2])
    def test_change_of_variables_preserves_norms(self, case):
        from solvable.specfun import scalar_product, special_function

        fam = make(case)
        vm = variable_map(fam)
        for ell, m in ((0, 0), (2, 1), (3, 3)):
            f = special_function(fam, ell, m)
            norm_s = scalar_product(fam, f, f)
            psi = wavefunction(fam, ell, m)
            norm_x = integrate(lambda x: evaluate(psi, x) ** 2,
                               vm.image, 1e-9).value
            assert norm_x == pytest.approx(norm_s, rel=1e-8)


class TestSpectralOracleMatch:
    def test_oscillator_low_spectrum(self):
        fam = FamilySpec(SigmaCase.ONE, -2.0, 0.0)
        sys0 = potential(fam, 0)
        ham = fd_hamiltonian(sys0.potential, -10.0, 10.0, 4000)
        got = eigenvalues_below(ham, 9.0)
        assert len(got) == 5
        for ell, e in enumerate(got):
            assert e == pytest.approx(eigenvalue(fam, ell), abs=5e-4)
