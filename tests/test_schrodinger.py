import hashlib
import math
from dataclasses import FrozenInstanceError
from fractions import Fraction

import mpmath
import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from solvable.errors import DegreeBeyondCutoff, InvalidParameter
from solvable.expr import (
    Add, Const, Exp, Fun, Mul, Pow, Var, add, compose, differentiate,
    evaluate, mul, parse, pow_,
)
from solvable.families import (
    ALL_CASES, FamilySpec, SigmaCase, cutoff, eigenvalue, sample_points,
    weight,
)
from solvable.generator import (
    decompose, reproduce_dw, solve_params_inverse_sqrt,
    solve_params_quantsys, substitute, transformed_system,
)
from solvable.oracle import (
    eigenvalues_below, fd_hamiltonian, integrate, residual, residual_norm,
)
from solvable.polynomials import phi
from solvable.schrodinger import (
    SchrodingerSystem, potential, potential_coefficients, variable_map,
    wavefunction,
)
from solvable.specfun import multiplication_part
from .test_families import TREE_ROWS, make

# x(s) through numpy's inverse functions, independent of the library's maps
X_OF_S = {
    SigmaCase.ONE: lambda s: s,
    SigmaCase.S: lambda s: 2.0 * np.sqrt(s),
    SigmaCase.ONE_MINUS_S2: np.arcsin,
    SigmaCase.S2_MINUS_1: np.arccosh,
    SigmaCase.S2: np.log,
    SigmaCase.S2_PLUS_1: np.arcsinh,
}
TWO_ROOT_CASES = (SigmaCase.ONE_MINUS_S2, SigmaCase.S2_MINUS_1)


def interior_points(family, n):
    """n points of the family's sample window, mapped to x."""
    return X_OF_S[family.sigma_case](sample_points(family, n))


# each constructor's systems, with one known eigenpair apiece
CONSTRUCTORS = {
    "potential": lambda: [potential(make(SigmaCase.S), 0, attach_ells=(0,))],
    "substitute": lambda: [
        substitute(decompose(FamilySpec(SigmaCase.ONE, -1.7, 0.9), 1, 2), k)
        for k in (1, -1)],
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
        assert evaluate(vm.inverse, 1.3) == 1.3
        assert vm.image == (-math.inf, math.inf)

    def test_two_sqrt_map(self):
        vm = variable_map(make(SigmaCase.S))
        assert evaluate(vm.inverse, 4.0) == pytest.approx(4.0)
        assert evaluate(vm.inverse, 2.0) == pytest.approx(1.0)
        assert vm.image == (0.0, math.inf)

    def test_exponential_map(self):
        vm = variable_map(make(SigmaCase.S2))
        assert evaluate(vm.inverse, 0.0) == pytest.approx(1.0)
        assert evaluate(vm.inverse, 1.0) == pytest.approx(math.e)
        assert vm.image == (-math.inf, math.inf)

    @pytest.mark.parametrize("case", ALL_CASES)
    def test_round_trip(self, case):
        # s(x(s)) = s with x(s) from numpy's inverse functions
        fam = make(case)
        vm = variable_map(fam)
        ss = sample_points(fam, 100)
        back = evaluate(vm.inverse, X_OF_S[case](ss))
        np.testing.assert_allclose(back, ss, rtol=1e-12, atol=1e-12)

    @pytest.mark.parametrize("case", ALL_CASES)
    def test_defining_derivative_relation(self, case):
        # ds/dx = kappa(s(x)) = sqrt(sigma(s(x))), via the symbolic
        # derivative of the inverse map
        fam = make(case)
        vm = variable_map(fam)
        xs = interior_points(fam, 100)
        want = np.sqrt(fam.sigma(evaluate(vm.inverse, xs)))
        np.testing.assert_allclose(
            evaluate(differentiate(vm.inverse), xs), want, rtol=1e-10)

    @pytest.mark.parametrize("case", ALL_CASES)
    def test_half_angle_factors(self, case):
        # one factor |s(x) - r| for each simple real root r of sigma
        fam = make(case)
        vm = variable_map(fam)
        roots = [r for r, _ in vm.root_factors]
        assert roots == ([1, -1] if case in TWO_ROOT_CASES else [])
        xs = interior_points(fam, 100)
        ss = evaluate(vm.inverse, xs)
        for r, dist in vm.root_factors:
            assert fam.sigma(r) == 0.0
            np.testing.assert_allclose(evaluate(dist, xs), np.abs(ss - r),
                                       rtol=1e-12)


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
        def oscillator_potential_value(family, m, x):
            al, be = family.alpha, family.beta
            return (al * al / 4.0) * x * x + (al * be / 2.0) * x \
                + be * be / 4.0 + al / 2.0 - al * m

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


# rational points, at least two inside each family's interval
EXACT_POINTS = tuple(map(Fraction, ("-5/2", "-1/3", "1/7", "2/3", "3/2",
                                    "7/2")))


class TestPotentialCoefficients:
    """The exact table that ``potential`` and ``decompose`` round, in
    Fractions against the module docstring's V_m = c_m + N_m/(16 sigma)."""

    def test_table_is_the_docstring_potential(self):
        for case, alpha, beta in TREE_ROWS:
            fam = FamilySpec(case, alpha, beta)
            al, be = fam.exact
            a, b, c = map(Fraction, fam.sigma_coeffs)
            lo, hi = fam.interval
            points = [s for s in EXACT_POINTS if lo < s < hi]
            assert len(points) >= 2
            for m in range(4):
                const, (n0, n1, n2) = potential_coefficients(fam, m)
                c_m = (al - a) / 2 - m * (m - 2) * a - m * al
                for s in points:
                    sigma = (a * s + b) * s + c
                    d, t = 2 * a * s + b, al * s + be  # sigma', tau
                    n_m = ((d - 2 * t) * (3 * d - 2 * t)
                           + 4 * m * (m - 2) * d * d + 8 * m * t * d)
                    got = const + (n0 + n1 * s + n2 * s * s) / (16 * sigma)
                    assert got == c_m + n_m / (16 * sigma), (case, m, s)

    def test_continuum_edge_is_lambda_squared(self):
        # V_m's limit as s -> +inf, where family_spectrum caps e_max: the
        # square of the cutoff Lambda = (1 - alpha)/2, whatever m
        quadratic = (SigmaCase.S2_MINUS_1, SigmaCase.S2, SigmaCase.S2_PLUS_1)
        for case, alpha, beta in TREE_ROWS:
            if case in quadratic:
                fam = FamilySpec(case, alpha, beta)
                edge = ((1 - fam.exact[0]) / 2) ** 2
                for m in range(4):
                    assert potential_coefficients(fam, m)[0] == edge, (case, m)


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


# captured once the s^2 and s^2+1 Psi rows were built directly in x
TREES_DIGEST = (
    "252ac1491bac243e234689efbc488aeffe0faeaf5f857743c9e809d5fff55d0d")


def trees_digest():
    """Digest of the repr of rho, and of V_m with every attached
    (lambda, Psi_{ell,m}), for m <= ell <= 3 below the cutoff."""
    h = hashlib.sha256()
    for case, alpha, beta in TREE_ROWS:
        fam = FamilySpec(case, alpha, beta)
        top = cutoff(fam).top_degree(3)
        h.update(f"{weight(fam)!r}\n".encode())
        for m in range(top + 1):
            system = potential(fam, m, attach_ells=range(m, top + 1))
            h.update(f"{system.potential!r} {system.interval!r}\n".encode())
            for lam, psi in system.known_eigenpairs:
                h.update(f"{lam.hex()} {psi!r}\n".encode())
    return h.hexdigest()


def test_weight_potential_and_wavefunction_trees_unchanged():
    assert trees_digest() == TREES_DIGEST


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
        xs = interior_points(fam, 100)
        for m in range(top + 1):
            system = potential(fam, m, attach_ells=range(m, top + 1))
            for lam, psi in system.known_eigenpairs:
                res = residual(system.potential, lam, psi, xs)
                scale = 1.0 + np.abs(lam * evaluate(psi, xs))
                assert np.max(np.abs(res) / scale) <= 1e-8

    # ell = 0 is left out: with lambda_0 = 0 the residual is measured
    # against 1 while Psi reaches e^48 in the window, so the norm there
    # reads the rounding of Psi'' and V Psi, not the closed form
    @settings(derandomize=True, max_examples=60, deadline=None)
    @given(st.floats(-3.0, -0.5), st.floats(-8.0, 8.0), st.integers(1, 12),
           st.integers(0, 2))
    @example(-2.0, -8.0, 12, 0)  # a monic phi in powers of x: 3.6e-2
    def test_oscillator_far_from_the_origin(self, alpha, ratio, ell, m):
        # the centre s0 = -beta/alpha = -ratio of the Hermite polynomial
        # runs over [-8, 8], so the window [-10, 10] holds points far
        # from it on one side
        fam = FamilySpec(SigmaCase.ONE, alpha, ratio * alpha)
        m = min(m, ell)
        assert residual_norm(potential(fam, m, attach_ells=(ell,))) <= 1e-10


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


# --- closed forms against 50-digit mpmath -------------------------------

_MP_FUNCTIONS = {
    "sin": mpmath.sin, "cos": mpmath.cos, "sinh": mpmath.sinh,
    "cosh": mpmath.cosh, "log": mpmath.log, "arcsin": mpmath.asin,
    "arctan": mpmath.atan,
}

# s(x) in mpmath, independent of the library's maps
_S_OF_X_MP = {
    SigmaCase.ONE: lambda x: x,
    SigmaCase.S: lambda x: x * x / 4,
    SigmaCase.ONE_MINUS_S2: mpmath.sin,
    SigmaCase.S2_MINUS_1: mpmath.cosh,
    SigmaCase.S2: mpmath.exp,
    SigmaCase.S2_PLUS_1: mpmath.sinh,
}

# admissible (alpha, beta) clear of each case's constraint boundary; alpha
# reaches below -5, so that m = 3 is admissible for the finite systems
_ALPHA = st.floats(-9.0, -0.5)
_PARAMETERS = {
    SigmaCase.ONE: st.tuples(_ALPHA, st.floats(-3.0, 3.0)),
    SigmaCase.S: st.tuples(st.floats(-4.0, -0.5), st.floats(0.5, 4.0)),
    SigmaCase.ONE_MINUS_S2: st.tuples(st.floats(-9.0, -1.0),
                                      st.floats(-0.9, 0.9)).map(
        lambda t: (t[0], -t[0] * t[1])),
    SigmaCase.S2_MINUS_1: st.tuples(_ALPHA, st.floats(0.5, 8.0)).map(
        lambda t: (t[0], t[1] - t[0])),
    SigmaCase.S2: st.tuples(_ALPHA, st.floats(0.5, 4.0)),
    SigmaCase.S2_PLUS_1: st.tuples(_ALPHA, st.floats(-3.0, 3.0)),
}


def mp_evaluate(e, x):
    """e at the mpf x, every operation in mpmath."""
    if isinstance(e, Const):
        return mpmath.mpf(e.value)
    if isinstance(e, Var):
        return x
    if isinstance(e, Add):
        return mpmath.fsum(mp_evaluate(t, x) for t in e.terms)
    if isinstance(e, Mul):
        return mpmath.fprod(mp_evaluate(f, x) for f in e.factors)
    if isinstance(e, Pow):
        q = e.exponent
        return mp_evaluate(e.base, x) ** (mpmath.mpf(q.numerator)
                                          / q.denominator)
    if isinstance(e, Exp):
        return mpmath.exp(mp_evaluate(e.arg, x))
    return _MP_FUNCTIONS[e.name](mp_evaluate(e.arg, x))


def mp_psi(family, ell, m):
    """Psi_{ell,m}(x) = sqrt(kappa rho) kappa^m P_ell^(m) at s = s(x), in
    mpmath from the family's weight and polynomial alone."""
    a, b, c = family.sigma_coeffs
    rho, poly = weight(family), phi(family, ell).deriv(m)

    def psi(x):
        s = _S_OF_X_MP[family.sigma_case](x)
        sig = (a * s + b) * s + c
        p = mpmath.fsum(k * s ** j for j, k in enumerate(poly.coeffs))
        return mpmath.sqrt(mpmath.sqrt(sig) * mp_evaluate(rho, s)) \
            * sig ** (mpmath.mpf(m) / 2) * p
    return psi


def eta_potential(family, m):
    """V_m as the eta derivation built it: eta = (kappa rho)^(-1/2),
    V = mult_m - sigma eta''/eta - tau eta'/eta at s = s(x), with both
    derivatives symbolic."""
    sig, tau = family.sigma_expr, family.tau_expr
    eta = pow_(mul(pow_(sig, Fraction(1, 2)), weight(family)),
               Fraction(-1, 2))
    d1 = differentiate(eta)
    d2 = differentiate(d1)
    inv_eta = pow_(eta, -1)
    v_s = add(
        multiplication_part(family, m),
        mul(-1, sig, d2, inv_eta),
        mul(-1, tau, d1, inv_eta),
    )
    return compose(v_s, variable_map(family).inverse)


def end_points(family):
    """The points 1e-6 of the x interval (1e-6 of a half-line) inside
    each finite end."""
    lo, hi = variable_map(family).image
    width = hi - lo if math.isfinite(hi - lo) else 1.0
    return [x for x, finite in ((lo + 1e-6 * width, math.isfinite(lo)),
                                (hi - 1e-6 * width, math.isfinite(hi)))
            if finite]


def tree_nodes(e):
    """Nodes of e counted as a tree, a shared subtree once per use."""
    children = {Add: lambda e: e.terms, Mul: lambda e: e.factors,
                Pow: lambda e: (e.base,), Exp: lambda e: (e.arg,),
                Fun: lambda e: (e.arg,)}.get(type(e), lambda e: ())
    return 1 + sum(tree_nodes(child) for child in children(e))


class TestClosedFormsAgainstMpmath:
    """V_m and Psi_{m,m} for every family and m <= 3 against 50-digit
    mpmath: Psi from the weight and polynomial, V = lambda_m + Psi''/Psi
    by mpmath's differentiation.  At 1e-6 from a finite end the 1-s^2
    half-angle u = pi/4 - x/2 carries one rounding of about 1e-16, which
    is 1e-10 relative to cos u there; in the interior V also matches the
    eta derivation evaluated through ``differentiate``."""

    @pytest.mark.parametrize("case", ALL_CASES)
    @settings(derandomize=True, max_examples=8, deadline=None)
    @given(data=st.data())
    def test_potential_and_wavefunction(self, case, data):
        fam = FamilySpec(case, *data.draw(_PARAMETERS[case]))
        interior = interior_points(fam, 5)
        for m in range(cutoff(fam).top_degree(3) + 1):
            v = potential(fam, m).potential
            psi, want_psi = wavefunction(fam, m, m), mp_psi(fam, m, m)
            v_eta = evaluate(eta_potential(fam, m), interior)
            np.testing.assert_allclose(evaluate(v, interior), v_eta,
                                       rtol=1e-11, atol=1e-11)
            for x, rtol in [(x, 1e-12) for x in interior] + [
                    (x, 1e-8) for x in end_points(fam)]:
                with mpmath.workdps(50):
                    xm = mpmath.mpf(x)
                    want_v = float(eigenvalue(fam, m) + mpmath.diff(
                        want_psi, xm, 2) / want_psi(xm))
                    want = float(want_psi(xm))
                got_v = float(evaluate(v, x))
                assert abs(got_v - want_v) <= rtol * (1 + abs(want_v))
                assert float(evaluate(psi, x)) == pytest.approx(want, rel=rtol)

    @pytest.mark.parametrize("case", ALL_CASES)
    def test_potential_tree_is_small(self, case):
        fam = FamilySpec(case, -8.0, 9.0 if case in (
            SigmaCase.S, SigmaCase.S2_MINUS_1) else 1.0)
        for m in range(cutoff(fam).top_degree(3) + 1):
            assert tree_nodes(potential(fam, m).potential) <= 25


def composed_wavefunction(family, ell, m):
    """Psi_{ell,m} as it was built before the direct forms: (sigma^(1/2)
    rho)^(1/2) sigma^(m/2) P_ell^(m) as an expression in s, composed with
    s(x)."""
    sig = family.sigma_expr
    amp = mul(pow_(mul(pow_(sig, Fraction(1, 2)), weight(family)),
                   Fraction(1, 2)),
              pow_(sig, Fraction(m, 2)), phi(family, ell).deriv(m).to_expr())
    return compose(amp, variable_map(family).inverse)


class TestDirectWavefunction:
    """The Psi built directly in x for sigma = s, s^2 and s^2+1 against
    the composed one.  Both hold the same tree for P_ell^(m)(s(x)); only
    the envelope's exponents are rounded differently (once, against once
    per constructor that folds them), so the two agree to rtol 1e-13 in
    the sample window (the worst of 900 draws was 1.8e-15, at s^2)."""

    @pytest.mark.parametrize("case", [SigmaCase.S, SigmaCase.S2,
                                      SigmaCase.S2_PLUS_1])
    @settings(derandomize=True, max_examples=40, deadline=None)
    @given(data=st.data())
    def test_matches_the_composed_wavefunction(self, case, data):
        fam = FamilySpec(case, *data.draw(_PARAMETERS[case]))
        ell = data.draw(st.integers(0, cutoff(fam).top_degree(4)))
        m = data.draw(st.integers(0, ell))
        xs = interior_points(fam, 25)
        np.testing.assert_allclose(
            evaluate(wavefunction(fam, ell, m), xs),
            evaluate(composed_wavefunction(fam, ell, m), xs),
            rtol=1e-13, atol=0.0)
