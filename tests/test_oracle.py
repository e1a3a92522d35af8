import dataclasses
import hashlib
import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.linalg import eigh_tridiagonal

from solvable import FamilySpec, SigmaCase, acceptance, specfun
from solvable.errors import (
    BisectionNoConverge, DomainError, InvalidParameter, NonFiniteValue,
    QuadratureNoConverge, SingularPoint,
)
from solvable.expr import evaluate, parse
from solvable.schrodinger import potential, variable_map, wavefunction
from solvable import oracle
from solvable.oracle import (
    FDHamiltonian, eigenvalues_below, fd_hamiltonian, fd_nodes,
    indicial_grading, integrate, residual, residual_norm,
    richardson_eigenvalues, sturm_count,
)


class TestIntegrate:
    def test_gaussian(self):
        res = integrate(lambda s: np.exp(-s * s), (-math.inf, math.inf),
                        1e-10)
        assert res.value == pytest.approx(math.sqrt(math.pi), abs=1e-10)
        assert res.error_estimate <= 1e-10

    def test_unit_box(self):
        res = integrate(lambda s: np.ones_like(s), (0.0, 1.0), 1e-12)
        assert res.value == pytest.approx(1.0, abs=1e-13)

    def test_gamma_two(self):
        res = integrate(lambda s: s * np.exp(-s), (0.0, math.inf), 1e-10)
        assert res.value == pytest.approx(1.0, abs=1e-10)

    def test_polynomial_tail(self):
        res = integrate(lambda s: (1.0 + s) ** -3, (0.0, math.inf), 1e-10)
        assert res.value == pytest.approx(0.5, abs=1e-10)

    def test_integrable_endpoint_singularity(self):
        res = integrate(lambda s: 1.0 / np.sqrt(s), (0.0, 1.0), 1e-8)
        assert res.value == pytest.approx(2.0, abs=1e-8)

    def test_expr_input(self):
        res = integrate(parse("exp(-x)"), (0.0, math.inf), 1e-10)
        assert res.value == pytest.approx(1.0, abs=1e-10)

    def test_vectorized_callable_gets_whole_panels(self):
        # a callable defined only on (1, inf) is called with whole panels
        # of nodes, all inside the interval, never point by point
        sizes = []

        def f(s):
            s = np.asarray(s)
            if np.any(s <= 1.0):
                raise ValueError("outside (1, inf)")
            sizes.append(s.size)
            return np.exp(1.0 - s)

        res = integrate(f, (1.0, math.inf), 1e-10)
        assert res.value == pytest.approx(1.0, abs=1e-10)
        assert sizes and min(sizes) >= 8

    def test_divergent_integral_raises(self):
        with pytest.raises(QuadratureNoConverge):
            integrate(lambda s: 1.0 / (1.0 + s), (0.0, math.inf), 1e-8)

    def test_error_estimate_decreases_under_refinement(self):
        f = lambda s: np.exp(-s * s) * np.cos(3 * s)
        coarse = integrate(f, (-math.inf, math.inf), 1e-6)
        fine = integrate(f, (-math.inf, math.inf), 1e-12)
        assert fine.error_estimate < coarse.error_estimate
        assert fine.nodes > coarse.nodes


# (integrand, interval, tol): a finite interval, both half-lines, the whole
# line, an endpoint singularity, an integrand that is inf * 0 = NaN in the
# panels next to 0 (so it raises), and a slowly decaying oscillatory tail
# whose march resets its run of quiet blocks twice
PINNED_INTEGRALS = (
    (lambda s: np.exp(-s) * np.cos(5.0 * s), (0.0, 3.0), 1e-12),
    (lambda s: s * np.exp(-s), (0.0, math.inf), 1e-10),
    (lambda s: np.exp(2.0 * s) / (1.0 + s * s), (-math.inf, 0.5), 1e-10),
    (lambda s: np.exp(-s * s) * np.cos(3.0 * s), (-math.inf, math.inf),
     1e-12),
    (lambda s: 1.0 / np.sqrt(s), (0.0, 1.0), 1e-8),
    (lambda s: np.exp(1.0 / s) * np.exp(-2.0 / s), (0.0, 1.0), 1e-10),
    (lambda s: np.cos(0.7 * s) / (1.0 + s) ** 4, (0.0, math.inf), 1e-8),
)

# captured before integrand calls were batched across panels
PINNED_DIGEST = (
    "ec93774e434e7fc7beaf4cb98820b3967e507de696b8d0191da3a0814cc2b49a")


class TestIntegratePinned:
    """``integrate`` bit for bit: value, error estimate, node count and
    window of each pinned integral, or its QuadratureNoConverge message."""

    def test_digest(self):
        lines = []
        with np.errstate(over="ignore", invalid="ignore"):
            for f, interval, tol in PINNED_INTEGRALS:
                try:
                    r = integrate(f, interval, tol)
                except QuadratureNoConverge as exc:
                    lines.append(str(exc))
                    continue
                lines.append(" ".join([
                    r.value.hex(), r.error_estimate.hex(), str(r.nodes),
                    r.window[0].hex(), r.window[1].hex()]))
        digest = hashlib.sha256("\n".join(lines).encode()).hexdigest()
        assert digest == PINNED_DIGEST

    def test_divergent_message(self):
        with pytest.raises(QuadratureNoConverge) as info:
            integrate(lambda s: 1.0 / (1.0 + s), (0.0, math.inf), 1e-8)
        assert str(info.value) == (
            "error estimate inf exceeds target 4.85e-07 after 5088 nodes")

    def test_s2_ladder_message(self):
        # psi_3 of the s^2 family close to its cutoff: psi turns NaN far
        # out on the march, so the error estimate is NaN
        fam = FamilySpec(SigmaCase.S2, -6.05, 1.04)
        psi = wavefunction(fam, 3, 0)
        with np.errstate(invalid="ignore"), \
                pytest.raises(QuadratureNoConverge) as info:
            integrate(lambda x: evaluate(psi, x) ** 2,
                      variable_map(fam).image, 1e-9)
        assert str(info.value) == (
            "error estimate nan exceeds target 1e-09 after 1944 nodes")

    def test_calls_batch_panels(self):
        # the first call holds the 4 core panels and the first 3 march
        # blocks of each side (24 nodes a panel); the march blocks of a
        # Gaussian on R are [1, 3], [3, 7], ... on each side, the third of
        # them the first quiet one, so each side then needs one more
        # batch of the 3 - 1 blocks that end it; every refinement call
        # holds the two halves of one or more panels
        sizes = []

        def f(s):
            sizes.append(s.size)
            return np.exp(-s * s)

        res = integrate(f, (-math.inf, math.inf), 1e-10)
        assert res.calls == len(sizes)
        assert sum(sizes) == res.nodes
        assert sizes[0] == 96 + 2 * 72
        assert sizes[1:3] == [48, 48]
        assert all(n > 0 and n % 48 == 0 for n in sizes[3:])
        # one panel set per call takes 7 calls here, [96, 72, 48, 72, 48,
        # 48, 48]: core, two batches a side, two refinements
        assert res.calls < 7

    def test_points_are_the_nodes(self):
        # no panel is evaluated that the result does not count: the points
        # f gets sum to the node count, or to the count in the message
        with np.errstate(over="ignore", invalid="ignore"):
            for f, interval, tol in PINNED_INTEGRALS:
                points = []
                try:
                    nodes = integrate(lambda s: points.append(s.size)
                                      or f(s), interval, tol).nodes
                except QuadratureNoConverge as exc:
                    nodes = int(str(exc).split()[-2])
                assert sum(points) == nodes

    def test_infinite_error_panel_is_split_alone(self):
        # inf at a node of the 8-point rule alone: the panel's value is
        # finite and its error infinite, and taking that error out of the
        # sum leaves NaN, which ends refinement after this one split
        node = 0.125 + 0.125 * np.polynomial.legendre.leggauss(8)[0][0]
        sizes = []

        def f(s):
            sizes.append(s.size)
            return np.where(s == node, np.inf, np.cos(200.0 * s))

        with pytest.raises(QuadratureNoConverge) as info:
            integrate(f, (0.0, 1.0), 1e-10)
        assert str(info.value) == (
            "error estimate nan exceeds target 1e-10 after 144 nodes")
        assert sizes == [96, 48]

    @pytest.mark.parametrize("interval,w,beyond,sizes_want", [
        # core + first march batch, then core, then the batch that raises
        ((0.0, math.inf), 20.0, 5.0, [96 + 72, 96, 72]),
        # a refinement round of 4 panels' halves, then one panel a call
        ((0.0, 1.0), 200.0, 0.75, [96, 4 * 48, 48, 48, 48, 48]),
    ])
    def test_failed_joint_call_falls_back(self, interval, w, beyond,
                                          sizes_want):
        # f raises on any call but the core's that holds a point beyond
        # ``beyond``; once a call joining several panel sets raises, the
        # sets go one call each, as one set per call evaluates them
        # ([96, 72] and [96, 48, 48, 48, 48]), so the exception is the
        # one that evaluation raises
        sizes = []

        def f(s):
            sizes.append(s.size)
            if s.size != 96 and np.any(s > beyond):
                raise ValueError(f"{s.size} points")
            return np.cos(w * s) * np.exp(-s)

        with pytest.raises(ValueError) as info:
            integrate(f, interval, 1e-10)
        assert str(info.value) == f"{sizes_want[-1]} points"
        assert sizes == sizes_want


def _recording_integrate(records):
    """``integrate`` that appends (result, points f got) to ``records``."""
    def wrapped(f, interval, tol=1e-10, **kwargs):
        f = oracle._as_array_function(f)
        points = [0]

        def counted(s):
            points[0] += s.size
            return f(s)

        res = integrate(counted, interval, tol, **kwargs)
        records.append((res, points[0]))
        return res
    return wrapped


@pytest.fixture(scope="class")
def criterion_4_integrals():
    """(result, points) of every integral criterion 4 makes."""
    records = []
    with pytest.MonkeyPatch.context() as mp:
        recording = _recording_integrate(records)
        mp.setattr(acceptance, "integrate", recording)
        mp.setattr(specfun, "integrate", recording)
        ok, _ = acceptance.criterion_4_orthogonality()
    assert ok
    return records


class TestCriterion4Calls:
    """The integrand calls of criterion 4's ladders (six families, every
    m it checks, 175,488 nodes in all)."""

    def test_points_are_the_nodes(self, criterion_4_integrals):
        assert len(criterion_4_integrals) == 452
        for res, points in criterion_4_integrals:
            assert points == res.nodes

    def test_calls_at_most_seventy_percent(self, criterion_4_integrals):
        # one panel set per call (core, each march batch, each refined
        # panel's halves) makes 2811 calls over these ladders
        calls = sum(res.calls for res, _ in criterion_4_integrals)
        assert calls <= 0.7 * 2811


class TestFDHamiltonian:
    def test_oscillator_spectrum(self):
        ham = fd_hamiltonian(lambda x: x * x - 1.0, -10.0, 10.0, 4000)
        got = eigenvalues_below(ham, 9.0)
        assert len(got) == 5
        for ell, e in enumerate(got):
            assert e == pytest.approx(2.0 * ell, abs=5e-4)

    def test_particle_in_a_box(self):
        ham = fd_hamiltonian(lambda x: np.zeros_like(x), 0.0, math.pi, 2000)
        got = eigenvalues_below(ham, 10.0)
        assert [round(e) for e in got] == [1, 4, 9]
        for e, want in zip(got, (1.0, 4.0, 9.0)):
            assert e == pytest.approx(want, abs=1e-3)

    def test_non_finite_potential_raises(self):
        # a NaN pivot counts as "not below", so it would hide eigenvalues
        with pytest.raises(NonFiniteValue,
                           match=r"potential is nan at x=0\.25"):
            fd_hamiltonian(lambda x: np.where(x > 0.0, np.nan, x * x),
                           -2.0, 2.0, 16)
        with pytest.raises(NonFiniteValue, match="potential is inf at x=1"):
            fd_hamiltonian(lambda x: np.where(x == 1.0, np.inf, x),
                           0.0, 4.0, 16, grading=2.0)

    @pytest.mark.parametrize("ratio", [math.nan, math.inf, -math.inf])
    def test_non_finite_left_ratio_is_named(self, ratio):
        # a NaN or infinite wall ratio would surface only as a NaN first
        # diagonal entry, which names neither the ratio nor the wall
        with pytest.raises(InvalidParameter,
                           match=f"left_ratio must be finite, got {ratio:g}"):
            fd_hamiltonian(parse("x"), 1e-3, 40.0, 64, left_ratio=ratio,
                           grading=2.0)

    def test_positive_operator_empty_list(self):
        ham = fd_hamiltonian(lambda x: np.zeros_like(x), 0.0, 1.0, 16)
        assert eigenvalues_below(ham, -1.0) == []

    def test_matches_lapack(self):
        ham = fd_hamiltonian(lambda x: 0.25 * x ** 4 - 2 * x * x,
                             -8.0, 8.0, 1000)
        ours = eigenvalues_below(ham, 2.0)
        lo = float(np.min(ham.diag) - 2.0 * np.max(np.abs(ham.off))) - 1.0
        ref = eigh_tridiagonal(ham.diag, ham.off, select="v",
                               select_range=(lo, 2.0))[0]
        assert len(ours) == len(ref)
        assert np.allclose(ours, ref, atol=1e-9)

    def test_order_of_accuracy(self):
        # halving h reduces the eigenvalue error by ~4 (h^2 stencil)
        errs = {}
        for n in (500, 1000):
            ham = fd_hamiltonian(lambda x: x * x - 1.0, -10.0, 10.0, n)
            got = eigenvalues_below(ham, 7.0)
            errs[n] = [abs(e - 2.0 * ell) for ell, e in enumerate(got)]
        for e_coarse, e_fine in zip(errs[500], errs[1000]):
            assert 3.5 <= e_coarse / e_fine <= 4.5

    def test_sturm_count_monotone_with_unit_jumps(self):
        ham = fd_hamiltonian(lambda x: x * x - 1.0, -10.0, 10.0, 800)
        evs = eigenvalues_below(ham, 9.0)
        shifts = np.sort(np.concatenate([
            np.array(evs) - 1e-6, np.array(evs) + 1e-6, [-5.0, 9.0]]))
        counts = sturm_count(ham, shifts)
        assert np.all(np.diff(counts) >= 0)
        for e in evs:
            below, above = sturm_count(ham, [e - 1e-6, e + 1e-6])
            assert above - below == 1

    def test_richardson_improves_oscillator(self):
        fine, coarse, extrap = richardson_eigenvalues(
            lambda x: x * x - 1.0, -10.0, 10.0, 2000, 7.0)
        for ell, (f, e) in enumerate(zip(fine, extrap)):
            assert abs(e - 2.0 * ell) < abs(f - 2.0 * ell)


def _cuberoot_graded(n_sub, ratio=0.0):
    from solvable.generator import cuberoot_potential

    return fd_hamiltonian(cuberoot_potential(1.0, 0.0), 1e-3, 40.0, n_sub,
                          left_ratio=ratio,
                          grading=indicial_grading(1.0 / 6.0))


class TestMeshSpacing:
    @pytest.mark.parametrize("grading", [1.0, 2.0],
                             ids=["uniform", "graded"])
    def test_spacing_whose_square_underflows_is_named(self, grading):
        # 1/h^2 would be a division by zero or inf
        with pytest.raises(InvalidParameter,
                           match="mesh spacing .* its square underflows"):
            fd_hamiltonian(parse("x"), 0.0, 1e-300, 32, grading=grading)


class TestConstantPotential:
    @pytest.mark.parametrize("build", [
        lambda v: fd_hamiltonian(v, 0.0, 1.0, 32),
        lambda v: fd_hamiltonian(v, 0.0, 1.0, 32, grading=2.0),
    ], ids=["uniform", "graded"])
    def test_constant_shifts_spectrum(self, build):
        # evaluate() of a constant Expr is a scalar; it must broadcast
        base = eigenvalues_below(build(parse("0")), 60.0)
        shifted = eigenvalues_below(build(parse("2")), 62.0)
        assert len(base) >= 2 and len(shifted) == len(base)
        assert np.allclose(np.array(shifted) - base, 2.0, atol=1e-7)


class TestImmutableResults:
    def test_fd_hamiltonian_arrays_are_read_only(self):
        for ham in (fd_hamiltonian(parse("x^2"), -4.0, 4.0, 64),
                    fd_hamiltonian(parse("x"), 0.0, 4.0, 64, grading=2.0)):
            assert [f.name for f in dataclasses.fields(ham)] == ["diag",
                                                                 "off"]
            for value in (ham.diag, ham.off):
                with pytest.raises(ValueError):
                    value[0] = 0.0

    @pytest.mark.parametrize("diag,off", [
        ([2.0, 2.0, 2.0], -1.0),
        ([2.0, 2.0, 2.0], [-1.0]),
        ([2.0, 2.0, 2.0], [-1.0, -1.0, -1.0]),
        ([2.0, 2.0, 2.0], [[-1.0, -1.0]]),
        ([[2.0, 2.0]], [-1.0]),
        ([], []),
    ], ids=["scalar", "short", "long", "2-D", "2-D diagonal", "empty"])
    def test_off_diagonal_of_wrong_shape_is_named(self, diag, off):
        # the Sturm layer would otherwise meet numpy's broadcast error
        with pytest.raises(InvalidParameter,
                           match=r"off-diagonal of n - 1, got shapes"):
            FDHamiltonian(np.array(diag), np.array(off))

    def test_quad_result_is_frozen(self):
        res = integrate(lambda s: s * s, (0.0, 1.0))
        with pytest.raises(dataclasses.FrozenInstanceError):
            res.value = 0.0


class TestGradedMesh:
    def test_uniform_nodes_reproduce_uniform_stencil_bit_for_bit(self):
        # a dyadic spacing makes every node and spacing exact, so the one
        # stencil must reduce to 2/h^2 + V and -1/h^2 exactly
        v = lambda x: x * x - 1.0
        ham = fd_hamiltonian(v, -4.0, 4.0, 256, left_ratio=0.3)
        h = 8.0 / 256
        diag = 2.0 / h ** 2 + v(-4.0 + h * np.arange(1, 256))
        diag[0] -= 0.3 / h ** 2
        assert np.array_equal(ham.diag, diag)
        assert np.array_equal(ham.off, np.full(254, -1.0 / h ** 2))

    def test_nodes_graded_toward_origin(self):
        nodes = fd_nodes(1e-3, 40.0, 100, 3.0)
        assert nodes[0] == 1e-3 and nodes[-1] == 40.0
        assert np.all(np.diff(np.diff(nodes)) > 0.0)
        assert np.allclose(np.cbrt(nodes), np.linspace(0.1, np.cbrt(40.0),
                                                       101))

    @pytest.mark.parametrize("x_lo,x_hi,grading", [
        (5.0, 1.0, 1.0), (1.0, 1.0, 1.0), (-1.0, 1.0, 2.0)])
    def test_invalid_mesh_raises_domain_error(self, x_lo, x_hi, grading):
        with pytest.raises(DomainError):
            fd_hamiltonian(lambda x: x * x, x_lo, x_hi, 100,
                           grading=grading)

    @pytest.mark.parametrize("gamma", [1.0 / 6.0, 5.0 / 6.0])
    def test_grading_cancels_leading_truncation_on_indicial_solution(
            self, gamma):
        # the stencil's error on r^gamma is second order on other gradings
        # and fourth order on indicial_grading(gamma)
        def worst(p, n):
            x = fd_nodes(1e-3, 40.0, n, p)
            h, r, u = np.diff(x), x[1:-1], x ** gamma
            d2 = 2.0 / (h[:-1] + h[1:]) * ((u[2:] - u[1:-1]) / h[1:]
                                           - (u[1:-1] - u[:-2]) / h[:-1])
            exact = gamma * (gamma - 1.0) * r ** (gamma - 2.0)
            return np.max(np.abs(d2 / exact - 1.0))

        p = indicial_grading(gamma)
        assert worst(p, 800) / worst(p, 1600) > 10.0
        assert worst(2.0, 800) / worst(2.0, 1600) < 5.0

    def test_graded_matches_lapack_with_explicit_tol(self):
        # scipy's default tol is eps * ||T||, about 1e-6 here, so it is
        # given explicitly
        ham = _cuberoot_graded(2000, ratio=0.5)
        ours = eigenvalues_below(ham, 8.0)
        ref = eigh_tridiagonal(ham.diag, ham.off, select="v",
                               select_range=(-1e3, 8.0),
                               lapack_driver="stebz", tol=1e-12)[0]
        assert len(ours) == len(ref) >= 4
        assert np.allclose(ours, ref, rtol=0.0, atol=1e-8)

    def test_cuberoot_ground_state_second_order(self):
        from solvable.acceptance import cuberoot_containment

        err = {}
        for n_sub in (2000, 4000):
            [(_, e, want)] = cuberoot_containment(1.0, 0.0, [0],
                                                  n_sub=n_sub)
            err[n_sub] = abs(e - want)
        assert 3.0 <= err[2000] / err[4000] <= 5.0


class TestResidualNorm:
    def test_exact_oscillator_pair(self):
        from solvable.families import FamilySpec, SigmaCase
        from solvable.schrodinger import potential

        fam = FamilySpec(SigmaCase.ONE, -2.0, 0.0)
        system = potential(fam, 0, attach_ells=(0,))
        assert residual_norm(system, system.known_eigenpairs[0]) < 1e-10

    def test_wrong_eigenvalue_flagged(self):
        from solvable.families import FamilySpec, SigmaCase
        from solvable.schrodinger import potential

        fam = FamilySpec(SigmaCase.ONE, -2.0, 0.0)
        system = potential(fam, 0)
        assert residual_norm(system, (0.1, parse("exp(-x^2/2)"))) > 1e-3

    def test_generated_pair(self):
        from solvable.generator import solve_params_quantsys

        pair = solve_params_quantsys(1.0, 0.0, 0, "+")
        assert residual_norm(pair) < 1e-8


class TestResidual:
    def test_array_matches_pointwise(self):
        v, psi = parse("x^2 - 1"), parse("x*exp(-x^2/2)")
        xs = np.linspace(-3.0, 3.0, 13)
        on_array = residual(v, 2.0, psi, xs)
        assert np.allclose(on_array, [residual(v, 2.0, psi, float(x))
                                      for x in xs], rtol=0.0, atol=1e-15)
        assert np.max(np.abs(on_array)) < 1e-12
        assert abs(residual(v, 3.0, psi, 1.0)) == pytest.approx(
            math.exp(-0.5))

    def test_singular_point_raises(self):
        with pytest.raises(SingularPoint):
            residual(parse("1/x"), 0.0, parse("x"), 0.0)


_entries = st.floats(-10.0, 10.0, allow_nan=False, allow_infinity=False)


def _tridiagonal(diag, off):
    """The FDHamiltonian of ``diag`` and ``off``, a scalar ``off`` taken
    as every coupling."""
    return FDHamiltonian(np.array(diag, dtype=float),
                         np.full(len(diag) - 1, off, dtype=float))


class TestSturmCountProperty:
    """sturm_count against numpy.linalg.eigvalsh on random symmetric
    tridiagonal matrices, with a scalar and with a per-row off-diagonal.
    Shifts closer to an eigenvalue than 1e-8 are skipped: there the count
    depends on rounding."""

    @staticmethod
    def check(diag, off, shifts):
        n = len(diag)
        ham = _tridiagonal(diag, off)
        off_rows = np.broadcast_to(off, n - 1)
        evs = np.linalg.eigvalsh(np.diag(diag) + np.diag(off_rows, 1)
                                 + np.diag(off_rows, -1))
        # every gap between eigenvalues and both ends get a shift too
        shifts = [t for t in [*shifts, *(0.5 * (evs[1:] + evs[:-1])),
                              evs[0] - 1.0, evs[-1] + 1.0]
                  if np.min(np.abs(evs - t)) > 1e-8 * (1.0 + abs(t))]
        want = [int(np.sum(evs < t)) for t in shifts]
        assert sturm_count(ham, shifts).tolist() == want

    @settings(derandomize=True, max_examples=150, deadline=None)
    @given(st.lists(_entries, min_size=1, max_size=30), _entries,
           st.lists(_entries, max_size=8))
    def test_scalar_off_diagonal(self, diag, off, shifts):
        self.check(diag, off, shifts)

    @settings(derandomize=True, max_examples=150, deadline=None)
    @given(st.data())
    def test_per_row_off_diagonals(self, data):
        n = data.draw(st.integers(1, 30))
        diag = data.draw(st.lists(_entries, min_size=n, max_size=n))
        off = np.array(data.draw(st.lists(_entries, min_size=n - 1,
                                          max_size=n - 1)))
        self.check(diag, off, data.draw(st.lists(_entries, max_size=8)))


def full_row_counts(ham, shifts):
    """Sturm count at each shift from the recurrence over every row, a
    zero pivot taken as 1e-290 (so it goes on as the positive pivot of a
    shift just below): the count ``sturm_count`` must give, written out
    here apart from the library's sweeps."""
    diag = [float(d) for d in ham.diag]
    off2 = [float(o) * float(o)
            for o in np.broadcast_to(ham.off, len(diag) - 1)]
    counts = []
    for s in np.atleast_1d(shifts).tolist():
        q = diag[0] - s
        count = int(q < 0.0)
        for d, o2 in zip(diag[1:], off2):
            if q == 0.0:
                q = 1e-290
            q = (d - s) - o2 / q
            if q < 0.0:
                count += 1
        counts.append(count)
    return counts


def reference_counts(ham, shifts):
    """``full_row_counts``, checked against ``sturm_count`` on the way,
    so a count the library gets wrong fails here instead of being shared
    by the reference."""
    counts = full_row_counts(ham, shifts)
    assert sturm_count(ham, shifts).tolist() == counts
    return np.array(counts)


def reference_eigenvalues_below(ham, e_max, rtol=1e-10):
    """Plain Sturm bisection, every midpoint counted by
    ``reference_counts``: the loop that ``eigenvalues_below`` replays,
    kept here as its reference.  Its bracket runs from the Gershgorin
    lower bound to e_max or, if lower, the Gershgorin upper bound: the
    bounds d_i -+ 2|o| when every coupling o is equal, else row-wise."""
    k = int(reference_counts(ham, e_max)[0])
    if k == 0:
        return []
    a = np.abs(ham.off)
    if a.size and np.all(ham.off == ham.off[0]):
        a_in, a_out = 0.0, 2.0 * a[0]
    else:
        a_in, a_out = np.append(0.0, a), np.append(a, 0.0)
    lo0 = float(np.min(ham.diag - a_in - a_out))
    top = float(np.max(ham.diag + a_in + a_out))
    lo = np.full(k, lo0)
    hi = np.full(k, min(float(e_max), top))
    idx = np.arange(k)
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        below = reference_counts(ham, mid) >= idx + 1
        hi = np.where(below, mid, hi)
        lo = np.where(below, lo, mid)
        if np.all(hi - lo <= rtol * np.maximum(1.0, np.abs(mid))):
            break
    return [float(v) for v in 0.5 * (lo + hi)]


def _oscillator(alpha, beta, n_sub):
    """FD Hamiltonian of V_0 of the family "one" on the box of half-width
    10 oscillator lengths around its well, and an e_max halfway between
    levels 4 and 5 (the benchmark's spectrum tasks)."""
    centre, half = -beta / alpha, 10.0 * math.sqrt(2.0 / -alpha)
    fam = FamilySpec(SigmaCase.ONE, alpha, beta)
    ham = fd_hamiltonian(potential(fam, 0).potential, centre - half,
                         centre + half, n_sub)
    return ham, -4.5 * alpha


PINNED_OSCILLATORS = ((-1.5, 1.2, 2000), (-2.0, 0.5, 3000),
                      (-2.8, -0.6, 4000))

# captured with plain bisection, every midpoint counted
PINNED_EIGENVALUES_DIGEST = (
    "acf23191cad0f3dcc4670491c9a8b789eac65ba6ab2b1fb1e6f01044c6058fda")


class TestBisectionLimit:
    def test_unconverged_bisection_raises(self):
        # 200 halvings of a 1e100-wide bracket leave about 1e40, far above
        # the 1e-10 the level at 0 needs
        ham = _tridiagonal([-1e100, 0.0, 1e100], 0.0)
        with pytest.raises(BisectionNoConverge, match="after 200 passes"):
            eigenvalues_below(ham, 1.0)

    def test_emax_above_gershgorin_bound(self):
        # the bracket's top is the bound, so the result does not depend on
        # how far above it e_max lies
        ham = _tridiagonal([3.0, -1.0, 0.5, 2.0], -1.5)
        got = eigenvalues_below(ham, 6.0)
        assert len(got) == 4
        assert eigenvalues_below(ham, 1e300) == got
        want = np.linalg.eigvalsh(np.diag([3.0, -1.0, 0.5, 2.0])
                                  + np.diag([-1.5] * 3, 1)
                                  + np.diag([-1.5] * 3, -1))
        assert got == pytest.approx(want.tolist(), abs=1e-9)


class TestEigenvaluesPinned:
    """``eigenvalues_below`` bit for bit on the oscillators, on the graded
    cube-root levels of criterion 9 and on the discrete Laplacian, whose
    dyadic midpoints meet exact zero pivots."""

    def test_digest(self, monkeypatch):
        spectra = [eigenvalues_below(*_oscillator(*p))
                   for p in PINNED_OSCILLATORS]

        def recording(ham, e_max):
            spectra.append(eigenvalues_below(ham, e_max))
            return spectra[-1]

        monkeypatch.setattr(acceptance, "eigenvalues_below", recording)
        acceptance.cuberoot_containment(1.0, 0.0, range(3))
        spectra.append(eigenvalues_below(
            _tridiagonal(np.full(12, 2.0), -1.0), 4.0))
        assert len(spectra) == 7 and all(spectra)
        text = "\n".join(repr(s) for s in spectra)
        digest = hashlib.sha256(text.encode()).hexdigest()
        assert digest == PINNED_EIGENVALUES_DIGEST


@st.composite
def _tridiagonals(draw):
    """(diag, off, e_max, rtol): random, clustered (couplings near 1e-8
    between repeated diagonal values), integer (exact zero pivots and
    zero couplings) and graded-coupling (geometric over many decades)
    symmetric tridiagonals, with a scalar (negative, as the FD stencil
    builds it) or a per-row off-diagonal."""
    kind = draw(st.sampled_from(("random", "clustered", "integer",
                                 "graded")))
    n = draw(st.integers(2, 24))
    if kind == "random":
        diag = draw(st.lists(_entries, min_size=n, max_size=n))
        off = draw(st.lists(_entries, min_size=n - 1, max_size=n - 1))
    elif kind == "clustered":
        diag = draw(st.lists(st.sampled_from((-1.0, 0.0, 0.5, 2.0)),
                             min_size=n, max_size=n))
        off = [1e-8 * v for v in draw(st.lists(
            st.floats(-1.0, 1.0), min_size=n - 1, max_size=n - 1))]
    elif kind == "integer":
        diag = draw(st.lists(st.integers(-3, 3), min_size=n, max_size=n))
        off = draw(st.lists(st.integers(-2, 2), min_size=n - 1,
                            max_size=n - 1))
    else:
        diag = draw(st.lists(_entries, min_size=n, max_size=n))
        c, ratio = draw(_entries), draw(st.floats(1e-3, 0.7))
        off = [c * ratio ** i for i in range(n - 1)]
    off = np.array(off, dtype=float)
    if draw(st.booleans()):
        off = -abs(float(off[0]))
    span = float(np.max(np.abs(off))) if np.size(off) else 0.0
    lo, hi = min(diag) - 2.0 * span, max(diag) + 2.0 * span
    e_max = lo + (hi - lo) * draw(st.floats(-0.1, 1.1))
    rtol = draw(st.sampled_from((1e-10, 1e-10, 1e-6, 1e-14)))
    return [float(d) for d in diag], off, e_max, rtol


class TestSturmCountExact:
    """``sturm_count`` gives the full recurrence's count at every shift,
    where its sweep stops at a dominant tail and where a zero pivot sends
    it to the 1e-290 rule: at each diagonal entry, at and one ulp either
    side of each row-wise Gershgorin lower bound (where rows turn
    dominant), and at the infinities."""

    @staticmethod
    def check(diag, off, fractions=()):
        """Counts at the shifts above and at each of ``fractions`` of the
        way across the Gershgorin bounds."""
        ham = _tridiagonal(diag, off)
        a = np.abs(np.broadcast_to(off, len(diag) - 1))
        lower = (np.array(diag) - np.append(0.0, a)
                 - np.append(a, 0.0)).tolist()
        upper = (np.array(diag) + np.append(0.0, a)
                 + np.append(a, 0.0)).tolist()
        shifts = [*diag, *lower, math.inf, -math.inf]
        shifts += [math.nextafter(b, t) for b in lower
                   for t in (math.inf, -math.inf)]
        lo, hi = min(lower), max(upper)
        shifts += [lo + (hi - lo) * t for t in fractions]
        assert sturm_count(ham, shifts).tolist() == full_row_counts(
            ham, shifts)

    @settings(derandomize=True, max_examples=300, deadline=None)
    @given(_tridiagonals())
    def test_same_count_as_every_row(self, case):
        diag, off, _, _ = case
        self.check(diag, off)

    @settings(derandomize=True, max_examples=300, deadline=None)
    @given(_tridiagonals(), st.sampled_from((1e150, 1e-160)),
           st.one_of(st.floats(150.0, 160.0), st.floats(-320.0, -150.0)),
           st.lists(st.floats(-0.1, 1.1), max_size=8))
    def test_off_diagonals_whose_squares_overflow_or_underflow(
            self, case, scale, decades, fractions):
        # o^2 is inf above about 1.3e154 and subnormal below about
        # 1.5e-154, beyond what a margin of a few ulps covers
        diag, off, _, _ = case
        with np.errstate(over="ignore", under="ignore"):
            self.check([scale * d for d in diag], off * 10.0 ** decades,
                       fractions)

    def test_per_row_off_diagonal_squares_overflow_silently(self):
        # as a uniform mesh's off-diagonal, squared as a Python float, does
        ham = _tridiagonal([1.0, 2.0, 3.0], np.array([1e155, -2e155]))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            counts = sturm_count(ham, [-1e300, 0.0, 1e300]).tolist()
        assert counts == full_row_counts(ham, [-1e300, 0.0, 1e300])

    def test_zero_pivot_takes_the_fallback(self, monkeypatch):
        # the discrete Laplacian's pivots at a dyadic shift are exact, so
        # some are exactly 0 (at s = 1, q_0 = 1 and q_1 = 1 - 1/1)
        ham = _tridiagonal(np.full(12, 2.0), -1.0)
        fallback = []
        tiny_count = oracle._tiny_count

        def recording(rows, s):
            fallback.append(s)
            return tiny_count(rows, s)

        monkeypatch.setattr(oracle, "_tiny_count", recording)
        shifts = [k / 8.0 for k in range(-8, 40)]
        assert sturm_count(ham, shifts).tolist() == full_row_counts(
            ham, shifts)
        assert {1.0, 2.0, 3.0} <= set(fallback)


class TestNaNEntries:
    """A NaN entry of a directly built FDHamiltonian, or a NaN shift, would
    count as "not below" everywhere; the Sturm layer names it instead.  An
    infinite diagonal entry only decouples its row."""

    @pytest.mark.parametrize("diag,off,message", [
        ([2.0, math.nan, 2.0, 2.0], -1.0, "diagonal entry 1 is nan"),
        ([2.0, 2.0, 2.0, 2.0], math.nan, "off-diagonal entry 0 is nan"),
        ([2.0, 2.0, 2.0, 2.0], np.array([-1.0, -1.0, math.nan]),
         "off-diagonal entry 2 is nan"),
    ])
    def test_nan_entry_is_named(self, diag, off, message):
        ham = _tridiagonal(diag, off)
        with pytest.raises(NonFiniteValue, match=message):
            eigenvalues_below(ham, 5.0)
        with pytest.raises(NonFiniteValue, match=message):
            sturm_count(ham, [0.0, 1.0, 3.0, 5.0])

    def test_nan_shift_is_named(self):
        ham = _tridiagonal([2.0, 2.0, 2.0], -1.0)
        with pytest.raises(InvalidParameter, match="shift 1 is nan"):
            sturm_count(ham, [0.0, math.nan, 5.0])

    def test_infinite_diagonal_entry_decouples_its_row(self):
        ham = _tridiagonal([2.0, math.inf, 2.0, 2.0], -1.0)
        got = eigenvalues_below(ham, 5.0)
        assert got == reference_eigenvalues_below(ham, 5.0)
        assert got == pytest.approx([1.0, 2.0, 3.0], abs=1e-9)


class TestEigenvaluesReplayProperty:
    """``eigenvalues_below`` returns exactly the floats of plain bisection
    on small tridiagonals of every shape that stresses the count."""

    @settings(derandomize=True, max_examples=300, deadline=None)
    @given(_tridiagonals())
    def test_same_floats_as_bisection(self, case):
        diag, off, e_max, rtol = case
        ham = _tridiagonal(diag, off)
        with pytest.MonkeyPatch.context() as mp:  # the bisection tolerance
            mp.setattr(oracle, "_RTOL", rtol)
            got = eigenvalues_below(ham, e_max)
        assert got == reference_eigenvalues_below(ham, e_max, rtol)

    def test_sign_of_scalar_off_diagonal_is_irrelevant(self):
        # the spectrum depends on off^2 only, so the Gershgorin start of
        # the bisection must too
        diag = [3.0, -1.0, 0.5, 2.0, -2.0]
        assert (eigenvalues_below(_tridiagonal(diag, 1.5), 4.0)
                == eigenvalues_below(_tridiagonal(diag, -1.5), 4.0))


class TestReplaySweeps:
    """The replay's gain in row sweeps, on the benchmark's oscillator: a
    Newton sweep carries the pivots' derivatives as well and counts as 2.5
    count sweeps."""

    def test_at_most_sixty_percent_of_bisection(self, monkeypatch):
        sweeps = []
        counts, newton = oracle._counts, oracle._newton_sweep

        def counting(rows, shifts):
            sweeps.append(len(shifts))
            return counts(rows, shifts)

        def newton_counting(rows, s):
            sweeps.append(2.5)
            return newton(rows, s)

        monkeypatch.setattr(oracle, "_counts", counting)
        monkeypatch.setattr(oracle, "_newton_sweep", newton_counting)
        ham, e_max = _oscillator(-2.0, 0.5, 3000)
        got = eigenvalues_below(ham, e_max)
        replayed = sum(sweeps)
        sweeps.clear()
        assert reference_eigenvalues_below(ham, e_max) == got
        assert sum(sweeps) == 186  # 1 + 37 passes of 5 shifts
        assert replayed <= 0.6 * 186


class TestTailStopRows:
    """The rows the count sweeps visit, on ``TestReplaySweeps``'s
    oscillator."""

    def test_count_sweeps_stop_at_the_dominant_tail(self, monkeypatch):
        # past the right turning point every row is dominant, so a count
        # sweep stops soon after it: about two thirds of the rows
        swept = []
        sweep = oracle._sweep

        def recording(rows, s):
            count, rows_swept = sweep(rows, s)
            swept.append(rows_swept)
            return count, rows_swept

        monkeypatch.setattr(oracle, "_sweep", recording)
        ham, e_max = _oscillator(-2.0, 0.5, 3000)
        eigenvalues_below(ham, e_max)
        assert sum(swept) <= 0.75 * len(swept) * ham.diag.size


def _replay_work(ham, e_max, monkeypatch):
    """(counted shifts, Newton sweeps) of one ``eigenvalues_below``."""
    work = [0, 0]
    counts, newton = oracle._counts, oracle._newton_sweep

    def counting(rows, shifts):
        work[0] += len(shifts)
        return counts(rows, shifts)

    def newton_counting(rows, s):
        work[1] += 1
        return newton(rows, s)

    with monkeypatch.context() as mp:
        mp.setattr(oracle, "_counts", counting)
        mp.setattr(oracle, "_newton_sweep", newton_counting)
        eigenvalues_below(ham, e_max)
    return tuple(work)


class TestReplayWork:
    """Counted shifts and Newton sweeps of ``eigenvalues_below`` on
    ``PINNED_OSCILLATORS`` and on criterion 9's three cube-root levels
    grow no further than those of the lockstep replay, which counted every
    undecided midpoint of a pass together and its Newton probes in the next
    pass (captured from it, the count at e_max included)."""

    LOCKSTEP = ((28, 26), (28, 26), (30, 25), (34, 11), (31, 16), (36, 22))

    def test_no_more_work_than_lockstep(self, monkeypatch):
        cases = [_oscillator(*p) for p in PINNED_OSCILLATORS]

        def recording(ham, e_max):
            cases.append((ham, e_max))
            return eigenvalues_below(ham, e_max)

        monkeypatch.setattr(acceptance, "eigenvalues_below", recording)
        acceptance.cuberoot_containment(1.0, 0.0, range(3))
        work = [_replay_work(ham, e_max, monkeypatch)
                for ham, e_max in cases]
        for (shifts, newton), (top_shifts, top_newton) in zip(
                work, self.LOCKSTEP, strict=True):
            assert shifts <= top_shifts and newton <= top_newton


class TestEqualCouplingLoops:
    """``_rows`` reads from the matrix whether every coupling is equal and
    then loops over the one squared coupling ``o2``: on every uniform
    mesh, its spacing dyadic or not, and never on the graded mesh."""

    @pytest.mark.parametrize("build", [
        lambda: fd_hamiltonian(parse("x^2 - 1"), -10.0, 10.0, 4000),
        *(lambda p=p: _oscillator(*p)[0] for p in PINNED_OSCILLATORS),
        lambda: fd_hamiltonian(parse("x^2"), -3.7, 5.3, 1234),
    ], ids=["criterion 1", "oscillator 1", "oscillator 2", "oscillator 3",
            "non-dyadic"])
    def test_uniform_mesh_takes_the_equal_coupling_loops(self, build):
        ham = build()
        assert np.all(ham.off == ham.off[0])
        assert oracle._rows(ham).o2 == float(ham.off[0]) ** 2

    def test_non_dyadic_nodes_differ_in_spacing(self):
        # which is why the uniform stencil is given the one spacing
        # (x_hi - x_lo)/n rather than the differences of the nodes
        assert len(set(np.diff(fd_nodes(-3.7, 5.3, 1234)).tolist())) > 1

    def test_graded_mesh_takes_the_per_row_loops(self):
        ham = _cuberoot_graded(8000, ratio=0.5)
        assert oracle._rows(ham).o2 is None
