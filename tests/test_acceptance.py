"""Acceptance gate: every criterion runs at its stated tolerance and
prints one PASS/FAIL line.

Criterion 9 checks the closed-form energies of the singular cube-root
potential against the FD oracle.  The closed-form eigenfunctions each carry
their own admixture of the second indicial solution r^(5/6) at the
limit-circle endpoint r=0, so they do not belong to a single self-adjoint
extension: each level n gets its own wall matched to psi_n.  A uniform
three-point grid cannot resolve the r^(1/6) cusp (errors near 1e-1 for a
plain potential, near 1e-2 with the indicial-fitted stencil); the mesh is
graded toward r=0 by ``indicial_grading``, with gamma = 1/6 read off each
level's gauge, see ``solvable.oracle``.
"""

import dataclasses
from collections import Counter

import pytest

from solvable import acceptance
from solvable.acceptance import (
    CRITERIA, CriterionResult, boundary_ratio, cuberoot_containment,
)
from solvable.errors import Inadmissible
from solvable.expr import evaluate
from solvable.generator import solve_params_quantsys


@pytest.mark.parametrize(
    "index,name,fn", CRITERIA, ids=[f"criterion_{c[0]:02d}" for c in CRITERIA])
def test_criterion(index, name, fn, capsys):
    passed, detail = fn()
    with capsys.disabled():
        status = "PASS" if passed else "FAIL"
        print(f"\n{status} criterion {index:>2} ({name}): {detail}")
    assert passed, f"criterion {index} ({name}): {detail}"


def test_criterion_result_is_frozen():
    result = CriterionResult(6, "admissibility filter", True, "ok", 0.0)
    with pytest.raises(dataclasses.FrozenInstanceError):
        result.passed = False


class TestCuberootContainment:
    def test_each_level_is_solved_once(self, monkeypatch):
        solved = Counter()
        solve = acceptance.solve_params_quantsys

        def counting(c1, c2, n, branch):
            solved[n] += 1
            return solve(c1, c2, n, branch)

        monkeypatch.setattr(acceptance, "solve_params_quantsys", counting)
        rows = cuberoot_containment(1.0, -5.0, n_sub=500)
        # n = 0, 1 are inadmissible; the first three admissible follow
        assert [n for n, *_ in rows] == [2, 3, 4]
        assert set(solved.values()) == {1}

    def test_e_max_chooses_the_levels_below_it(self):
        # E_n^+ = 2 sqrt(1 + 2n): 2, 3.46, 4.47, ...
        rows = cuberoot_containment(1.0, 0.0, 4.0, n_sub=500)
        assert [n for n, *_ in rows] == [0, 1]
        with pytest.raises(Inadmissible, match="below e_max=1 "):
            cuberoot_containment(1.0, 0.0, 1.0, n_sub=500)

    def test_no_admissible_level_raises(self):
        with pytest.raises(Inadmissible, match="no level n < 16"):
            cuberoot_containment(1.0, -100.0)

    def test_boundary_ratio_matches_model(self):
        p = solve_params_quantsys(1.0, 0.0, 0, "+")
        r0, r1 = 1e-3, 2e-3
        got = boundary_ratio(p, r0, r1)
        assert got == pytest.approx(
            evaluate(p.psi, r0) / evaluate(p.psi, r1), rel=1e-14)
