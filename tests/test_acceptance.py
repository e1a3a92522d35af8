"""Acceptance gate: every criterion runs at its stated tolerance and
prints one PASS/FAIL line.

Criterion 9 checks the closed-form energies of the singular cube-root
potential against the FD oracle.  The closed-form eigenfunctions each carry
their own admixture of the second indicial solution r^(5/6) at the
limit-circle endpoint r=0, so they do not belong to a single self-adjoint
extension: each level n gets its own wall matched to psi_n.  A uniform
three-point grid cannot resolve the r^(1/6) cusp (errors near 1e-1 for a
plain potential, near 1e-2 with the indicial-fitted stencil); the mesh is
graded toward r=0 by ``indicial_grading(1/6)``, see ``solvable.oracle``.
"""

import dataclasses

import pytest

from solvable.acceptance import CRITERIA, CriterionResult


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
