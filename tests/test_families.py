import ast
import math
from pathlib import Path

import numpy as np
import pytest

from solvable.acceptance import ACCEPTANCE_FAMILIES
from solvable.errors import DegreeBeyondCutoff, DomainError, Inadmissible
from solvable.expr import as_fraction, differentiate, evaluate, mul, parse
from solvable.families import (
    ALL_CASES, FamilySpec, SigmaCase, cutoff, eigenvalue, sample_points,
    weight, weight_function,
)

# the acceptance rows and five rows whose alpha and beta are not binary
# fractions, so their exact values come from a short continued fraction
TREE_ROWS = ACCEPTANCE_FAMILIES + (
    (SigmaCase.S, -1.3, 2.1),
    (SigmaCase.ONE_MINUS_S2, -5.3, 0.7),
    (SigmaCase.S2_MINUS_1, -6.1, 9.7),
    (SigmaCase.S2, -6.05, 1.04),
    (SigmaCase.S2_PLUS_1, -4.9, 0.3),
)

# representative admissible parameters, one per case
REPRESENTATIVE = {
    SigmaCase.ONE: (-2.0, 1.0),
    SigmaCase.S: (-1.0, 2.0),
    SigmaCase.ONE_MINUS_S2: (-5.0, 1.0),
    SigmaCase.S2_MINUS_1: (-7.0, 10.0),
    SigmaCase.S2: (-7.0, 1.0),
    SigmaCase.S2_PLUS_1: (-5.0, 1.0),
}


def make(case):
    alpha, beta = REPRESENTATIVE[case]
    return FamilySpec(case, alpha, beta)


def test_exactly_six_cases_with_unique_sigma_coefficients():
    assert len(ALL_CASES) == 6
    triples = {case.sigma_coeffs for case in ALL_CASES}
    assert len(triples) == 6


class TestConstraints:
    @pytest.mark.parametrize("case", ALL_CASES)
    def test_representative_parameters_admissible(self, case):
        make(case)  # must not raise

    @pytest.mark.parametrize("case,alpha,beta", [
        (SigmaCase.ONE, 1.0, 0.0),            # alpha must be negative
        (SigmaCase.S, -1.0, -0.5),            # beta must be positive
        (SigmaCase.S, 0.5, 1.0),
        (SigmaCase.ONE_MINUS_S2, -2.0, 3.0),  # beta < -alpha fails
        (SigmaCase.ONE_MINUS_S2, -2.0, -2.5),
        (SigmaCase.S2_MINUS_1, -3.0, 1.0),    # -beta < alpha fails
        (SigmaCase.S2_MINUS_1, 0.5, 2.0),
        (SigmaCase.S2, -1.0, 0.0),
        (SigmaCase.S2_PLUS_1, 0.0, 1.0),
    ])
    def test_violations_rejected(self, case, alpha, beta):
        with pytest.raises(Inadmissible):
            FamilySpec(case, alpha, beta)

    def test_violation_names_constraint(self):
        with pytest.raises(Inadmissible, match="-beta < alpha < 0"):
            FamilySpec(SigmaCase.S2_MINUS_1, -3.0, 1.0)


class TestWeight:
    def test_gaussian_case(self):
        fam = FamilySpec(SigmaCase.ONE, -2.0, 1.0)
        rho = weight(fam)
        ref = parse("exp(-x^2 + x)")
        for s in np.linspace(-2, 2, 9):
            assert evaluate(rho, s) == pytest.approx(evaluate(ref, s),
                                                     rel=1e-14)

    def test_pure_exponential_when_beta_is_one(self):
        fam = FamilySpec(SigmaCase.S, -1.0, 1.0)
        rho = weight(fam)
        # s^(beta-1) = s^0 disappears entirely
        assert rho == parse("exp(-s)")

    def test_rational_power_when_beta_zero(self):
        fam = FamilySpec(SigmaCase.S2_PLUS_1, -3.0, 0.0)
        rho = weight(fam)
        assert rho == parse("(1 + s^2)^(-5/2)")

    @pytest.mark.parametrize("case", ALL_CASES)
    def test_pearson_identity(self, case):
        # (sigma rho)' = tau rho at 200 interior points
        fam = make(case)
        rho = weight(fam)
        lhs = differentiate(mul(fam.sigma_expr, rho))
        for s in sample_points(fam, 200):
            want = fam.tau(s) * evaluate(rho, s)
            got = evaluate(lhs, s)
            assert abs(got - want) <= 1e-10 * (1.0 + abs(want))

    @pytest.mark.parametrize("case", ALL_CASES)
    def test_positivity(self, case):
        fam = make(case)
        rho = weight(fam)
        for s in sample_points(fam, 200):
            assert fam.sigma(s) > 0
            assert evaluate(rho, s) > 0


def same_floats(got, want):
    """got and want hold the same float64 bits, NaNs included."""
    return (np.asarray(got, float).tobytes()
            == np.asarray(want, float).tobytes())


# TREE_ROWS and an s^2 row where alpha - 2 taken in floats
# (-8.969999999999999) is not the exact alpha - 2 rounded once (-8.97)
PARITY_ROWS = TREE_ROWS + ((SigmaCase.S2, -6.97, 1.0),)
PARITY_IDS = [f"{case.value}:{alpha}:{beta}" for case, alpha, beta
              in PARITY_ROWS]


class TestWeightFunction:
    """weight_function against evaluate(weight(fam), s): the same bits on
    arrays and scalars, and the same DomainError at the finite ends."""

    @pytest.mark.parametrize("row", PARITY_ROWS, ids=PARITY_IDS)
    def test_same_floats_as_the_tree(self, row):
        fam = FamilySpec(*row)
        rho, tree = weight_function(fam), weight(fam)
        lo, hi = fam.interval
        # the next float inside each finite end, where a pole or a
        # vanishing factor is steepest (inf * 0 = NaN at s^2's 5e-324)
        near_ends = [np.nextafter(end, inward) for end, inward
                     in ((lo, hi), (hi, lo)) if math.isfinite(end)]
        s = np.concatenate([sample_points(fam, 101), near_ends])
        assert same_floats(rho(s), evaluate(tree, s))
        for point in s.tolist():
            assert same_floats(rho(point), evaluate(tree, point))

    @pytest.mark.parametrize("row", PARITY_ROWS, ids=PARITY_IDS)
    def test_same_domain_error_at_the_ends(self, row):
        fam = FamilySpec(*row)
        rho, tree = weight_function(fam), weight(fam)
        mid = sample_points(fam, 1)[0]
        for end in (e for e in fam.interval if math.isfinite(e)):
            for s in (end, np.array([mid, end])):
                try:
                    want = evaluate(tree, s)
                except DomainError as exc:
                    with pytest.raises(DomainError) as got:
                        rho(s)
                    assert str(got.value) == str(exc)
                else:
                    assert same_floats(rho(s), want)


def boundary_sequence(fam, endpoint, ks):
    """sigma*rho along a geometric approach to the endpoint."""
    rho = weight(fam)
    vals = []
    for k in ks:
        if math.isinf(endpoint):
            s = math.copysign(2.0 ** k, endpoint)
        else:
            inward = 1.0 if endpoint == fam.interval[0] else -1.0
            s = endpoint + inward * 2.0 ** (-k)
        vals.append(fam.sigma(s) * evaluate(rho, s))
    return np.array(vals)


class TestBoundaryDecay:
    @pytest.mark.parametrize("case", ALL_CASES)
    @pytest.mark.parametrize("side", [0, 1])
    def test_sigma_rho_vanishes(self, case, side):
        fam = make(case)
        endpoint = fam.interval[side]
        ks = range(1, 22) if math.isinf(endpoint) else range(1, 26)
        vals = boundary_sequence(fam, endpoint, ks)
        peak = int(np.argmax(vals))
        tail = vals[peak:]
        # monotone decay once past the hump, ending far below the start
        assert np.all(np.diff(tail) <= 0)
        assert tail[-1] < 1e-6 * tail[0]
        assert vals[-1] < 1e-6 * max(vals[0], 1e-300)


class TestEigenvalue:
    def test_zero_at_ell_zero(self):
        fam = FamilySpec(SigmaCase.ONE, -2.0, 0.0)
        assert eigenvalue(fam, 0) == 0.0

    def test_linear_in_ell_for_constant_sigma(self):
        fam = FamilySpec(SigmaCase.ONE, -2.0, 0.0)
        assert eigenvalue(fam, 3) == 6.0

    def test_quadratic_case(self):
        fam = FamilySpec(SigmaCase.S2, -7.0, 1.0)
        # -1*2*1 - (-7)*2 = 12
        assert eigenvalue(fam, 2) == 12.0

    @pytest.mark.parametrize("case", ALL_CASES)
    def test_strictly_increasing_below_cutoff(self, case):
        fam = make(case)
        cap = cutoff(fam)
        top = cap.max_degree if cap.max_degree is not None else 20
        vals = [eigenvalue(fam, ell) for ell in range(top + 1)]
        assert np.all(np.diff(vals) > 0)

    def test_beyond_cutoff_raises(self):
        fam = FamilySpec(SigmaCase.S2, -7.0, 1.0)
        with pytest.raises(DegreeBeyondCutoff):
            eigenvalue(fam, 4)


class TestCutoff:
    def test_unbounded_cases(self):
        for case in (SigmaCase.ONE, SigmaCase.S, SigmaCase.ONE_MINUS_S2):
            fam = make(case)
            cap = cutoff(fam)
            assert cap.unbounded
            assert cap.max_degree is None

    def test_s2_with_alpha_minus_seven(self):
        fam = FamilySpec(SigmaCase.S2, -7.0, 1.0)
        cap = cutoff(fam)
        assert cap.lambda_cap == 4.0
        assert cap.max_degree == 3

    def test_only_constant_survives(self):
        fam = FamilySpec(SigmaCase.S2_PLUS_1, -1.0, 0.0)
        cap = cutoff(fam)
        assert cap.lambda_cap == 1.0
        assert cap.max_degree == 0

    def test_half_integer_cap(self):
        fam = FamilySpec(SigmaCase.S2_MINUS_1, -4.0, 5.0)
        cap = cutoff(fam)
        assert cap.lambda_cap == 2.5
        assert cap.max_degree == 2


class TestExactParameters:
    @pytest.mark.parametrize("alpha, beta", [
        (-2.0, 1.0), (-1.3, 2.1), (-6.05, 1.04), (-0.1, 0.3),
        (-1 / 3, 2.0 ** -40), (-7.000000000000001, 1e-300)])
    def test_exact_is_as_fraction_of_alpha_and_beta(self, alpha, beta):
        fam = FamilySpec(SigmaCase.S, alpha, beta)
        assert fam.exact == (as_fraction(alpha), as_fraction(beta))
        assert fam.exact is fam.exact  # derived once per instance

    def test_no_module_converts_alpha_or_beta_itself(self):
        # the exact alpha and beta come from FamilySpec.exact alone: no
        # as_fraction call (direct or mapped) in src/ takes alpha, beta
        # or a local name assigned from them
        src = Path(__file__).resolve().parent.parent / "src" / "solvable"
        found = []
        for path in sorted(src.glob("*.py")):
            for fn in ast.walk(ast.parse(path.read_text())):
                if (not isinstance(fn, ast.FunctionDef)
                        or fn.name == "exact"):
                    continue
                tainted = {
                    t.id for node in ast.walk(fn)
                    if isinstance(node, ast.Assign) and _reads_param(
                        node.value, ())
                    for target in node.targets for t in ast.walk(target)
                    if isinstance(t, ast.Name)}
                for call in ast.walk(fn):
                    if not (isinstance(call, ast.Call) and any(
                            isinstance(n, ast.Name)
                            and n.id == "as_fraction"
                            for n in [call.func, *call.args])):
                        continue
                    if any(_reads_param(arg, tainted) for arg in call.args):
                        found.append(f"{path.name}:{call.lineno}")
        assert found == []


def _reads_param(node, names):
    """Whether ``node`` reads an ``.alpha`` or ``.beta`` attribute or one
    of ``names``."""
    return any(
        (isinstance(n, ast.Attribute) and n.attr in ("alpha", "beta"))
        or (isinstance(n, ast.Name) and n.id in names)
        for n in ast.walk(node))


class TestCaseTable:
    def test_one_dict_is_keyed_by_sigma_cases(self):
        # each case's facts sit in one row of families._CASES; no module
        # under src/solvable keeps another dict literal keyed by SigmaCase
        # members
        src = Path(__file__).resolve().parent.parent / "src" / "solvable"
        found = []
        for path in sorted(src.glob("*.py")):
            tree = ast.parse(path.read_text())
            names = {id(node.value): target.id for node in ast.walk(tree)
                     if isinstance(node, ast.Assign)
                     for target in node.targets
                     if isinstance(target, ast.Name)}
            for node in ast.walk(tree):
                if isinstance(node, ast.Dict) and any(
                        isinstance(key, ast.Attribute)
                        and isinstance(key.value, ast.Name)
                        and key.value.id == "SigmaCase"
                        for key in node.keys):
                    found.append((path.name,
                                  names.get(id(node), node.lineno)))
        assert found == [("families.py", "_CASES")]

    def test_case_facts_are_read_only(self):
        with pytest.raises(AttributeError):
            SigmaCase.ONE.interval = (0, 1)
        assert SigmaCase.ONE.interval == (-math.inf, math.inf)
