import dataclasses
import math
import pickle
import warnings
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from solvable.errors import DomainError, ExprSyntaxError, NonRationalExponent
from solvable.expr import (
    _FUNCTIONS, VAR, Add, Const, Exp, Expr, Fun, Mul, Pow, Var,
    add, as_expr, compose, differentiate, evaluate, exp_, expand, fun_, mul,
    parse, pow_, power_terms, print_expr, simplify,
)

X = VAR

# Corpus covering every node kind, used by the derivative, round-trip,
# and idempotence checks below.
CORPUS = [
    Const(3.5),
    X,
    add(X, 1),
    add(pow_(X, 2), mul(-1, X), 4),
    mul(2, X),
    mul(X, add(X, 1)),
    pow_(X, 2),
    pow_(X, 3),
    pow_(X, Fraction(1, 2)),
    pow_(X, Fraction(2, 3)),
    pow_(X, Fraction(-1, 2)),
    pow_(add(1, pow_(X, 2)), Fraction(-3, 2)),
    pow_(mul(Fraction(3, 2), X), Fraction(2, 3)),
    exp_(X),
    exp_(mul(Fraction(-1, 2), pow_(X, 2))),
    exp_(add(X, mul(-1, pow_(X, 2)))),
    mul(pow_(X, 2), exp_(mul(-1, X))),
    mul(exp_(X), exp_(mul(-1, X))),
    add(exp_(X), pow_(X, Fraction(5, 2))),
    fun_("sin", X),
    fun_("cos", mul(2, X)),
    fun_("sinh", X),
    fun_("cosh", mul(Fraction(1, 2), X)),
    fun_("log", add(1, pow_(X, 2))),
    fun_("arctan", X),
    fun_("arcsin", mul(Fraction(1, 3), X)),
    mul(fun_("log", X), pow_(X, -1)),
    add(mul(3, pow_(X, Fraction(4, 3))), mul(-2, pow_(X, Fraction(1, 3)))),
    mul(add(X, 1), add(X, -1), X),
    exp_(fun_("log", X)),
]


def central_diff(e, x, h=1e-5):
    return (evaluate(e, x + h) - evaluate(e, x - h)) / (2 * h)


@pytest.mark.parametrize("e", CORPUS, ids=[print_expr(e) for e in CORPUS])
def test_derivative_matches_finite_differences(e):
    rng = np.random.RandomState(42)
    de = differentiate(e)
    checked = 0
    for _ in range(40):
        x = rng.uniform(0.2, 2.5)  # safe for every corpus member
        try:
            sym = evaluate(de, x)
            num = central_diff(e, x)
        except DomainError:
            continue
        assert sym == pytest.approx(num, rel=1e-6, abs=1e-8)
        checked += 1
        if checked >= 10:
            break
    assert checked >= 10


@pytest.mark.parametrize("e", CORPUS, ids=[print_expr(e) for e in CORPUS])
def test_simplify_idempotent_and_value_preserving(e):
    s1 = simplify(e)
    s2 = simplify(s1)
    assert s1 == s2
    rng = np.random.RandomState(7)
    for x in rng.uniform(0.2, 2.5, size=10):
        assert evaluate(s1, x) == pytest.approx(evaluate(e, x), rel=1e-12)


@pytest.mark.parametrize("e", CORPUS, ids=[print_expr(e) for e in CORPUS])
def test_print_parse_round_trip(e):
    back = parse(print_expr(e))
    rng = np.random.RandomState(3)
    for x in rng.uniform(0.2, 2.5, size=10):
        assert evaluate(back, x) == pytest.approx(evaluate(e, x), rel=1e-12)


class TestParse:
    def test_power(self):
        assert parse("x^2") == Pow(X, Fraction(2))

    def test_rational_power_of_scaled_variable(self):
        e = parse("(3*r/2)^(2/3)")
        assert e == pow_(mul(Fraction(3, 2), X), Fraction(2, 3))
        assert evaluate(e, 2 / 3) == pytest.approx(1.0)

    def test_gaussian(self):
        e = parse("exp(-x^2/2)")
        assert e == exp_(mul(-0.5, pow_(X, 2)))
        assert evaluate(e, 0.0) == 1.0

    def test_sqrt(self):
        assert parse("sqrt(x)") == Pow(X, Fraction(1, 2))

    def test_decimal_exponent(self):
        assert parse("x^0.5") == Pow(X, Fraction(1, 2))

    def test_variable_names(self):
        assert parse("r^2") == parse("x^2") == parse("s^2")

    def test_syntax_error_position(self):
        with pytest.raises(ExprSyntaxError) as err:
            parse("x + @")
        assert err.value.position == 4

    def test_unbalanced(self):
        with pytest.raises(ExprSyntaxError):
            parse("(x + 1")

    def test_unknown_name(self):
        with pytest.raises(ExprSyntaxError):
            parse("y + 1")

    def test_non_rational_exponent(self):
        with pytest.raises(NonRationalExponent):
            parse("x^x")

    def test_non_rational_exponent_expression(self):
        with pytest.raises(NonRationalExponent):
            parse("x^(1+1)")

    @pytest.mark.parametrize("text,position", [
        ("x^(1/0)", 5), ("x^(-1/0)", 6), ("x^(0/0)", 5), ("x^(2/0.0)", 5)])
    def test_zero_exponent_denominator(self, text, position):
        with pytest.raises(ExprSyntaxError) as err:
            parse(text)
        assert err.value.position == position


class TestEvaluate:
    def test_square(self):
        assert evaluate(parse("x^2"), 3.0) == 9.0

    def test_unit_base(self):
        assert evaluate(parse("(3*r/2)^(2/3)"), 2 / 3) == pytest.approx(1.0)

    def test_exp_at_zero(self):
        assert evaluate(parse("exp(-x^2/2)"), 0.0) == 1.0

    def test_array_input(self):
        xs = np.linspace(0.5, 2.0, 7)
        vals = evaluate(parse("x^2 + 1"), xs)
        assert np.allclose(vals, xs ** 2 + 1)

    def test_negative_fractional_power_raises(self):
        with pytest.raises(DomainError):
            evaluate(pow_(X, Fraction(1, 2)), -1.0)

    def test_pole_raises(self):
        with pytest.raises(DomainError):
            evaluate(pow_(X, -1), 0.0)

    def test_log_domain(self):
        with pytest.raises(DomainError):
            evaluate(fun_("log", X), -2.0)


class TestDifferentiate:
    def test_power_rule(self):
        assert differentiate(parse("x^2")) == mul(2, X)

    def test_cube_root_map_derivative(self):
        e = pow_(mul(Fraction(3, 2), X), Fraction(2, 3))
        de = differentiate(e)
        expected = pow_(mul(Fraction(3, 2), X), Fraction(-1, 3))
        for r in (0.5, 1.0, 2.0, 5.0):
            assert evaluate(de, r) == pytest.approx(
                evaluate(expected, r), rel=1e-12)

    def test_gaussian_derivative(self):
        e = parse("exp(-x^2/2)")
        de = differentiate(e)
        for x in (-1.0, 0.0, 0.7, 2.0):
            assert evaluate(de, x) == pytest.approx(
                -x * math.exp(-x * x / 2), rel=1e-12, abs=1e-15)


class TestCompose:
    def test_square_of_sqrt(self):
        # substituting x = sqrt(2 r) into x^2 collapses to a multiple of r
        e = compose(parse("x^2"), parse("sqrt(2*r)"))
        terms = power_terms(e)
        assert set(terms) == {Fraction(1)}
        assert terms[Fraction(1)] == pytest.approx(2.0, rel=1e-15)

    def test_identity_inner(self):
        v = parse("x^2 - 1")
        assert compose(v, X) == v

    def test_variable_itself(self):
        inner = pow_(mul(Fraction(3, 2), X), Fraction(2, 3))
        assert compose(X, inner) == inner


class TestSimplify:
    def test_exp_cancellation(self):
        e = Mul((Exp(X), Exp(Mul((Const(-1.0), Var())))))
        assert simplify(e) == Const(1.0)

    def test_power_merge(self):
        e = Mul((Pow(X, Fraction(1, 2)), Pow(X, Fraction(1, 2))))
        assert simplify(e) == X

    def test_pow_of_pow_integer_outer(self):
        e = Pow(Pow(X, Fraction(1, 2)), Fraction(2))
        assert simplify(e) == X

    def test_pow_of_pow_fractional_outer_kept(self):
        e = Pow(Pow(X, Fraction(2)), Fraction(1, 2))
        assert simplify(e) == e  # |x| != x, must not collapse

    def test_exp_of_log(self):
        assert simplify(Exp(Fun("log", X))) == X

    def test_scaled_log_in_exp(self):
        e = exp_(mul(Fraction(1, 2), fun_("log", X)))
        assert e == Pow(X, Fraction(1, 2))


class TestPowerTerms:
    def test_plain(self):
        t = power_terms(parse("2*x^2 - 3*x + 4"))
        assert t == {Fraction(2): 2.0, Fraction(1): -3.0, Fraction(0): 4.0}

    def test_fractional(self):
        t = power_terms(add(mul(-0.1875, pow_(X, -2)), pow_(X, Fraction(1, 2))))
        assert t[Fraction(-2)] == -0.1875
        assert t[Fraction(1, 2)] == 1.0

    def test_not_a_power_sum(self):
        assert power_terms(exp_(X)) is None

    def test_integer_powers_of_sums_expand(self):
        # (1+x)(1+x) multiplied back through mul is (1+x)^2 again
        assert expand(parse("(1+x)^2")) == parse("1 + 2*x + x^2")
        assert power_terms(parse("x*(1+x)^3")) == {
            Fraction(1): 1.0, Fraction(2): 3.0, Fraction(3): 3.0,
            Fraction(4): 1.0}


def test_simplify_is_fixed_point_on_pipeline_outputs():
    # machine-built expressions (potentials, wavefunctions, generated
    # eigenfunctions) must already be in normal form, or repeated passes
    # would change structure and break determinism
    from solvable.families import FamilySpec, SigmaCase
    from solvable.generator import solve_params_quantsys, transformed_system
    from solvable.schrodinger import potential, wavefunction

    fam = FamilySpec(SigmaCase.S2, -7.0, 1.0)
    for e in (potential(fam, 1).potential,
              wavefunction(fam, 2, 1),
              solve_params_quantsys(1.3, -0.4, 2, "-").psi,
              transformed_system(
                  FamilySpec(SigmaCase.ONE, -1.7, 0.9), 3, 1, -1).psi):
        assert simplify(e) == e


# A constructor recipe is a nested tuple that ``construct`` builds only
# through the normalizing constructors, ``compose`` and ``differentiate``:
# the library's own way of making trees.
_CONSTRUCTOR_LEAVES = st.one_of(
    st.builds(lambda k: ("const", k), st.integers(-3, 3)),
    st.just(("var",)),
    st.builds(lambda n, v: ("fun", n, ("const", v)),
              st.sampled_from(["sin", "cosh", "log", "arctan"]),
              st.sampled_from([1, 4, 2000])))


def _constructor_extend(children):
    return st.one_of(
        st.builds(lambda ts: ("add", tuple(ts)),
                  st.lists(children, min_size=2, max_size=3)),
        st.builds(lambda fs: ("mul", tuple(fs)),
                  st.lists(children, min_size=2, max_size=3)),
        st.builds(lambda b, p, q: ("pow", b, Fraction(p, q)),
                  children, st.integers(-3, 3), st.integers(1, 3)),
        st.builds(lambda a: ("exp", a), children),
        st.builds(lambda n, a: ("fun", n, a),
                  st.sampled_from(["sin", "log", "cosh"]), children),
        # exp of a sum with a c*log(u) term, which exp_ turns into u^c
        st.builds(lambda k, u, rest: ("explog", k, u, rest),
                  st.integers(-4, 4), children, children),
        st.builds(lambda o, i: ("compose", o, i), children, children),
        st.builds(lambda a: ("diff", a), children))


CONSTRUCTOR_RECIPES = st.recursive(
    _CONSTRUCTOR_LEAVES, _constructor_extend, max_leaves=8)


def construct(recipe):
    kind, args = recipe[0], recipe[1:]
    if kind == "const":
        return as_expr(args[0] / 2)
    if kind == "var":
        return VAR
    if kind == "add":
        return add(*(construct(r) for r in args[0]))
    if kind == "mul":
        return mul(*(construct(r) for r in args[0]))
    if kind == "pow":
        return pow_(construct(args[0]), args[1])
    if kind == "exp":
        return exp_(construct(args[0]))
    if kind == "fun":
        return fun_(args[0], construct(args[1]))
    if kind == "explog":
        log_u = fun_("log", construct(args[1]))
        return exp_(add(mul(Fraction(args[0], 2), log_u), construct(args[2])))
    if kind == "compose":
        return compose(construct(args[0]), construct(args[1]))
    return differentiate(construct(args[0]))


@settings(max_examples=300, derandomize=True, database=None, deadline=None)
@given(CONSTRUCTOR_RECIPES)
def test_simplify_is_fixed_point_on_constructor_trees(recipe):
    # the library builds every tree this way and never re-simplifies it
    try:
        e = construct(recipe)
    except DomainError:  # e.g. log of a negative constant
        assume(False)
    assert simplify(e) == e


def test_pipeline_builds_without_simplify(monkeypatch):
    # criterion-2 and criterion-5 parts on fresh parameters, so no memo
    # holds an earlier result, with the simplifier switched off
    from solvable.families import FamilySpec, SigmaCase, eigenvalue
    from solvable.generator import solve_params_quantsys
    from solvable.oracle import residual_norm
    from solvable.schrodinger import potential
    from solvable.specfun import apply_hm, hm_operator, special_function

    def refuse(e):
        raise AssertionError(f"simplify rebuilt {print_expr(e)}")

    monkeypatch.setattr("solvable.expr.simplify", refuse)
    fam = FamilySpec(SigmaCase.S, -1.13, 2.07)
    system = potential(fam, 1, (1, 2))
    op = hm_operator(fam, 1)
    pts = np.linspace(0.2, 4.0, 100)
    for ell, (lam, psi) in zip((1, 2), system.known_eigenpairs):
        sf = special_function(fam, ell, 1)
        assert lam == eigenvalue(fam, ell)
        got = apply_hm(op, sf, pts)
        want = lam * sf(pts)
        assert np.max(np.abs(got - want) / (1.0 + np.abs(want))) <= 1e-8
        assert residual_norm(system, (lam, psi)) <= 1e-8
    assert residual_norm(solve_params_quantsys(1.37, 0.21, 2, "-")) <= 1e-8


def test_fun_folds_only_finite_constants():
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        big = parse("cosh(1000)")
        assert big == Fun("cosh", Const(1000.0))
        assert evaluate(big, 0.0) == math.inf
        assert parse("cosh(2)") == Const(math.cosh(2.0))


# --- write-once node caches ----------------------------------------------

# A recipe is a nested tuple; ``build`` turns it into a raw tree of node
# constructors (no normalization), a fresh object graph on every call.
_LEAVES = st.one_of(
    st.builds(lambda k: ("const", k), st.integers(-3, 3)),
    st.just(("var",)))


def _extend(children):
    return st.one_of(
        st.builds(lambda ts: ("add", tuple(ts)),
                  st.lists(children, min_size=2, max_size=3)),
        st.builds(lambda fs: ("mul", tuple(fs)),
                  st.lists(children, min_size=2, max_size=3)),
        st.builds(lambda b, p, q: ("pow", b, Fraction(p, q)),
                  children, st.integers(-3, 3), st.integers(1, 3)),
        st.builds(lambda a: ("exp", a), children),
        st.builds(lambda n, a: ("fun", n, a),
                  st.sampled_from(["sin", "log", "cosh"]), children))


RECIPES = st.recursive(_LEAVES, _extend, max_leaves=12)


def build(recipe):
    kind = recipe[0]
    if kind == "const":
        return Const(recipe[1] / 2)
    if kind == "var":
        return Var()
    if kind == "add":
        return Add(tuple(build(r) for r in recipe[1]))
    if kind == "mul":
        return Mul(tuple(build(r) for r in recipe[1]))
    if kind == "pow":
        return Pow(build(recipe[1]), recipe[2])
    if kind == "exp":
        return Exp(build(recipe[1]))
    return Fun(recipe[1], build(recipe[2]))


class _Hashed:
    def __init__(self, h):
        self.h = h

    def __hash__(self):
        return self.h


def structural_hash(e):
    """The frozen-dataclass hash over the fields, recomputed through the
    whole tree without reading any node's cache."""
    def field_value(v):
        if isinstance(v, Expr):
            return _Hashed(structural_hash(v))
        if isinstance(v, tuple):
            return tuple(field_value(u) for u in v)
        return v
    return hash(tuple(field_value(getattr(e, f.name))
                      for f in dataclasses.fields(e)))


@settings(max_examples=200, derandomize=True, database=None, deadline=None)
@given(RECIPES)
def test_equal_trees_hash_equal_and_match_structural_hash(recipe):
    a, b = build(recipe), build(recipe)
    assert a == b
    assert hash(a) == hash(b)
    assert hash(a) == structural_hash(a) == structural_hash(b)
    assert hash(a) == hash(a)  # the second call reads the cache


def test_differentiate_and_simplify_memoized_per_node():
    e = parse("x^2*exp(-x^2/2)*sin(3*x) + log(1 + x^2)")
    d = differentiate(e)
    assert differentiate(e) is d
    assert differentiate(parse(print_expr(e))) == d  # a fresh equal tree
    assert differentiate(differentiate(e)) is differentiate(d)


def test_node_caches_hold_no_self_reference_and_are_not_pickled():
    e = parse("exp(x)*x^(1/2)")
    assert simplify(e) == e
    assert simplify(VAR) is VAR and not hasattr(VAR, "_simplified")
    differentiate(e)
    copy = pickle.loads(pickle.dumps(e))
    assert not any(hasattr(copy, slot) for slot in Expr.__slots__)
    assert copy == e and hash(copy) == hash(e)


def test_non_expr_arguments_still_raise_type_error():
    with pytest.raises(TypeError):
        differentiate(2.0)
    with pytest.raises(TypeError):
        simplify("x")


# --- evaluation against the isinstance-chain evaluator --------------------

def _reference_eval(e, x):
    """The evaluator that checks every node kind in turn and scans every
    fractional power's base for negative and zero entries: the reference
    of the dispatch table in ``expr._eval``.  A power of a Python float
    that overflows is numpy's +-inf, as a power of an array is."""
    if isinstance(e, Const):
        return e.value
    if isinstance(e, Var):
        return x
    if isinstance(e, Add):
        total = _reference_eval(e.terms[0], x)
        for t in e.terms[1:]:
            total = total + _reference_eval(t, x)
        return total
    if isinstance(e, Mul):
        total = _reference_eval(e.factors[0], x)
        for f in e.factors[1:]:
            total = total * _reference_eval(f, x)
        return total
    if isinstance(e, Pow):
        b = _reference_eval(e.base, x)
        q = e.exponent
        if q.denominator == 1:
            n = int(q)
            if n < 0 and np.any(np.asarray(b) == 0.0):
                raise DomainError("pole: zero base with negative exponent")
            return _reference_power(b, n)
        ba = np.asarray(b)
        if np.any(ba < 0):
            raise DomainError("negative base with fractional exponent")
        if q < 0 and np.any(ba == 0.0):
            raise DomainError("pole: zero base with negative exponent")
        return _reference_power(b, float(q))
    if isinstance(e, Exp):
        return np.exp(_reference_eval(e.arg, x))
    if isinstance(e, Fun):
        return _FUNCTIONS[e.name][0](_reference_eval(e.arg, x))
    raise TypeError(f"cannot evaluate {e!r}")


def _reference_power(b, p):
    try:
        return b ** p
    except OverflowError:
        return float(np.power(b, p))


_POINT_VALUES = (0.0, -0.0, 0.5, -0.5, -2.0, math.nan, math.inf, -math.inf)

# raw trees over the seven node kinds and every registered function, with
# constants and exponents that reach each domain check
_EVAL_TREES = st.recursive(
    st.one_of(st.just(VAR),
              st.sampled_from((0.0, 0.5, -0.5, 2.0, -3.0, 1e200)).map(Const)),
    lambda children: st.one_of(
        st.lists(children, min_size=1, max_size=3).map(
            lambda ts: Add(tuple(ts))),
        st.lists(children, min_size=1, max_size=3).map(
            lambda fs: Mul(tuple(fs))),
        st.builds(Pow, children, st.sampled_from(tuple(
            Fraction(p, q) for p in (-3, -1, 0, 1, 2, 3) for q in (1, 2, 3)))),
        st.builds(Exp, children),
        st.builds(Fun, st.sampled_from(sorted(_FUNCTIONS)), children)),
    max_leaves=8)

# Python scalars, 0-d arrays, the empty array and 1-d arrays
_EVAL_POINTS = st.one_of(
    st.sampled_from(_POINT_VALUES),
    st.sampled_from(_POINT_VALUES).map(np.array),
    st.just(np.array([])),
    st.lists(st.sampled_from(_POINT_VALUES), min_size=1, max_size=6).map(
        np.array))


def _outcome(evaluator, e, x):
    """What evaluating gives: the result's type, dtype, shape and bytes,
    or the exception's type and message."""
    with np.errstate(over="ignore", under="ignore", invalid="ignore"):
        try:
            got = evaluator(e, x)
        except Exception as exc:
            return type(exc), str(exc)
    a = np.asarray(got)
    return type(got), a.dtype, a.shape, a.tobytes()


@settings(max_examples=600, derandomize=True, database=None, deadline=None)
@given(_EVAL_TREES, _EVAL_POINTS)
def test_evaluate_matches_isinstance_chain(e, x):
    got = _outcome(evaluate, e, x)
    assert got == _outcome(_reference_eval, e, x)
    if len(got) == 2:
        assert got[0] is DomainError


def test_python_float_power_overflows_to_inf():
    # Python raises OverflowError where numpy's power gives +-inf
    for text, x, want in (("x^3", 1e200, math.inf), ("x^3", -1e200, -math.inf),
                          ("x^(3/2)", 1e300, math.inf),
                          ("x^(-2)", 1e-310, math.inf)):
        got = evaluate(parse(text), x)
        assert type(got) is float and got == want


def test_underflowing_constant_power_stays_symbolic():
    assert pow_(0.5, 20) == Const(0.5 ** 20)
    tiny = pow_(0.5, 2000)  # 0.5^2000 is 0.0 as a float
    assert tiny == Pow(Const(0.5), Fraction(2000))
    assert mul(tiny, X) != Const(0.0)


def test_evaluate_unknown_node_raises_type_error():
    with pytest.raises(TypeError, match="cannot evaluate"):
        evaluate(Expr(), 1.0)
