"""Minimal symbolic expression IR.

Immutable trees over one variable with node kinds Const, Var, Add, Mul,
Pow (rational exponent), Exp, and a small registry of named unary
functions (sin, cos, sinh, cosh and arctan for the variable maps and
weights, log and arcsin for parsed input).  Supports symbolic
differentiation, conservative simplification, substitution, parsing,
printing, and pointwise evaluation on scalars or numpy arrays;
``as_function`` turns an Expr into the function of an array that the
numerical oracle and the scalar product call, and passes a callable on.

Nodes never change after construction, so each one carries write-once
caches of values that depend only on its structure: its hash (equal to
the frozen-dataclass hash over its fields) and its derivative.  They are
filled on first use and hold the same value whichever thread fills them;
pickling and copying leave them out.  Nodes are slotted, so they carry
no instance dict.

Normal form is established once, by the constructors ``add``, ``mul``,
``pow_``, ``exp_`` and ``fun_``: each returns a normalized tree when its
arguments are normalized.  ``compose``, ``differentiate`` and ``parse``
build only through them, so every tree they return is already in normal
form and ``simplify`` returns an equal tree.  ``simplify`` is for trees
assembled directly from the node classes; it rebuilds them bottom-up
through the constructors, as composing with the variable does.

The normal form is deliberately conservative: sums and products are
flattened, constants folded (unless the value would overflow, or a power
underflow to zero), powers of structurally equal bases merged, integer
powers of powers collapsed and exp factors combined.  Products are never
distributed over sums, exp(log u) is kept as written and no domain is
extended, so ``evaluate(simplify(e), x) == evaluate(e, x)`` wherever
both sides are defined.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .errors import DomainError, ExprSyntaxError

__all__ = [
    "Expr", "Const", "Var", "Add", "Mul", "Pow", "Exp", "Fun",
    "VAR", "ZERO", "ONE",
    "as_expr", "as_fraction", "add", "mul", "pow_", "exp_", "fun_",
    "differentiate", "evaluate", "as_function", "simplify", "compose",
    "parse", "print_expr", "power_terms",
    "QUIET", "power",
]


def as_fraction(q) -> Fraction:
    """Exact rational from int, Fraction, or float.

    Floats are binary rationals, so the conversion is exact; a short
    equivalent fraction (e.g. 1/10 for 0.1) is preferred when it
    round-trips to the identical float.
    """
    if isinstance(q, Fraction):
        return q
    if isinstance(q, int):
        return Fraction(q)
    f = Fraction(float(q))
    short = f.limit_denominator(10 ** 12)
    return short if float(short) == float(q) else f


class Expr:
    """Base node; subclasses are slotted frozen dataclasses made by
    ``_node``.  The two slots here are the write-once caches; each stays
    unset until first filled."""

    __slots__ = ("_hash", "_derivative")


# the frozen dataclasses' __setattr__ refuses every write, the caches too
_set_hash = Expr._hash.__set__
_set_derivative = Expr._derivative.__set__


def _node(cls):
    """Slotted frozen dataclass whose structural hash is computed at most
    once."""
    cls = dataclass(frozen=True, slots=True)(cls)
    structural = cls.__hash__

    def __hash__(self):
        try:
            return self._hash
        except AttributeError:
            h = structural(self)
            _set_hash(self, h)
            return h

    cls.__hash__ = __hash__
    return cls


@_node
class Const(Expr):
    value: float

    def __post_init__(self):
        object.__setattr__(self, "value", float(self.value))


@_node
class Var(Expr):
    pass


@_node
class Add(Expr):
    terms: tuple


@_node
class Mul(Expr):
    factors: tuple


@_node
class Pow(Expr):
    base: Expr
    exponent: Fraction


@_node
class Exp(Expr):
    arg: Expr


@_node
class Fun(Expr):
    name: str
    arg: Expr


VAR = Var()
ZERO = Const(0.0)
ONE = Const(1.0)
_ONE_Q = Fraction(1)


def as_expr(v) -> Expr:
    if isinstance(v, Expr):
        return v
    if isinstance(v, (int, float, Fraction, np.floating, np.integer)):
        return Const(float(v))
    raise TypeError(f"cannot interpret {v!r} as an expression")


# --- function registry -------------------------------------------------

def _safe_log(u):
    if np.any(np.asarray(u) <= 0):
        raise DomainError("log of a non-positive value")
    return np.log(u)


def _safe_arcsin(u):
    if np.any(np.abs(np.asarray(u)) > 1):
        raise DomainError("arcsin argument outside [-1, 1]")
    return np.arcsin(u)


# name -> (numeric evaluator, derivative builder d f(u)/du as Expr in u)
_FUNCTIONS = {
    "sin": (np.sin, lambda u: fun_("cos", u)),
    "cos": (np.cos, lambda u: mul(-1, fun_("sin", u))),
    "sinh": (np.sinh, lambda u: fun_("cosh", u)),
    "cosh": (np.cosh, lambda u: fun_("sinh", u)),
    "log": (_safe_log, lambda u: pow_(u, -1)),
    "arcsin": (_safe_arcsin,
               lambda u: pow_(add(1, mul(-1, pow_(u, 2))), Fraction(-1, 2))),
    "arctan": (np.arctan, lambda u: pow_(add(1, pow_(u, 2)), -1)),
}


# --- normalizing constructors ------------------------------------------

def _split_coeff(t):
    """Split a canonical term into (coefficient, structural core)."""
    if isinstance(t, Const):
        return t.value, None
    if isinstance(t, Mul) and t.factors and isinstance(t.factors[0], Const):
        rest = t.factors[1:]
        core = rest[0] if len(rest) == 1 else Mul(rest)
        return t.factors[0].value, core
    return 1.0, t


def add(*terms) -> Expr:
    """Sum with flattening, constant folding, and like-term collection."""
    const = 0.0
    coeffs = {}  # core -> coefficient, in order of first appearance

    def absorb(t):
        nonlocal const
        t = as_expr(t)
        if isinstance(t, Add):
            for sub in t.terms:
                absorb(sub)
            return
        c, core = _split_coeff(t)
        if core is None:
            const += c
            return
        prev = coeffs.get(core)
        coeffs[core] = c if prev is None else prev + c

    for t in terms:
        absorb(t)

    out = []
    if const != 0.0:
        out.append(Const(const))
    for core, c in coeffs.items():
        if c == 0.0:
            continue
        out.append(core if c == 1.0 else mul(c, core))
    if not out:
        return ZERO
    if len(out) == 1:
        return out[0]
    return Add(tuple(out))


def mul(*factors) -> Expr:
    """Product with flattening, constant folding, and merging of powers
    with structurally equal bases; exp factors are combined."""
    const = 1.0
    expo = {}  # base -> exponent, in order of first appearance
    exp_args = []

    def absorb(f):
        nonlocal const
        f = as_expr(f)
        if isinstance(f, Mul):
            for sub in f.factors:
                absorb(sub)
            return
        if isinstance(f, Const):
            const *= f.value
            return
        if isinstance(f, Exp):
            exp_args.append(f.arg)
            return
        if isinstance(f, Pow):
            base, q = f.base, f.exponent
        else:
            base, q = f, _ONE_Q
        prev = expo.get(base)
        expo[base] = q if prev is None else prev + q

    for f in factors:
        absorb(f)

    if const == 0.0:
        return ZERO

    out = []
    for base, q in expo.items():
        if q == 0:
            continue
        out.append(base if q == 1 else pow_(base, q))
    if exp_args:
        e = exp_(add(*exp_args))
        if isinstance(e, Const):
            const *= e.value
        else:
            out.append(e)

    if not out:
        return Const(const)
    if const != 1.0:
        out.insert(0, Const(const))
    if len(out) == 1:
        return out[0]
    return Mul(tuple(out))


def pow_(base, exponent) -> Expr:
    base = as_expr(base)
    q = as_fraction(exponent)
    if q == 0:
        return ONE
    if q == 1:
        return base
    if isinstance(base, Const):
        c = base.value
        if c > 0 or (c != 0 and q.denominator == 1):
            try:
                v = c ** float(q)
            except OverflowError:
                return Pow(base, q)
            # a power that underflows stays symbolic too: folded to 0 it
            # would zero every product it is a factor of
            return Const(v) if v != 0.0 else Pow(base, q)
        if c == 0:
            if q > 0:
                return ZERO
            raise DomainError("zero raised to a negative power")
        raise DomainError("negative base with fractional exponent")
    if isinstance(base, Pow) and (q.denominator == 1
                                  or base.exponent.denominator > 1):
        # (u^a)^q = u^(a q): valid for integer q, and for fractional a
        # because evaluation then already restricts to u >= 0
        return pow_(base.base, base.exponent * q)
    if isinstance(base, Mul):
        if q.denominator == 1:
            return mul(*(pow_(f, q) for f in base.factors))
        # fractional exponent: peel off the known-positive factors
        safe = [f for f in base.factors
                if isinstance(f, Exp) or (isinstance(f, Const) and f.value > 0)]
        if safe:
            rest = [f for f in base.factors if f not in safe]
            parts = [pow_(f, q) for f in safe]
            if rest:
                inner = rest[0] if len(rest) == 1 else Mul(tuple(rest))
                parts.append(pow_(inner, q))
            return mul(*parts)
    if isinstance(base, Exp):
        return exp_(mul(q, base.arg))
    return Pow(base, q)


def exp_(arg) -> Expr:
    arg = as_expr(arg)
    if isinstance(arg, Const) and arg.value < 700.0:  # never fold to inf
        return Const(math.exp(arg.value))
    return Exp(arg)


def fun_(name, arg) -> Expr:
    arg = as_expr(arg)
    if name not in _FUNCTIONS:
        raise KeyError(f"unknown function {name!r}")
    if isinstance(arg, Const):
        with np.errstate(over="ignore", invalid="ignore"):
            value = float(_FUNCTIONS[name][0](arg.value))
        if math.isfinite(value):
            return Const(value)
    return Fun(name, arg)  # keep an overflowing or NaN constant symbolic


# --- core operations ----------------------------------------------------

def differentiate(e: Expr) -> Expr:
    """Exact symbolic derivative with respect to the variable; computed
    once per node."""
    if isinstance(e, Const):
        return ZERO
    if isinstance(e, Var):
        return ONE
    try:
        return e._derivative
    except AttributeError:
        d = _derivative(e)
        _set_derivative(e, d)
        return d


def _derivative(e: Expr) -> Expr:
    if isinstance(e, Add):
        return add(*(differentiate(t) for t in e.terms))
    if isinstance(e, Mul):
        parts = []
        for i, f in enumerate(e.factors):
            df = differentiate(f)
            if df is ZERO or (isinstance(df, Const) and df.value == 0.0):
                continue
            parts.append(mul(*e.factors[:i], df, *e.factors[i + 1:]))
        return add(*parts) if parts else ZERO
    if isinstance(e, Pow):
        return mul(e.exponent, pow_(e.base, e.exponent - 1),
                   differentiate(e.base))
    if isinstance(e, Exp):
        return mul(e, differentiate(e.arg))
    if isinstance(e, Fun):
        outer = _FUNCTIONS[e.name][1](e.arg)
        return mul(outer, differentiate(e.arg))
    raise TypeError(f"cannot differentiate {e!r}")


# the errstate ``evaluate`` runs under
QUIET = dict(over="ignore", under="ignore", invalid="ignore")


def evaluate(e: Expr, value):
    """Evaluate at a scalar or numpy array; raises DomainError outside
    the mathematical domain.  Overflow, underflow and inf * 0 or inf - inf
    pass silently as inf, 0 and NaN; callers that report numbers check
    that they are finite.

    Each node is dispatched on its type through one table lookup.  A
    fractional power checks its base with one minimum; the scans for a
    negative and a zero entry, which name the violated domain, run only
    when that minimum is not positive, so also on NaN and on an empty
    array.
    """
    with np.errstate(**QUIET):
        return _eval(e, value)


def as_function(f):
    """An Expr as a function of an array; a callable as it is, so it must
    take an array of points."""
    if isinstance(f, Expr):
        return lambda xs: evaluate(f, xs)
    return f


def _eval(e, x):
    try:
        rule = _EVAL[type(e)]
    except KeyError:
        raise TypeError(f"cannot evaluate {e!r}") from None
    return rule(e, x)


def _eval_add(e, x):
    total = _eval(e.terms[0], x)
    for t in e.terms[1:]:
        total = total + _eval(t, x)
    return total


def _eval_mul(e, x):
    total = _eval(e.factors[0], x)
    for f in e.factors[1:]:
        total = total * _eval(f, x)
    return total


def _eval_pow(e, x):
    return power(_eval(e.base, x), e.exponent)


def power(b, q: Fraction):
    """b^q as ``evaluate`` computes a Pow node whose base evaluated to b:
    DomainError outside the domain, else b raised to q rounded once.  Call
    it under evaluate's errstate, ``QUIET``."""
    if q.denominator == 1:
        p = q.numerator
        if p < 0 and np.any(np.asarray(b) == 0.0):
            raise DomainError("pole: zero base with negative exponent")
    else:
        ba = np.asarray(b)
        if not (ba.size and ba.min() > 0):
            if np.any(ba < 0):
                raise DomainError("negative base with fractional exponent")
            if q < 0 and np.any(ba == 0.0):
                raise DomainError("pole: zero base with negative exponent")
        # int / int is correctly rounded, so this is float(q)
        p = q.numerator / q.denominator
    try:
        return b ** p
    except OverflowError:  # of a Python float: +-inf, as numpy gives
        return float(np.power(b, p))


_EVAL = {
    Const: lambda e, x: e.value,
    Var: lambda e, x: x,
    Add: _eval_add,
    Mul: _eval_mul,
    Pow: _eval_pow,
    Exp: lambda e, x: np.exp(_eval(e.arg, x)),
    Fun: lambda e, x: _FUNCTIONS[e.name][0](_eval(e.arg, x)),
}


def compose(outer: Expr, inner) -> Expr:
    """Substitute ``inner`` for the variable of ``outer``."""
    inner = as_expr(inner)
    if isinstance(outer, Const):
        return outer
    if isinstance(outer, Var):
        return inner
    if isinstance(outer, Add):
        return add(*(compose(t, inner) for t in outer.terms))
    if isinstance(outer, Mul):
        return mul(*(compose(f, inner) for f in outer.factors))
    if isinstance(outer, Pow):
        return pow_(compose(outer.base, inner), outer.exponent)
    if isinstance(outer, Exp):
        return exp_(compose(outer.arg, inner))
    if isinstance(outer, Fun):
        return fun_(outer.name, compose(outer.arg, inner))
    raise TypeError(f"cannot compose {outer!r}")


def simplify(e: Expr) -> Expr:
    """Bottom-up rebuild through the normalizing constructors.

    >>> print_expr(simplify(Exp(Mul((Const(2.0), Fun("log", VAR))))))
    'exp(2*log(x))'
    """
    return compose(e, VAR)


def power_terms(e: Expr):
    """Read a normal-form expression as sum_q c_q * x^q.

    Returns ``{exponent: coefficient}`` with Fraction keys, or None if
    any term is not a constant multiple of a pure power of the variable.

    >>> power_terms(parse("2*x^2 - 3*x + 4"))
    {Fraction(0, 1): 4.0, Fraction(2, 1): 2.0, Fraction(1, 1): -3.0}
    >>> power_terms(parse("(1 + x)^2")) is None
    True
    """
    terms = e.terms if isinstance(e, Add) else (e,)
    out = {}
    for t in terms:
        c, core = _split_coeff(t)
        if core is None:
            q = Fraction(0)
        elif isinstance(core, Var):
            q = Fraction(1)
        elif isinstance(core, Pow) and isinstance(core.base, Var):
            q = core.exponent
        else:
            return None
        out[q] = out.get(q, 0.0) + c
    return out


# --- printing ------------------------------------------------------------

def _fmt_const(c: float) -> str:
    if c.is_integer() and abs(c) < 1e15:  # never for inf or NaN
        return str(int(c))
    return repr(c)


def _fmt_exponent(q: Fraction) -> str:
    if q.denominator == 1 and q >= 0:
        return str(q.numerator)
    if q.denominator == 1:
        return f"({q.numerator})"
    return f"({q.numerator}/{q.denominator})"


def _print(e: Expr, var: str) -> str:
    if isinstance(e, Const):
        return _fmt_const(e.value)
    if isinstance(e, Var):
        return var
    if isinstance(e, Add):
        parts = [_print(t, var) for t in e.terms]
        s = parts[0]
        for p in parts[1:]:
            s += " - " + p[1:] if p.startswith("-") else " + " + p
        return s
    if isinstance(e, Mul):
        parts = []
        for f in e.factors:
            p = _print(f, var)
            if isinstance(f, Add) or (isinstance(f, Const) and f.value < 0
                                      and parts):
                p = f"({p})"
            parts.append(p)
        return "*".join(parts)
    if isinstance(e, Pow):
        b = _print(e.base, var)
        if isinstance(e.base, (Add, Mul, Pow, Exp)) or (
                isinstance(e.base, Const) and e.base.value < 0):
            b = f"({b})"
        return f"{b}^{_fmt_exponent(e.exponent)}"
    if isinstance(e, Exp):
        return f"exp({_print(e.arg, var)})"
    if isinstance(e, Fun):
        return f"{e.name}({_print(e.arg, var)})"
    raise TypeError(f"cannot print {e!r}")


def print_expr(e: Expr, var: str = "x") -> str:
    """Render to text in the grammar accepted by parse()."""
    return _print(e, var)


# --- parsing -------------------------------------------------------------

_VAR_NAMES = ("x", "r", "s")

# parentheses and calls nest at most this deep; at six frames a level the
# recursive descent stays well inside the default recursion limit of 1000
_MAX_NESTING = 100


class _Tokenizer:
    def __init__(self, text):
        self.text = text
        self.pos = 0
        self.tokens = []
        self._scan()
        self.i = 0
        self.depth = 0  # open parentheses and calls

    def _scan(self):
        t, n = self.text, len(self.text)
        i = 0
        while i < n:
            ch = t[i]
            if ch.isspace():
                i += 1
                continue
            if ch.isdigit() or (ch == "." and i + 1 < n and t[i + 1].isdigit()):
                j = i
                while j < n and (t[j].isdigit() or t[j] == "."):
                    j += 1
                if j < n and t[j] in "eE" and (
                        j + 1 < n and (t[j + 1].isdigit()
                                       or t[j + 1] in "+-")):
                    j += 2
                    while j < n and t[j].isdigit():
                        j += 1
                self.tokens.append(("num", t[i:j], i))
                i = j
                continue
            if ch.isalpha() or ch == "_":
                j = i
                while j < n and (t[j].isalnum() or t[j] == "_"):
                    j += 1
                self.tokens.append(("name", t[i:j], i))
                i = j
                continue
            if ch in "+-*/^(),":
                self.tokens.append((ch, ch, i))
                i += 1
                continue
            raise ExprSyntaxError(f"unexpected character {ch!r}", i)
        self.tokens.append(("end", "", n))

    def peek(self):
        return self.tokens[self.i]

    def next(self):
        tok = self.tokens[self.i]
        self.i += 1
        return tok

    def expect(self, kind):
        tok = self.next()
        if tok[0] != kind:
            raise ExprSyntaxError(
                f"expected {kind!r}, found {tok[1]!r}", tok[2])
        return tok


def _finite_float(text, pos) -> float:
    """The value of a number literal: a finite float, zero only when the
    literal is.  float() rounds without building 10^k for the exponent k,
    and a literal that passes has a k no longer than its text."""
    try:
        value = float(text)
    except ValueError:
        raise ExprSyntaxError(f"bad number {text!r}", pos) from None
    if not math.isfinite(value) or (
            value == 0.0 and text.lower().partition("e")[0].strip("0.")):
        raise ExprSyntaxError(
            f"number {text!r} is beyond the float range", pos)
    return value


def _parse_number(text, pos) -> Fraction:
    """The exact value of an exponent literal."""
    return Fraction(text) if _finite_float(text, pos) else Fraction(0)


def _parse_exponent(tk: _Tokenizer) -> Fraction:
    kind, text, pos = tk.peek()
    if kind == "num":
        tk.next()
        return _parse_number(text, pos)
    if kind == "(":
        tk.next()
        sign = 1
        kind, text, pos = tk.next()
        if kind == "-":
            sign = -1
            kind, text, pos = tk.next()
        if kind != "num":
            raise ExprSyntaxError("exponent must be a rational literal", pos)
        q = _parse_number(text, pos)
        kind, text, pos = tk.peek()
        if kind == "/":
            tk.next()
            kind, text, pos = tk.next()
            if kind != "num":
                raise ExprSyntaxError(
                    "exponent denominator must be a number", pos)
            den = _parse_number(text, pos)
            if den == 0:
                raise ExprSyntaxError("exponent denominator is zero", pos)
            q = q / den
        kind, text, pos = tk.next()
        if kind != ")":
            raise ExprSyntaxError("exponent must be a rational literal", pos)
        return sign * q
    raise ExprSyntaxError("exponent must be a rational literal", pos)


def _parse_sum(tk):
    e = _parse_product(tk)
    while tk.peek()[0] in "+-":
        op = tk.next()[0]
        rhs = _parse_product(tk)
        e = add(e, rhs) if op == "+" else add(e, mul(-1, rhs))
    return e


def _parse_product(tk):
    e = _parse_unary(tk)
    while tk.peek()[0] in "*/":
        op = tk.next()[0]
        rhs = _parse_unary(tk)
        e = mul(e, rhs) if op == "*" else mul(e, pow_(rhs, -1))
    return e


def _parse_unary(tk):
    negative = False
    while tk.peek()[0] in "+-":
        negative ^= tk.next()[0] == "-"
    e = _parse_power(tk)
    return mul(-1, e) if negative else e


def _parse_power(tk):
    e = _parse_atom(tk)
    if tk.peek()[0] == "^":
        tk.next()
        e = pow_(e, _parse_exponent(tk))
    return e


def _parse_group(tk, pos):
    """The sum after the '(' at ``pos``, through its ')'."""
    tk.depth += 1
    if tk.depth > _MAX_NESTING:
        raise ExprSyntaxError(
            f"more than {_MAX_NESTING} nested parentheses", pos)
    e = _parse_sum(tk)
    tk.expect(")")
    tk.depth -= 1
    return e


def _parse_atom(tk):
    kind, text, pos = tk.next()
    if kind == "num":
        return Const(_finite_float(text, pos))
    if kind == "name":
        if text in _VAR_NAMES:
            return VAR
        if tk.peek()[0] == "(":
            arg = _parse_group(tk, tk.next()[2])
            if text == "exp":
                return exp_(arg)
            if text == "sqrt":
                return pow_(arg, Fraction(1, 2))
            if text in _FUNCTIONS:
                return fun_(text, arg)
            raise ExprSyntaxError(f"unknown function {text!r}", pos)
        raise ExprSyntaxError(f"unknown name {text!r}", pos)
    if kind == "(":
        return _parse_group(tk, pos)
    raise ExprSyntaxError(f"unexpected token {text!r}", pos)


def parse(text: str) -> Expr:
    """Parse expression text over one variable named x, r, or s.

    Grammar: numbers, the variable, ``+ - * / ^``, parentheses,
    ``exp(...)``, ``sqrt(...)``, and registered function names;
    ``^`` takes a rational literal exponent such as ``2`` or ``(2/3)``.
    A number must be a finite float, and parentheses and calls nest at
    most _MAX_NESTING deep; ExprSyntaxError otherwise.
    """
    tk = _Tokenizer(text)
    e = _parse_sum(tk)
    kind, text_, pos = tk.peek()
    if kind != "end":
        raise ExprSyntaxError(f"trailing input {text_!r}", pos)
    return e
