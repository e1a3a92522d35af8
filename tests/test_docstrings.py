"""The usage examples in the package and ``expr`` docstrings must stay
true."""

import doctest

import solvable
import solvable.expr


def test_package_docstring_examples():
    results = doctest.testmod(solvable, verbose=False)
    assert results.attempted >= 2
    assert results.failed == 0


def test_expr_docstring_examples():
    results = doctest.testmod(solvable.expr, verbose=False)
    assert results.attempted >= 3
    assert results.failed == 0
