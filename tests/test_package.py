"""What the package exports."""

import ast
import inspect
from pathlib import Path

import solvable
from solvable import errors

SRC = Path(solvable.__file__).resolve().parent

# one class per kind of failure
ERRORS = {
    "SolvableError", "InvalidParameter", "ExprSyntaxError", "DomainError",
    "Inadmissible", "DegreeBeyondCutoff", "NonFiniteValue",
    "QuadratureNoConverge", "BisectionNoConverge",
}


def test_every_error_is_exported():
    # NonFiniteValue and BisectionNoConverge were raised by the oracle but
    # could not be imported from the package
    found = {name for name, obj in vars(errors).items()
             if inspect.isclass(obj) and issubclass(obj, errors.SolvableError)}
    assert found == ERRORS
    for name in found:
        assert name in solvable.__all__
        assert getattr(solvable, name) is getattr(errors, name)


def test_every_error_is_raised():
    # a class no module raises names no failure; SolvableError, the base,
    # is raised through its subclasses and caught by the CLI
    raised, caught = set(), set()
    for path in SRC.glob("*.py"):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Raise) and isinstance(node.exc, ast.Call) \
                    and isinstance(node.exc.func, ast.Name):
                raised.add(node.exc.func.id)
            elif isinstance(node, ast.ExceptHandler) \
                    and isinstance(node.type, ast.Name):
                caught.add(node.type.id)
    assert ERRORS - {"SolvableError"} <= raised
    assert "SolvableError" in caught
