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


# each module imports only from modules ranked below it
LAYERS = ("errors", "expr", ("families", "oracle"), "polynomials", "specfun",
          "schrodinger", "generator", "acceptance", "cli")
RANK = {name: rank for rank, layer in enumerate(LAYERS)
        for name in ((layer,) if isinstance(layer, str) else layer)}
# differentiate is the one exception: oracle.residual still takes psi''
# from the symbolic derivative
ORACLE_FROM_EXPR = {"Expr", "as_function", "evaluate", "differentiate"}


def _imports(tree):
    """(module, name) for each name a module imports: relative imports as
    their sibling module, ``from . import m`` as (m, None), absolute
    imports as their top-level package."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                yield alias.name.partition(".")[0], None
        elif isinstance(node, ast.ImportFrom) and node.level:
            for alias in node.names:
                if node.module is None:
                    yield alias.name, None
                else:
                    yield node.module, alias.name
        elif isinstance(node, ast.ImportFrom):
            yield node.module.partition(".")[0], None


def test_layer_graph():
    # the generator stays symbolic, the oracle reads Exprs through a few
    # names, and no module reaches into another's private names
    modules = {path.stem: set(_imports(ast.parse(path.read_text())))
               for path in SRC.glob("*.py")}
    assert set(modules) == set(RANK) | {"__init__", "__main__"}
    faults = []
    for mod, imports in sorted(modules.items()):
        for dep, name in sorted(imports, key=str):
            if dep in RANK and mod in RANK and not RANK[dep] < RANK[mod]:
                faults.append(f"{mod} imports {dep}, not ranked below it")
            if name is not None and name.startswith("_"):
                faults.append(f"{mod} imports private {dep}.{name}")
    for dep in ("numpy", "oracle"):
        if any(d == dep for d, _ in modules["generator"]):
            faults.append(f"generator imports {dep}")
    taken = {name for dep, name in modules["oracle"] if dep == "expr"}
    if not taken <= ORACLE_FROM_EXPR:
        faults.append(f"oracle takes {sorted(taken - ORACLE_FROM_EXPR)} "
                      f"from expr")
    assert faults == []
