"""What the package exports."""

import inspect

import solvable
from solvable import errors


def test_every_error_is_exported():
    # NonFiniteValue and BisectionNoConverge were raised by the oracle but
    # could not be imported from the package
    found = {name for name, obj in vars(errors).items()
             if inspect.isclass(obj) and issubclass(obj, errors.SolvableError)}
    assert len(found) == 18
    for name in found:
        assert name in solvable.__all__
        assert getattr(solvable, name) is getattr(errors, name)
