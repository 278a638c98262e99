"""Every exception the library raises itself is a typed TpdsError."""

import ast
import importlib
import inspect
import pkgutil

import pytest

import tpds
from tpds.errors import TpdsError

MODULES = sorted(m.name for m in pkgutil.iter_modules(tpds.__path__))
# exprlang's tree walkers reject a caller's non-AST argument, a programming
# error rather than bad input
ALLOWED = {("exprlang", "TypeError")}


def raised_names(module):
    """(line, name) of every raise in the module's source; name is None for
    a bare re-raise."""
    tree = ast.parse(inspect.getsource(module))
    for node in ast.walk(tree):
        if isinstance(node, ast.Raise):
            exc = node.exc
            if exc is None:
                yield node.lineno, None
                continue
            if isinstance(exc, ast.Call):
                exc = exc.func
            yield node.lineno, exc.id if isinstance(exc, ast.Name) else ast.unparse(exc)


@pytest.mark.parametrize("name", MODULES)
def test_every_raise_names_a_tpds_error(name):
    module = importlib.import_module(f"tpds.{name}")  # tpds.floquet is the function
    untyped = []
    for line, raised in raised_names(module):
        if raised is None or (name, raised) in ALLOWED:
            continue
        cls = getattr(module, raised, None)
        if not (isinstance(cls, type) and issubclass(cls, TpdsError)):
            untyped.append(f"{name}.py:{line} raises {raised}")
    assert not untyped, untyped


def test_the_walk_sees_every_module():
    assert {"cli", "integrate", "specfile", "totalpos", "exprlang"} <= set(MODULES)
    assert sum(1 for _ in raised_names(tpds.exprlang)) >= 3
