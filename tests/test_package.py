"""Every name a module lists in ``__all__`` exists, so a deletion that leaves a
stale export fails here rather than at a user's first import; every function
the benchmark's tracer wraps exists; and every leaf error class is used."""

import ast
import importlib
import pkgutil
from pathlib import Path

import pytest

import uca
from uca import errors

_MODULES = [name for name in ["uca", *(f"uca.{info.name}"
                                       for info in pkgutil.iter_modules(uca.__path__))]
            if hasattr(importlib.import_module(name), "__all__")]


@pytest.mark.parametrize("name", _MODULES)
def test_public_names_resolve(name):
    module = importlib.import_module(name)
    assert [n for n in module.__all__ if not hasattr(module, n)] == []
    namespace: dict = {}
    exec(f"from {name} import *", namespace)
    assert set(module.__all__) <= set(namespace)


def _traced_functions() -> dict:
    """The benchmark tracer's FUNCTIONS table, read from its source without
    importing it."""
    source = Path(__file__).resolve().parent.parent / "bench" / "tracing.py"
    for node in ast.parse(source.read_text()).body:
        if isinstance(node, ast.Assign) and getattr(node.targets[0], "id", None) == "FUNCTIONS":
            return ast.literal_eval(node.value)
    raise AssertionError(f"no FUNCTIONS table in {source}")


def test_every_traced_function_exists():
    """A function the benchmark's tracer wraps cannot be renamed away, which
    would leave its per-layer metric reading 0."""
    functions = _traced_functions()
    assert functions
    missing = [f"{module}.{attr}" for module, attr in functions
               if not callable(getattr(importlib.import_module(module), attr, None))]
    assert missing == []


def test_every_leaf_error_class_is_used():
    """Each class of ``uca.errors`` that no other class there derives from is
    used in the code of another ``uca`` module, so a check deleted from a
    constructor cannot leave a dead error class behind."""
    classes = [value for value in vars(errors).values()
               if isinstance(value, type) and value.__module__ == errors.__name__]
    leaves = {cls.__name__ for cls in classes
              if not any(other is not cls and issubclass(other, cls) for other in classes)}
    used: set[str] = set()
    for path in Path(uca.__file__).parent.glob("*.py"):
        if path.name != "errors.py":
            used |= {node.id if isinstance(node, ast.Name) else node.attr
                     for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
                     if isinstance(node, (ast.Name, ast.Attribute))}
    assert leaves
    assert sorted(leaves - used) == []
