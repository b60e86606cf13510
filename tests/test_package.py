"""Every name a module lists in ``__all__`` exists, so a deletion that leaves a
stale export fails here rather than at a user's first import; and every
function the benchmark's tracer wraps exists."""

import ast
import importlib
import pkgutil
from pathlib import Path

import pytest

import uca

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
