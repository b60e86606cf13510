"""Every name a module lists in ``__all__`` exists, so a deletion that leaves a
stale export fails here rather than at a user's first import."""

import importlib
import pkgutil

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
