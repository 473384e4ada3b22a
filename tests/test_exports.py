"""Every name a gaussctm module lists in `__all__` exists, so that
`from gaussctm.<module> import *` works."""

import importlib
import pkgutil

import pytest

import gaussctm

MODULES = sorted(m.name for m in pkgutil.iter_modules(gaussctm.__path__))


@pytest.mark.parametrize("name", MODULES)
def test_every_all_entry_resolves(name):
    module = importlib.import_module(f"gaussctm.{name}")
    missing = [n for n in module.__all__ if not hasattr(module, n)]
    assert not missing, f"gaussctm.{name}.__all__ names missing {missing}"
    namespace = {}
    exec(f"from gaussctm.{name} import *", namespace)
    assert set(module.__all__) <= namespace.keys()
