"""The package exports each library module's ``__all__``, and nothing is lost."""

import importlib
import pkgutil

import pytest

import xsplice

#: Modules that are entry points, not library layers re-exported at the top.
ENTRY_POINTS = {"cli", "__main__"}

LIBRARY_MODULES = sorted(info.name for info in pkgutil.iter_modules(xsplice.__path__)
                         if info.name not in ENTRY_POINTS)


@pytest.mark.parametrize("module_name", LIBRARY_MODULES)
def test_module_all_is_exported_at_top_level(module_name):
    module = importlib.import_module(f"xsplice.{module_name}")
    missing = [name for name in module.__all__
               if getattr(xsplice, name, None) is not getattr(module, name)]
    assert not missing, f"xsplice.{module_name}.__all__ not re-exported: {missing}"
