"""The package exports each library module's ``__all__``, and nothing is lost.

Nor is a data file: an installed package carries only the files that a
``package-data`` glob in ``pyproject.toml`` names.
"""

import fnmatch
import importlib
import pkgutil
import tomllib
from pathlib import Path

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


def test_every_data_file_is_package_data():
    package = Path(xsplice.__file__).resolve().parent
    pyproject = tomllib.loads((package.parents[1] / "pyproject.toml").read_text())
    globs = pyproject["tool"]["setuptools"]["package-data"]["xsplice"]
    files = sorted(path.relative_to(package).as_posix()
                   for path in (package / "data").iterdir())
    assert "data/paper.ini" in files and "data/materials.json" in files
    unshipped = [f for f in files if not any(fnmatch.fnmatch(f, g) for g in globs)]
    assert not unshipped, f"not in [tool.setuptools.package-data]: {unshipped}"
