"""Every export list names only what its module defines, so a deleted name
cannot linger in an `__all__`."""

import importlib
import pkgutil

import pytest

import dropsim

MODULES = [dropsim] + [importlib.import_module(f"dropsim.{info.name}")
                       for info in pkgutil.iter_modules(dropsim.__path__)]


@pytest.mark.parametrize("module", MODULES, ids=lambda m: m.__name__)
def test_every_exported_name_resolves(module):
    assert [name for name in module.__all__ if not hasattr(module, name)] == []
