import importlib
import pkgutil

import pytest

import greenflowshop

MODULES = ["greenflowshop"] + [
    f"greenflowshop.{info.name}" for info in pkgutil.iter_modules(greenflowshop.__path__)
]


@pytest.mark.parametrize("name", MODULES)
def test_every_exported_name_resolves(name):
    module = importlib.import_module(name)
    assert [n for n in module.__all__ if not hasattr(module, n)] == []
