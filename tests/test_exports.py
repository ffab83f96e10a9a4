import ast
import importlib
import pkgutil
from pathlib import Path

import pytest

import greenflowshop

MODULES = ["greenflowshop"] + [
    f"greenflowshop.{info.name}" for info in pkgutil.iter_modules(greenflowshop.__path__)
]


@pytest.mark.parametrize("name", MODULES)
def test_every_exported_name_resolves(name):
    module = importlib.import_module(name)
    assert [n for n in module.__all__ if not hasattr(module, n)] == []


def _imported_roots(path: Path) -> set[str]:
    roots = set()
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if isinstance(node, ast.Import):
            roots.update(alias.name.split(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            roots.add(node.module.split(".")[0])
    return roots


def test_only_seeding_imports_numpy():
    # the other modules reach numpy only through `seeding`, which keeps the
    # raw-stream boundary in one file
    package = Path(greenflowshop.__file__).parent
    importers = sorted(
        path.stem for path in package.glob("*.py") if "numpy" in _imported_roots(path)
    )
    assert importers == ["seeding"]
