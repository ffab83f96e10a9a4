import ast
import importlib
import pkgutil
from pathlib import Path

import pytest

import greenflowshop
from greenflowshop import objectives, seeding

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


def test_exec_and_eval_only_in_the_kernel_builder():
    # the two places that compile source: the pricing kernel, built from a
    # machine count alone, and the sampler of `Draws.choice`, built from
    # its shape alone
    package = Path(greenflowshop.__file__).parent
    uses = []
    for path in sorted(package.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        scope = {id(node): "<module>" for node in ast.walk(tree)}
        for func in ast.walk(tree):  # outer functions first, so inner ones win
            if isinstance(func, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
                scope.update((id(node), getattr(func, "name", "<lambda>"))
                             for node in ast.walk(func))
        for node in ast.walk(tree):
            name = (node.id if isinstance(node, ast.Name) else
                    node.attr if isinstance(node, ast.Attribute) else
                    node.name if isinstance(node, ast.alias) else None)
            if name in ("exec", "eval"):
                uses.append((path.stem, scope[id(node)], name))
    assert uses == [("objectives", "_kernel", "exec"), ("seeding", "_sampler", "exec")]


@pytest.mark.parametrize("m", [0, -3, 1.0, 2.5, True, "3", None])
def test_kernel_rejects_a_bad_machine_count_before_building(m, monkeypatch):
    for built in (1, 2):  # a cached int must not answer for 1.0 or True
        objectives._kernel(built)

    def no_exec(*args, **kwargs):
        raise AssertionError("source was compiled")

    monkeypatch.setattr(objectives, "exec", no_exec, raising=False)
    with pytest.raises(ValueError, match="positive int"):
        objectives._kernel(m)


@pytest.mark.parametrize("n, k", [(210.0, 10), (210, 10.0), (True, 1), (2, True), ("3", 2),
                                  (None, 2), (3, 4), (5, -1), (20000, 201), (2**32 + 1, 2)])
def test_sampler_rejects_a_bad_shape_before_building(n, k, monkeypatch):
    for built in ((210, 10), (1, 1), (2, 1)):  # cached ints must not answer for floats or bools
        seeding._sampler(*built)

    def no_exec(*args, **kwargs):
        raise AssertionError("source was compiled")

    monkeypatch.setattr(seeding, "exec", no_exec, raising=False)
    with pytest.raises(ValueError, match="without replacement"):
        seeding._sampler(n, k)
