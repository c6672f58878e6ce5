"""The package's public surface."""

import ast
import importlib
import types
from pathlib import Path

import pytest

import deepo

ROOT = Path(__file__).resolve().parents[1]


def test_every_exported_name_resolves():
    missing = [name for name in deepo.__all__ if not hasattr(deepo, name)]
    assert not missing
    assert len(set(deepo.__all__)) == len(deepo.__all__)


@pytest.mark.parametrize(
    "path",
    sorted(ROOT.glob("perfbench/*.py")) + sorted(ROOT.glob("tools/*.py")),
    ids=lambda path: path.name if path.parent.name == "perfbench" else f"{path.parent.name}/{path.name}",
)
def test_benchmark_imports_resolve(path):
    # The benchmark imports deepo names directly, some inside functions, and
    # reads or patches attributes of deepo modules (harness.run_online); a
    # renamed or deleted name would fail every benchmark run, or, when
    # patched, silently stop capturing what it patches.  The tools that
    # write and compare trace bundles import deepo names the same way, and
    # no test runs them.
    tree = ast.parse(path.read_text(encoding="utf-8"))
    imports = [
        (node.module, alias.name, alias.asname or alias.name)
        for node in ast.walk(tree)
        if isinstance(node, ast.ImportFrom) and node.level == 0 and node.module.split(".")[0] == "deepo"
        for alias in node.names
    ]
    missing = [f"{module}.{name}" for module, name, _ in imports if not hasattr(importlib.import_module(module), name)]
    assert not missing
    bound = {as_name: getattr(importlib.import_module(module), name) for module, name, as_name in imports}
    bound.update(
        (alias.asname or alias.name, deepo)
        for node in ast.walk(tree)
        if isinstance(node, ast.Import)
        for alias in node.names
        if alias.name == "deepo"
    )
    modules = {name: obj for name, obj in bound.items() if isinstance(obj, types.ModuleType)}
    missing = [
        f"{modules[node.value.id].__name__}.{node.attr}"
        for node in ast.walk(tree)
        if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name) and node.value.id in modules
        if not hasattr(modules[node.value.id], node.attr)
    ]
    assert not missing
