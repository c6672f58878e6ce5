"""The package's public surface."""

import ast
import importlib
from pathlib import Path

import pytest

import deepo

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def test_every_exported_name_resolves():
    missing = [name for name in deepo.__all__ if not hasattr(deepo, name)]
    assert not missing
    assert len(set(deepo.__all__)) == len(deepo.__all__)


@pytest.mark.parametrize("path", sorted(PERFBENCH.glob("*.py")), ids=lambda path: path.name)
def test_benchmark_imports_resolve(path):
    # The benchmark imports deepo names directly, some inside functions; a
    # renamed or deleted name would fail every benchmark run.
    imports = [
        (node.module, alias.name)
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
        if isinstance(node, ast.ImportFrom) and node.level == 0 and node.module.split(".")[0] == "deepo"
        for alias in node.names
    ]
    missing = [f"{module}.{name}" for module, name in imports if not hasattr(importlib.import_module(module), name)]
    assert not missing
