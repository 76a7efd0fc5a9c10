"""Every exported name resolves."""

import ast
import importlib
import pkgutil
from pathlib import Path

import pytest

import rflaf

MODULES = [m.name for m in pkgutil.iter_modules(rflaf.__path__)]


@pytest.mark.parametrize("name", MODULES)
def test_all_names_resolve(name):
    module = importlib.import_module(f"rflaf.{name}")
    assert [n for n in getattr(module, "__all__", []) if not hasattr(module, n)] == []


def test_package_imports_resolve():
    tree = ast.parse(Path(rflaf.__file__).read_text())
    imported = [a.asname or a.name for node in tree.body if isinstance(node, ast.ImportFrom) for a in node.names]
    assert imported and [n for n in imported if not hasattr(rflaf, n)] == []
