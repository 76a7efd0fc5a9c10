"""Every exported name resolves, the package re-exports nothing, and README's library map names what exists."""

import ast
import importlib
import pkgutil
import re
from pathlib import Path

import pytest

import rflaf

MODULES = [m.name for m in pkgutil.iter_modules(rflaf.__path__)]


@pytest.mark.parametrize("name", MODULES)
def test_all_names_resolve(name):
    module = importlib.import_module(f"rflaf.{name}")
    assert [n for n in getattr(module, "__all__", []) if not hasattr(module, n)] == []


def test_package_imports_no_submodule():
    # the package is its modules: callers import each one by name, and the package re-exports nothing
    tree = ast.parse(Path(rflaf.__file__).read_text())
    assert [node.lineno for node in ast.walk(tree) if isinstance(node, (ast.Import, ast.ImportFrom))] == []


def _library_map() -> dict:
    """README's library map: module name -> the backticked identifiers of its row."""
    text = (Path(rflaf.__file__).parents[2] / "README.md").read_text()
    table = text.split("## Library map", 1)[1].split("\n\n", 2)[1]
    rows = {}
    for line in table.splitlines()[2:]:
        module, contents = (cell.strip() for cell in line.strip("|").split("|"))
        rows[module.strip("`")] = re.findall(r"`([A-Za-z_][\w.]*)`", contents)
    return rows


def test_library_map_names_resolve():
    # a dotted name resolves from the package (`model.forward_batch`), any other in its row's module
    rows = _library_map()
    assert sorted(rows) == sorted(f"rflaf.{name}" for name in MODULES)
    missing = []
    for module, names in rows.items():
        for name in names:
            owner, _, attr = (f"rflaf.{name}" if "." in name else f"{module}.{name}").rpartition(".")
            if not hasattr(importlib.import_module(owner), attr):
                missing.append((module, name))
    assert all(rows.values()) and missing == []
