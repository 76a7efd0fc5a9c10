"""Every exported name resolves, and the CLI imports its configs on first use."""

import ast
import importlib
import os
import pkgutil
import subprocess
import sys
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


def test_cli_import_leaves_configs_unloaded():
    # building the config classes costs about a tenth of a CLI call's set-up; experiments imports them on first use
    code = "import sys, rflaf.cli; sys.exit('rflaf.configs' in sys.modules)"
    env = dict(os.environ, PYTHONPATH=str(Path(rflaf.__file__).parents[1]))
    assert subprocess.run([sys.executable, "-c", code], env=env, timeout=60).returncode == 0
