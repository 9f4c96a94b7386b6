"""Package hygiene: every exported name exists and no module-level import goes unused."""

import ast
import importlib
import pkgutil
from pathlib import Path

import pytest

import latalg

MODULES = sorted(info.name for info in pkgutil.iter_modules(latalg.__path__))
SOURCES = sorted(Path(latalg.__file__).parent.glob("*.py"))


@pytest.mark.parametrize("name", ["latalg"] + [f"latalg.{m}" for m in MODULES])
def test_every_exported_name_resolves(name):
    module = importlib.import_module(name)
    missing = [attr for attr in getattr(module, "__all__", ()) if not hasattr(module, attr)]
    assert not missing, f"{name}.__all__ names {missing}, which the module does not define"


@pytest.mark.parametrize("path", SOURCES, ids=lambda path: path.name)
def test_no_unused_module_level_import(path):
    tree = ast.parse(path.read_text())
    imported = {}  # bound name -> line
    for node in tree.body:
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    module = "latalg" if path.stem == "__init__" else f"latalg.{path.stem}"
    exported = set(getattr(importlib.import_module(module), "__all__", ()))
    unused = sorted(f"{name} (line {line})" for name, line in imported.items()
                    if name not in used and name not in exported)
    assert not unused, f"{path.name} imports names it never uses: {unused}"
