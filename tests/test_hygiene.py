"""Package hygiene: every exported name exists, the package re-exports each
module's public names, no module-level import goes unused, and every function
the benchmark's tracer wraps exists."""

import ast
import importlib
import importlib.util
import pkgutil
from pathlib import Path

import pytest

import latalg

MODULES = sorted(info.name for info in pkgutil.iter_modules(latalg.__path__))
#: The modules whose public names the package re-exports: all but the CLI entry point.
LIBRARY = [name for name in MODULES if name != "cli"]
SOURCES = sorted(Path(latalg.__file__).parent.glob("*.py"))
TRACER = Path(__file__).resolve().parents[1] / "bench" / "tracer.py"


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
                if alias.name == "*":  # binds the source's public names
                    source = importlib.import_module("." * node.level + (node.module or ""), "latalg")
                    for name in source.__all__:
                        imported[name] = node.lineno
                else:
                    imported[alias.asname or alias.name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    module = "latalg" if path.stem == "__init__" else f"latalg.{path.stem}"
    exported = set(getattr(importlib.import_module(module), "__all__", ()))
    unused = sorted(f"{name} (line {line})" for name, line in imported.items()
                    if name not in used and name not in exported)
    assert not unused, f"{path.name} imports names it never uses: {unused}"


def test_package_reexports_every_public_name_once():
    assert latalg.__all__[0] == "__version__"
    repeated = sorted({name for name in latalg.__all__ if latalg.__all__.count(name) > 1})
    assert not repeated, f"latalg.__all__ lists {repeated} more than once"
    for module_name in LIBRARY:
        module = importlib.import_module(f"latalg.{module_name}")
        for name in module.__all__:
            assert name in latalg.__all__, f"latalg.__all__ lacks {module_name}.{name}"
            assert getattr(latalg, name) is getattr(module, name), \
                f"latalg.{name} is not {module_name}.{name}"


def test_every_tracer_target_resolves():
    spec = importlib.util.spec_from_file_location("bench_tracer", TRACER)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    missing = []
    for module_name, owner_name, attr, _, _ in tracer.TARGETS:
        module = importlib.import_module(f"latalg.{module_name}")
        owner = module if owner_name is None else getattr(module, owner_name, None)
        if owner is None or not hasattr(owner, attr):
            missing.append(".".join(filter(None, (f"latalg.{module_name}", owner_name, attr))))
    assert not missing, f"bench/tracer.py wraps names latalg lacks: {missing}"
