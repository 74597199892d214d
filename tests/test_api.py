"""The public API: each module's ``__all__`` is the one list of its public names."""

import ast
import importlib
import inspect
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src" / "fiochain"
# the package root re-exports these two for perfbench/tests/test_perfbench.py
ROOT_REEXPORTS = {"__init__": {"FioOperator", "BlockFamily"}}
MODULES = ["grid", "dynamics", "symbols", "fio", "wkb", "bounds", "cotlar", "scenarios", "config", "cli"]


@pytest.mark.parametrize("name", MODULES)
def test_all_lists_every_public_definition(name):
    # every entry resolves, and every public function or class defined here is listed
    module = importlib.import_module(f"fiochain.{name}")
    assert [n for n in module.__all__ if not hasattr(module, n)] == []
    defined = [
        n
        for n, value in vars(module).items()
        if not n.startswith("_")
        and (inspect.isfunction(value) or inspect.isclass(value))
        and value.__module__ == module.__name__
    ]
    assert [n for n in defined if n not in module.__all__] == []


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.stem)
def test_every_import_is_used(path):
    # every name a module imports is read in that module or listed in its __all__
    tree = ast.parse(path.read_text())
    imported = {
        (alias.asname or alias.name).split(".")[0]
        for node in ast.walk(tree)
        if isinstance(node, (ast.Import, ast.ImportFrom)) and getattr(node, "module", "") != "__future__"
        for alias in node.names
    }
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    exported = {
        elt.value
        for node in tree.body
        if isinstance(node, ast.Assign) and any(getattr(t, "id", "") == "__all__" for t in node.targets)
        for elt in node.value.elts
    }
    unused = imported - used - exported - ROOT_REEXPORTS.get(path.stem, set())
    assert sorted(unused) == []
