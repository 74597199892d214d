"""The public API: each module's ``__all__`` is the one list of its public names."""

import importlib
import inspect

import pytest

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
