"""Every name a module exports in ``__all__`` exists in that module."""

import importlib
import pkgutil

import pytest

import bundlelift

MODULES = sorted(m.name for m in pkgutil.iter_modules(bundlelift.__path__)
                 if m.name != "__main__")  # importing __main__ runs the CLI


@pytest.mark.parametrize("name", MODULES)
def test_all_names_resolve(name):
    module = importlib.import_module(f"bundlelift.{name}")
    missing = [n for n in getattr(module, "__all__", ()) if not hasattr(module, n)]
    assert missing == []
