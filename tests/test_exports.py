"""Every name a module exports in ``__all__`` exists in that module, and
every name a module imports is used in it."""

import ast
import importlib
import pathlib
import pkgutil

import pytest

import bundlelift

MODULES = sorted(m.name for m in pkgutil.iter_modules(bundlelift.__path__)
                 if m.name != "__main__")  # importing __main__ runs the CLI
SOURCES = sorted(pathlib.Path(bundlelift.__file__).parent.glob("*.py"))


@pytest.mark.parametrize("name", MODULES)
def test_all_names_resolve(name):
    module = importlib.import_module(f"bundlelift.{name}")
    missing = [n for n in getattr(module, "__all__", ()) if not hasattr(module, n)]
    assert missing == []


def _unused_imports(tree):
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                # "import a.b" binds a; "from m import a as b" binds b
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    for node in ast.walk(tree):
        # a name re-exported through __all__ counts as used
        if (isinstance(node, ast.Assign)
                and any(getattr(t, "id", None) == "__all__" for t in node.targets)):
            used.update(ast.literal_eval(node.value))
    return sorted((line, name) for name, line in imported.items()
                  if name not in used)


@pytest.mark.parametrize("path", SOURCES, ids=[p.name for p in SOURCES])
def test_no_unused_imports(path):
    assert _unused_imports(ast.parse(path.read_text())) == []
