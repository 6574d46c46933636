"""Every name a module exports in ``__all__`` exists in that module, every
name a module imports is used in it, and every private function and class
and every public module-level function is used somewhere in the package
outside its own body. That every function also runs is ``test_reach.py``'s
audit."""

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


def _private_definitions(tree):
    return [node for node in ast.walk(tree)
            if isinstance(node, (ast.FunctionDef, ast.ClassDef))
            and node.name.startswith("_") and not node.name.startswith("__")]


def _references(tree):
    # every name read as a bare name or as an attribute, one entry per use
    return [node.id if isinstance(node, ast.Name) else node.attr
            for node in ast.walk(tree)
            if isinstance(node, (ast.Name, ast.Attribute))]


def _public_functions(tree):
    return [node for node in tree.body
            if isinstance(node, ast.FunctionDef) and not node.name.startswith("_")]


def _unused(definitions):
    # the definitions that only their own body (or the tests) refers to
    trees = {path.name: ast.parse(path.read_text()) for path in SOURCES}
    uses = [name for tree in trees.values() for name in _references(tree)]
    return [f"{module}:{node.lineno} {node.name}"
            for module, tree in trees.items()
            for node in definitions(tree)
            if uses.count(node.name) == _references(node).count(node.name)]


def test_every_private_helper_is_used_in_the_package():
    # a private function or class that nothing else in the package uses
    # is dead code
    assert _unused(_private_definitions) == []


def test_every_public_function_is_used_in_the_package():
    # a public module-level function that nothing else in the package uses
    # is code that only tests reach; they keep it in tests/helpers.py
    assert _unused(_public_functions) == []
