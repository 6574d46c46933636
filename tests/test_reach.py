"""Every function the package defines runs when the CLI does: no code that
only tests reach.

The audit runs ``cli.main`` in-process for ``list``, ``report-schema`` and
every scenario (at 20 samples, with JSON and CSV output), traces which
functions of ``src/bundlelift`` are entered, and fails on every ``def``,
nested defs and methods included, that none of those runs enters, unless
``ALLOWED`` lists it with its reason. Lambdas, comprehensions and class
bodies are out of scope. An ``ALLOWED`` entry that a run does enter, or
that names no ``def``, fails too. A failure lists ``file:line qualname``
for each function to delete or to list.
"""

import ast
import importlib
import os
import pathlib
import pkgutil
import sys

import bundlelift
from bundlelift import cli

PACKAGE = pathlib.Path(bundlelift.__file__).resolve().parent

REPR = "repr"  # the object protocol (repr, hash) of a class no run prints or hashes
REFUSAL = "refusal"  # builds the message of a refusal that no scenario meets
PAPER = "paper construction (ROADMAP item 3)"  # built, but no scenario checks it

# (file, qualified name) -> the reason no CLI run enters it
ALLOWED = {
    ("bundles.py", "BundleModel.__repr__"): REPR,
    ("bundles.py", "BundleModel.__hash__"): REPR,
    ("lifts.py", "Lift.__repr__"): REPR,
    ("manifolds.py", "SmoothMap.__repr__"): REPR,
    ("manifolds.py", "ManifoldModel.__repr__"): REPR,
    # models are immutable: every assignment to one is refused
    ("manifolds.py", "ManifoldModel.__setattr__"): REFUSAL,
    ("bundles.py", "_pair_name"): REFUSAL,
    # names the rank that BundleModel refuses
    ("numkernel.py", "sym_eigh"): REFUSAL,
    ("lifts.py", "_torus_line_action"): PAPER,
    ("bundles.py", "torus_line.<locals>.u_of"): PAPER,
}


def _definitions():
    """Every def of the package: (file, first line, qualified name) -> the
    line of its ``def``. The first line is the one its code object starts
    at (its first decorator, if it has one) and the qualified name the one
    it carries (``co_qualname``)."""
    defs = {}

    def visit(node, path, prefix):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                name = prefix + child.name
                first = min([child.lineno] + [d.lineno for d in child.decorator_list])
                defs[(path.name, first, name)] = child.lineno
                visit(child, path, name + ".<locals>.")
            elif isinstance(child, ast.ClassDef):
                visit(child, path, prefix + child.name + ".")
            else:
                visit(child, path, prefix)

    for path in sorted(PACKAGE.glob("*.py")):
        visit(ast.parse(path.read_text()), path, "")
    return defs


def _clear_caches():
    # a cached function that an earlier test filled would not be entered
    for info in pkgutil.iter_modules(bundlelift.__path__):
        if info.name == "__main__":  # importing it runs the CLI
            continue
        module = importlib.import_module(f"bundlelift.{info.name}")
        for value in vars(module).values():
            if callable(getattr(value, "cache_clear", None)):
                value.cache_clear()


def _entered(argvs):
    """(file, first line, qualified name) of every package function that
    the CLI runs enter, and their exit codes."""
    inside = {}
    seen = set()

    def trace(frame, event, arg):
        code = frame.f_code
        path = code.co_filename
        if path not in inside:
            inside[path] = pathlib.Path(path).resolve().parent == PACKAGE
        if inside[path]:
            seen.add((os.path.basename(path), code.co_firstlineno, code.co_qualname))

    _clear_caches()
    previous = sys.gettrace()
    sys.settrace(trace)
    try:
        codes = [cli.main(argv) for argv in argvs]
    finally:
        sys.settrace(previous)
    return seen, codes


def test_every_function_runs_in_the_cli(tmp_path, capsys):
    argvs = [["list"], ["report-schema"]] + [
        ["scenario", name, "--samples", "20", "--no-timestamp",
         "--json", str(tmp_path / f"{name}.json"),
         "--csv", str(tmp_path / f"{name}.csv")]
        for name in sorted(cli.SCENARIOS)]
    seen, codes = _entered(argvs)
    capsys.readouterr()
    assert codes == [0] * len(argvs)

    defs = _definitions()
    named = {(path, name) for path, _, name in defs}
    problems = []
    for key, line in sorted(defs.items()):
        path, _, name = key
        allowed = (path, name) in ALLOWED
        if key not in seen and not allowed:
            problems.append(f"{path}:{line} {name} (never entered)")
        elif key in seen and allowed:
            problems.append(f"{path}:{line} {name} (entered, but in ALLOWED)")
    problems += [f"{path}:? {name} (in ALLOWED, but no such def)"
                 for path, name in sorted(ALLOWED) if (path, name) not in named]
    assert not problems, "\n".join(problems)
