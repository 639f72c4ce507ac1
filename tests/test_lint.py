"""Static checks on the package source, stdlib only: no module imports
a name it never uses, and every name exported through __all__ exists."""

import ast
import importlib
from pathlib import Path

import pytest

import cohenram

SRC = Path(cohenram.__file__).parent
MODULES = sorted(p.stem for p in SRC.glob("*.py"))


def _exports(tree):
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets):
            return {elt.value for elt in node.value.elts}
    return set()


def _unused_imports(tree):
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                imported[name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    used |= _exports(tree)
    return sorted((line, name) for name, line in imported.items() if name not in used)


@pytest.mark.parametrize("module", MODULES)
def test_no_unused_imports(module):
    tree = ast.parse((SRC / f"{module}.py").read_text())
    assert _unused_imports(tree) == []


@pytest.mark.parametrize("module", MODULES)
def test_all_names_resolve(module):
    exports = _exports(ast.parse((SRC / f"{module}.py").read_text()))
    if not exports:  # nothing to resolve; __main__ would run the CLI on import
        return
    mod = importlib.import_module("cohenram" if module == "__init__" else f"cohenram.{module}")
    assert sorted(n for n in exports if not hasattr(mod, n)) == []


def _is_sys(node, attr):
    return (isinstance(node, ast.Attribute) and node.attr == attr
            and isinstance(node.value, ast.Name) and node.value.id == "sys")


def test_one_writer_of_stdout():
    # cli.dispatch renders every report; a command that printed on its
    # own would bring back a per-format branch
    trees = [ast.parse((SRC / f"{m}.py").read_text()) for m in MODULES]
    nodes = [n for tree in trees for n in ast.walk(tree)]
    assert sum(_is_sys(n, "stdout") for n in nodes) == 1
    prints = [n for n in nodes if isinstance(n, ast.Call)
              and isinstance(n.func, ast.Name) and n.func.id == "print"]
    assert all(any(k.arg == "file" and _is_sys(k.value, "stderr") for k in n.keywords)
               for n in prints)
