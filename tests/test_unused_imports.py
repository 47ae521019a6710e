"""Every name a ``proregular`` module imports is used in that module."""

import ast
import os

import pytest

SRC = os.path.join(os.path.dirname(__file__), "..", "src", "proregular")
MODULES = sorted(f for f in os.listdir(SRC) if f.endswith(".py") and f != "__init__.py")


def _annotation_names(node):
    """Names inside a string annotation such as ``-> "FpModule"``."""
    if isinstance(node, ast.Constant) and isinstance(node.value, str):
        return {n.id for n in ast.walk(ast.parse(node.value, mode="eval"))
                if isinstance(n, ast.Name)}
    return set()


def unused_imports(source: str) -> list:
    tree = ast.parse(source)
    imported = {}
    used = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            if isinstance(node, ast.ImportFrom) and node.module == "__future__":
                continue
            for alias in node.names:
                bound = alias.asname or alias.name.split(".")[0]
                imported.setdefault(bound, node.lineno)
        elif isinstance(node, ast.Name):
            used.add(node.id)
        elif isinstance(node, ast.arg):
            used |= _annotation_names(node.annotation)
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            used |= _annotation_names(node.returns)
        elif isinstance(node, ast.AnnAssign):
            used |= _annotation_names(node.annotation)
        elif isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets):
            used |= {e.value for e in node.value.elts}  # re-exports
    return sorted((line, name) for name, line in imported.items() if name not in used)


def test_detector_finds_unused_names():
    source = ("from __future__ import annotations\n"
              "import os, sys, re\n"
              "from .fpmod import FpModule, kernel as ker, zero_module\n"
              "def f(m: \"FpModule\"):\n"
              "    return ker(sys.argv)\n"
              "__all__ = [\"re\"]\n")
    assert unused_imports(source) == [(2, "os"), (3, "zero_module")]


@pytest.mark.parametrize("name", MODULES)
def test_module_has_no_unused_imports(name):
    with open(os.path.join(SRC, name), encoding="utf-8") as fh:
        assert unused_imports(fh.read()) == [], name
