"""Every top-level function and class, and every method, of a ``proregular``
module (not ``__init__.py``) is named by an ``ast.Name`` or ``ast.Attribute``
in some ``proregular`` module outside its own body; what only tests name
belongs in ``tests/reference_algebra.py``, or nowhere.  Dunder methods are
exempt, and so is ``cli.main``, the console script of ``pyproject.toml``.

The check goes by name, not by type: a method named like any attribute the
program reads elsewhere (``zero``, say) passes it.
"""

import ast
import os

from test_unused_imports import MODULES, SRC

EXEMPT = {("cli.py", "main")}


def _definitions(tree):
    """``(qualified name, name, node)`` of each top-level function and class
    and of each method."""
    defs = (ast.FunctionDef, ast.AsyncFunctionDef)
    for node in tree.body:
        if isinstance(node, defs + (ast.ClassDef,)):
            yield node.name, node.name, node
        if isinstance(node, ast.ClassDef):
            for sub in node.body:
                if isinstance(sub, defs):
                    yield f"{node.name}.{sub.name}", sub.name, sub


def _names(tree, skip=None) -> set:
    """Every identifier that ``tree`` names, outside the subtree ``skip``."""
    out = set()
    stack = [tree]
    while stack:
        node = stack.pop()
        if node is skip:
            continue
        if isinstance(node, ast.Name):
            out.add(node.id)
        elif isinstance(node, ast.Attribute):
            out.add(node.attr)
        stack.extend(ast.iter_child_nodes(node))
    return out


def unreached(sources: dict, exempt=frozenset()) -> list:
    """``module:qualified name`` of each definition in ``sources`` (module
    name -> source text) that no module names outside its own body."""
    trees = {mod: ast.parse(text) for mod, text in sources.items()}
    named = {mod: _names(tree) for mod, tree in trees.items()}
    out = []
    for mod, tree in trees.items():
        elsewhere = set().union(*(n for m, n in named.items() if m != mod))
        for qual, name, node in _definitions(tree):
            if (name.startswith("__") and name.endswith("__")) or (mod, qual) in exempt:
                continue
            if name not in elsewhere and name not in _names(tree, skip=node):
                out.append(f"{mod}:{qual}")
    return sorted(out)


def test_detector_finds_unreached_names():
    sources = {
        "a.py": ("def used(): return helper()\n"
                 "def helper(): return 1\n"
                 "def recursive(n): return recursive(n - 1)\n"
                 "def main(): pass\n"
                 "class K:\n"
                 "    def __init__(self): self.zero = 0\n"
                 "    def zero(self): pass\n"
                 "    def lonely(self): pass\n"),
        "b.py": "from .a import used, K\nK().used\n",
    }
    assert unreached(sources, exempt={("a.py", "main")}) == ["a.py:K.lonely", "a.py:recursive"]
    assert unreached(sources) == ["a.py:K.lonely", "a.py:main", "a.py:recursive"]


def test_every_definition_is_named_by_the_program():
    sources = {}
    for mod in MODULES:
        with open(os.path.join(SRC, mod), encoding="utf-8") as fh:
            sources[mod] = fh.read()
    assert unreached(sources, EXEMPT) == []
