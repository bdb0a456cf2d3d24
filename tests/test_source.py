"""Static checks on the package source, with the standard library's ``ast``."""

import ast
import os

import quadsum

SRC = os.path.dirname(os.path.abspath(quadsum.__file__))


def unused_imports(text: str):
    """(line, name) of every name the module imports and never reads."""
    tree = ast.parse(text)
    imported = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported += [(node.lineno, (a.asname or a.name).split(".")[0]) for a in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported += [(node.lineno, a.asname or a.name) for a in node.names]
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [(line, name) for line, name in imported if name not in read]


def test_unused_imports_are_found():
    text = ("import math\nimport os.path\nfrom fractions import Fraction as F\n"
            "from operator import mul, add\nfrom __future__ import annotations\n"
            "x = os.path.join(F(1), mul)\n")
    assert unused_imports(text) == [(1, "math"), (4, "add")]


def test_no_unused_imports():
    """No module of the package imports a name it never uses; ``__init__``
    is skipped, because its imports are its exports."""
    found = []
    for name in sorted(os.listdir(SRC)):
        if name.endswith(".py") and name != "__init__.py":
            with open(os.path.join(SRC, name), encoding="utf-8") as fh:
                found += [f"{name}:{line} {ident}" for line, ident in unused_imports(fh.read())]
    assert found == []
