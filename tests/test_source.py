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


def package_sources():
    """(file name, text) of every module of the package."""
    sources = []
    for name in sorted(os.listdir(SRC)):
        if name.endswith(".py"):
            with open(os.path.join(SRC, name), encoding="utf-8") as fh:
                sources.append((name, fh.read()))
    return sources


def test_no_unused_imports():
    """No module of the package imports a name it never uses; ``__init__``
    is skipped, because its imports are its exports."""
    found = [f"{name}:{line} {ident}" for name, text in package_sources()
             if name != "__init__.py" for line, ident in unused_imports(text)]
    assert found == []


def orphaned_functions(sources):
    """(module, name) of every private top-level function that no other
    top-level statement of the (module, text) pairs in ``sources`` reads."""
    defined, read = [], set()
    for module, text in sources:
        for stmt in ast.parse(text).body:
            own = stmt.name if isinstance(stmt, ast.FunctionDef) else None
            if own and own.startswith("_"):
                defined.append((module, own))
            nodes = list(ast.walk(stmt))
            names = {n.id for n in nodes if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)}
            read |= (names | {n.attr for n in nodes if isinstance(n, ast.Attribute)}) - {own}
    return [(module, name) for module, name in defined if name not in read]


def test_orphaned_functions_are_found():
    first = "def _used():\n    pass\n\ndef _orphan(n):\n    return _orphan(n - 1)\n"
    second = "import first\n\ndef public():\n    return first._used()\n\ndef _alone():\n    pass\n"
    assert orphaned_functions([("first", first), ("second", second)]) == [
        ("first", "_orphan"), ("second", "_alone")]


def test_no_orphaned_private_functions():
    """Every private top-level function of the package is read somewhere in
    the package, outside its own body."""
    assert orphaned_functions(package_sources()) == []
