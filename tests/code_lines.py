"""Code lines and file lines of each module of ``src/quadsum``, and in total.

Usage::

    python tests/code_lines.py [DIRECTORY [OLD_DIRECTORY]]

DIRECTORY defaults to src/quadsum of this checkout.  With OLD_DIRECTORY,
such as the package of an older commit unpacked by ``git archive``, each
module's code lines are printed old -> new, a module missing on one side
counting 0, and so is the total.

A code line is a line that a token covers, other than a comment, NL,
NEWLINE, INDENT, DEDENT or ENDMARKER token, and that no docstring covers
(module, class and function docstrings, their spans taken from ``ast``).
Blank lines, comments and docstrings are therefore not code; a string that
is not a docstring and each line of a call that spans several lines are.
A file line is any line of the file.
"""

from __future__ import annotations

import ast
import io
import os
import sys
import tokenize

SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src", "quadsum")

#: Tokens that cover no code: layout, comments and the end of the file.
_NOT_CODE = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT,
             tokenize.DEDENT, tokenize.ENDMARKER}


def docstring_lines(text: str) -> set:
    """The lines covered by the module, class and function docstrings."""
    lines = set()
    for node in ast.walk(ast.parse(text)):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
            first = node.body[0] if node.body else None
            if (isinstance(first, ast.Expr) and isinstance(first.value, ast.Constant)
                    and isinstance(first.value.value, str)):
                lines.update(range(first.lineno, first.end_lineno + 1))
    return lines


def code_lines(text: str) -> int:
    """The number of code lines of a module's source ``text``."""
    covered = set()
    for tok in tokenize.generate_tokens(io.StringIO(text).readline):
        if tok.type not in _NOT_CODE:
            covered.update(range(tok.start[0], tok.end[0] + 1))
    return len(covered - docstring_lines(text))


def counts(src: str) -> dict:
    """{file name: (code lines, file lines)} of each module in ``src``."""
    out = {}
    for name in sorted(os.listdir(src)):
        if name.endswith(".py"):
            with open(os.path.join(src, name), encoding="utf-8") as fh:
                text = fh.read()
            out[name] = code_lines(text), len(text.splitlines())
    return out


def main(src: str = SRC, old: str | None = None):
    new = counts(src)
    if old is None:
        for name, (code, lines) in new.items():
            print(f"{name:16} {code:5} {lines:5}")
        total_code = sum(code for code, _ in new.values())
        total_file = sum(lines for _, lines in new.values())
        print(f"{'total':16} {total_code:5} {total_file:5}")
        return
    before = {name: code for name, (code, _) in counts(old).items()}
    after = {name: code for name, (code, _) in new.items()}
    for name in sorted(before.keys() | after.keys()):
        print(f"{name:16} {before.get(name, 0):5} -> {after.get(name, 0):5}")
    print(f"{'total':16} {sum(before.values()):5} -> {sum(after.values()):5}")


if __name__ == "__main__":
    main(*sys.argv[1:3])
