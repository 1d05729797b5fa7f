"""Count the code lines of Python modules.

A code line holds at least one token that is not a comment, not part of a
module, class or function docstring, and not layout (newlines, indents and
dedents).  A token that spans several lines, such as a multi-line string
that is not a docstring, makes each of those lines a code line.  Blank
lines, comment lines and docstring lines therefore do not count.

Usage::

    python tools/code_lines.py PATH [PATH ...]

Each PATH is a module or a directory, searched recursively for ``*.py``
files.  The script prints one line per module, its count and its path, in
path order, then the total.  Only the standard library is used.
"""

from __future__ import annotations

import ast
import io
import sys
import tokenize
from pathlib import Path

LAYOUT = {
    tokenize.COMMENT,
    tokenize.NL,
    tokenize.NEWLINE,
    tokenize.INDENT,
    tokenize.DEDENT,
    tokenize.ENDMARKER,
}
SCOPES = (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)


def _docstring_spans(tree: ast.AST) -> list[tuple]:
    """(start, end) positions of every module, class and function
    docstring, each a (line, column) pair."""
    spans = []
    for node in ast.walk(tree):
        if not isinstance(node, SCOPES) or not node.body:
            continue
        first = node.body[0]
        if (
            isinstance(first, ast.Expr)
            and isinstance(first.value, ast.Constant)
            and isinstance(first.value.value, str)
        ):
            value = first.value
            spans.append(
                (
                    (value.lineno, value.col_offset),
                    (value.end_lineno, value.end_col_offset),
                )
            )
    return spans


def code_lines(path: Path) -> int:
    """The number of code lines of one module."""
    with tokenize.open(path) as source:
        text = source.read()
    spans = _docstring_spans(ast.parse(text, filename=str(path)))
    lines: set[int] = set()
    for token in tokenize.generate_tokens(io.StringIO(text).readline):
        if token.type in LAYOUT:
            continue
        if any(start <= token.start < end for start, end in spans):
            continue
        lines.update(range(token.start[0], token.end[0] + 1))
    return len(lines)


def modules(paths: list[str]) -> list[Path]:
    """The ``*.py`` files named by the paths, directories searched
    recursively, sorted."""
    found = []
    for raw in paths:
        path = Path(raw)
        found.extend(path.rglob("*.py") if path.is_dir() else [path])
    return sorted(found)


def main(argv: list[str]) -> int:
    if not argv:
        print("usage: python tools/code_lines.py PATH [PATH ...]", file=sys.stderr)
        return 2
    total = 0
    for path in modules(argv):
        count = code_lines(path)
        total += count
        print(f"{count:6d} {path}")
    print(f"{total:6d} total")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
