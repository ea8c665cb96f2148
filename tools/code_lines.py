"""Count the code lines of the lzwalk package in a checkout.

    python3 tools/code_lines.py TREE

Reads every ``TREE/src/lzwalk/*.py`` and prints, per module and in total,
its code lines: the non-blank lines that are neither comment lines nor part
of a docstring (the string that opens a module, class or function body, as
``ast`` reads it).  A line that holds code and a trailing comment counts.
Nothing is imported, so two checkouts compare without side effects: run it
once for a parent checkout and once for the change.
"""

from __future__ import annotations

import ast
import sys
from pathlib import Path


def _docstring_lines(tree: ast.Module) -> set[int]:
    """The line numbers that the docstrings of ``tree`` span."""
    lines: set[int] = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
            first = node.body[0] if node.body else None
            if (
                isinstance(first, ast.Expr)
                and isinstance(first.value, ast.Constant)
                and isinstance(first.value.value, str)
            ):
                lines.update(range(first.lineno, first.end_lineno + 1))
    return lines


def code_lines(source: str) -> int:
    docstrings = _docstring_lines(ast.parse(source))
    return sum(
        1
        for number, line in enumerate(source.splitlines(), start=1)
        if line.strip() and not line.lstrip().startswith("#") and number not in docstrings
    )


def main(argv: list[str] | None = None) -> int:
    args = sys.argv[1:] if argv is None else argv
    if len(args) != 1:
        print("usage: python3 tools/code_lines.py TREE", file=sys.stderr)
        return 1
    package = Path(args[0]) / "src" / "lzwalk"
    paths = sorted(package.glob("*.py"))
    if not paths:
        print(f"error: no module in {package}", file=sys.stderr)
        return 1
    total = 0
    for path in paths:
        count = code_lines(path.read_text(encoding="utf-8"))
        total += count
        print(f"{path.stem} {count}")
    print(f"total {total}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
