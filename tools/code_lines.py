"""Count code lines per module of a Python package.

A code line holds at least one token that is not a comment, a docstring or
layout (newlines and indentation); blank lines count for nothing.  A
docstring is the string expression that opens a module, class or function.

    python tools/code_lines.py [package-dir]     (default: src/fracpde)
"""

from __future__ import annotations

import ast
import io
import sys
import tokenize
from pathlib import Path

_LAYOUT = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT, tokenize.DEDENT,
           tokenize.ENDMARKER, tokenize.ENCODING}


def _docstring_rows(tree: ast.AST) -> set[int]:
    rows = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
            first = node.body[0] if node.body else None
            if (isinstance(first, ast.Expr) and isinstance(first.value, ast.Constant)
                    and isinstance(first.value.value, str)):
                rows.update(range(first.lineno, first.end_lineno + 1))
    return rows


def code_lines(source: str) -> int:
    """Number of code lines in ``source``."""
    skip = _docstring_rows(ast.parse(source))
    rows = set()
    for tok in tokenize.generate_tokens(io.StringIO(source).readline):
        if tok.type not in _LAYOUT:
            rows.update(r for r in range(tok.start[0], tok.end[0] + 1) if r not in skip)
    return len(rows)


def main(argv: list[str]) -> int:
    root = Path(argv[1] if len(argv) > 1 else "src/fracpde")
    total = 0
    for path in sorted(root.glob("*.py")):
        n = code_lines(path.read_text(encoding="utf-8"))
        total += n
        print(f"{path.name:<16}{n:>6}")
    print(f"{'total':<16}{total:>6}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
