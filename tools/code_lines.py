"""Count the code lines of each module under ``src/``.

A code line is a physical line that holds a token other than a comment.
Blank lines, comment lines and docstrings (the first string statement of a
module, class or function) are not code lines. Run from anywhere:

    python3 tools/code_lines.py [DIR]

It prints each module's count and the total, for DIR (default: the
repository's ``src/``).
"""

from __future__ import annotations

import ast
import io
import sys
import tokenize
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SKIPPED = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT,
           tokenize.DEDENT, tokenize.ENDMARKER}


def _docstrings(tree: ast.AST) -> list[tuple[tuple[int, int], tuple[int, int]]]:
    """The (start, end) position of every docstring in ``tree``."""
    spans = []
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
            first = node.body[0] if node.body else None
            if (isinstance(first, ast.Expr) and isinstance(first.value, ast.Constant)
                    and isinstance(first.value.value, str)):
                spans.append(((first.lineno, first.col_offset),
                              (first.end_lineno, first.end_col_offset)))
    return spans


def code_lines(source: str) -> int:
    """The number of code lines in the Python source text ``source``."""
    docs = _docstrings(ast.parse(source))
    lines = set()
    for tok in tokenize.generate_tokens(io.StringIO(source).readline):
        if tok.type in SKIPPED or any(a <= tok.start and tok.end <= b for a, b in docs):
            continue
        lines.update(range(tok.start[0], tok.end[0] + 1))
    return len(lines)


def main(argv: list[str]) -> int:
    top = Path(argv[0]) if argv else ROOT / "src"
    total = 0
    for path in sorted(top.rglob("*.py")):
        n = code_lines(path.read_text(encoding="utf-8"))
        total += n
        print(f"{n:6d}  {path.relative_to(top)}")
    print(f"{total:6d}  total")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
