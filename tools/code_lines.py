"""Count the code lines of Python sources: lines that hold a token of
code, leaving out blank lines, comments and docstrings.

A docstring is a string literal that stands alone as the first
statement of a module, class or function body (``ast``); every line it
spans is left out. The other lines are read with ``tokenize``, and a
line counts when any token other than a comment, a line break or an
indentation change starts or runs through it, so a statement continued
over several lines counts each of them.

Usage: python tools/code_lines.py [PATH ...]

Each PATH is a file or a directory searched for ``*.py``; the default is
``src/sctubes``. Prints one line per file, then the total.
"""

from __future__ import annotations

import ast
import io
import sys
import tokenize
from pathlib import Path

_NOT_CODE = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT,
             tokenize.DEDENT, tokenize.ENCODING, tokenize.ENDMARKER}


def docstring_lines(tree: ast.AST) -> set[int]:
    """The line numbers spanned by every docstring in ``tree``."""
    lines = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef,
                             ast.AsyncFunctionDef)) and node.body:
            first = node.body[0]
            if (isinstance(first, ast.Expr) and isinstance(first.value, ast.Constant)
                    and isinstance(first.value.value, str)):
                lines.update(range(first.lineno, first.end_lineno + 1))
    return lines


def code_lines(path: Path) -> int:
    """How many lines of ``path`` hold code."""
    text = path.read_text(encoding="utf-8")
    lines = set()
    for tok in tokenize.generate_tokens(io.StringIO(text).readline):
        if tok.type not in _NOT_CODE:
            lines.update(range(tok.start[0], tok.end[0] + 1))
    return len(lines - docstring_lines(ast.parse(text, str(path))))


def main(argv: list[str]) -> int:
    paths = [Path(arg) for arg in argv] or [Path("src/sctubes")]
    files = sorted(f for p in paths for f in (p.rglob("*.py") if p.is_dir() else [p]))
    total = 0
    for f in files:
        count = code_lines(f)
        total += count
        print(f"{count:6d}  {f}")
    print(f"{total:6d}  total")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
