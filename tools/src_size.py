"""Code lines and tokens of each `src/histspec/*.py` file, and their totals.

Both counts come from Python's `tokenize`.  A token is any token of the
grammar, NEWLINE, INDENT and DEDENT included, except comments, the NL
tokens of blank and continued lines, and docstrings (the leading string
statement of a module, class or function).  A code line is a physical line
that holds or is spanned by such a token, NEWLINE/INDENT/DEDENT aside.

    python3 tools/src_size.py [FILE.py ...]
"""

from __future__ import annotations

import ast
import glob
import io
import os
import sys
import tokenize

SKIPPED = {tokenize.COMMENT, tokenize.NL, tokenize.ENCODING, tokenize.ENDMARKER}
LAYOUT = {tokenize.NEWLINE, tokenize.INDENT, tokenize.DEDENT}
DEFAULT_GLOB = os.path.join(os.path.dirname(__file__), "..", "src", "histspec", "*.py")


def docstring_lines(source: str) -> set[int]:
    lines = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
            first = node.body[0] if node.body else None
            if (isinstance(first, ast.Expr) and isinstance(first.value, ast.Constant)
                    and isinstance(first.value.value, str)):
                lines.update(range(first.lineno, first.end_lineno + 1))
    return lines


def size(source: str) -> tuple[int, int]:
    """(code lines, tokens) of one Python source text."""
    docs = docstring_lines(source)
    tokens, lines = 0, set()
    for tok in tokenize.generate_tokens(io.StringIO(source).readline):
        if tok.type in SKIPPED or (tok.type == tokenize.STRING and tok.start[0] in docs):
            continue
        tokens += 1
        if tok.type not in LAYOUT:
            lines.update(range(tok.start[0], tok.end[0] + 1))
    return len(lines), tokens


def main(paths) -> None:
    paths = paths or sorted(glob.glob(DEFAULT_GLOB))
    total_lines = total_tokens = 0
    print(f"{'file':<20} {'lines':>6} {'tokens':>7}")
    for path in paths:
        with open(path, encoding="utf-8") as fh:
            lines, tokens = size(fh.read())
        total_lines += lines
        total_tokens += tokens
        print(f"{os.path.basename(path):<20} {lines:>6} {tokens:>7}")
    print(f"{'total':<20} {total_lines:>6} {total_tokens:>7}")


if __name__ == "__main__":
    main(sys.argv[1:])
