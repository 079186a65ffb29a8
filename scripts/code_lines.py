#!/usr/bin/env python3
"""Count the code lines of each module in src/serrespec.

A code line holds at least one token that is not a comment and not part
of a docstring (the string that opens a module, class or function body).
Blank lines, comment-only lines and docstring lines are not counted; a
statement spread over several lines counts each line it occupies.

    python3 scripts/code_lines.py [package directory]

prints one "count  module" line per module and the total.
"""

import ast
import io
import sys
import tokenize
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SKIPPED = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT,
           tokenize.DEDENT, tokenize.ENDMARKER, tokenize.ENCODING}


def docstring_lines(tree):
    """Line numbers occupied by the docstrings of the parsed source."""
    lines = set()
    for node in ast.walk(tree):
        if not isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef,
                                 ast.AsyncFunctionDef)):
            continue
        first = node.body[0] if node.body else None
        if (isinstance(first, ast.Expr)
                and isinstance(first.value, ast.Constant)
                and isinstance(first.value.value, str)):
            lines.update(range(first.lineno, first.end_lineno + 1))
    return lines


def code_lines(source):
    """The number of code lines in a module's source text."""
    skip = docstring_lines(ast.parse(source))
    lines = set()
    for tok in tokenize.generate_tokens(io.StringIO(source).readline):
        if tok.type in SKIPPED:
            continue
        lines.update(n for n in range(tok.start[0], tok.end[0] + 1)
                     if n not in skip)
    return len(lines)


def main(argv):
    package = Path(argv[1]) if len(argv) > 1 else ROOT / "src" / "serrespec"
    total = 0
    for path in sorted(package.glob("*.py")):
        count = code_lines(path.read_text())
        total += count
        print(f"{count:6d}  {path.name}")
    print(f"{total:6d}  total")


if __name__ == "__main__":
    main(sys.argv)
