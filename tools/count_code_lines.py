"""Count the code lines of Python sources.

A code line is a physical line that holds any token other than a
comment or NL/NEWLINE/INDENT/DEDENT, outside module, class and function
docstrings.  A token that spans several lines (a multi-line string)
counts each of them.

    python tools/count_code_lines.py [PATH ...]     # default: src/clothofit

Prints each file's count and the total.
"""

import ast
import io
import sys
import tokenize
from pathlib import Path

SKIPPED = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT,
           tokenize.DEDENT, tokenize.ENCODING, tokenize.ENDMARKER}
SCOPES = (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)


def docstring_lines(tree):
    lines = set()
    for node in ast.walk(tree):
        if isinstance(node, SCOPES) and node.body:
            first = node.body[0]
            if (isinstance(first, ast.Expr) and isinstance(first.value, ast.Constant)
                    and isinstance(first.value.value, str)):
                lines.update(range(first.lineno, first.end_lineno + 1))
    return lines


def count_code_lines(path):
    source = Path(path).read_bytes()
    lines = set()
    for tok in tokenize.tokenize(io.BytesIO(source).readline):
        if tok.type not in SKIPPED:
            lines.update(range(tok.start[0], tok.end[0] + 1))
    return len(lines - docstring_lines(ast.parse(source)))


def main(argv):
    roots = [Path(p) for p in argv] or [Path(__file__).resolve().parents[1] / "src" / "clothofit"]
    files = sorted(f for r in roots for f in ([r] if r.is_file() else r.rglob("*.py")))
    total = 0
    for f in files:
        n = count_code_lines(f)
        total += n
        print("%6d  %s" % (n, f))
    print("%6d  total" % total)


if __name__ == "__main__":
    main(sys.argv[1:])
