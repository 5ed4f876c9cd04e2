"""Count the code lines of Python modules, per module and in total.

A code line is a physical line that carries a token other than a comment,
a newline or an indent; the lines of module, class and function
docstrings are left out.  A token that spans lines, such as a triple-quoted
string that is not a docstring, counts every line it covers.

    python3 tools/code_lines.py src/twisthom
"""

from __future__ import annotations

import ast
import io
import sys
import tokenize
from pathlib import Path

_LAYOUT = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT,
           tokenize.DEDENT, tokenize.ENDMARKER}
_SCOPES = (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)


def _docstring_lines(tree: ast.Module) -> set[int]:
    lines = set()
    for node in ast.walk(tree):
        if isinstance(node, _SCOPES) and node.body:
            first = node.body[0]
            if (isinstance(first, ast.Expr) and isinstance(first.value, ast.Constant)
                    and isinstance(first.value.value, str)):
                lines.update(range(first.lineno, first.end_lineno + 1))
    return lines


def code_lines(path: Path) -> int:
    """The number of code lines in one Python source file."""
    source = path.read_text()
    lines = set()
    for tok in tokenize.generate_tokens(io.StringIO(source).readline):
        if tok.type not in _LAYOUT:
            lines.update(range(tok.start[0], tok.end[0] + 1))
    return len(lines - _docstring_lines(ast.parse(source)))


def main(argv: list[str]) -> int:
    if len(argv) != 1:
        print("usage: code_lines.py DIR_OR_FILE", file=sys.stderr)
        return 2
    root = Path(argv[0])
    files = sorted(root.rglob("*.py")) if root.is_dir() else [root]
    total = 0
    for path in files:
        n = code_lines(path)
        total += n
        print(f"{n:6d}  {path}")
    print(f"{total:6d}  total")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
