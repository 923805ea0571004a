"""Count the code lines of each module of ``src/evitrust``.

A code line holds at least one token that is not a comment and is not part
of a docstring: blank lines, comment-only lines and the lines of module,
class and function docstrings are left out.  Docstrings are found with
``ast``, the other lines with ``tokenize``.

    python3 tools/code_lines.py [PACKAGE_DIR]

prints the total, then one ``module count`` line per module in name order.
"""

from __future__ import annotations

import ast
import sys
import tokenize
from pathlib import Path
from typing import Set

_PACKAGE = Path(__file__).resolve().parent.parent / "src" / "evitrust"
_NOT_CODE = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT, tokenize.DEDENT,
             tokenize.ENDMARKER, tokenize.ENCODING}


def _docstring_lines(tree: ast.Module) -> Set[int]:
    """The line numbers that the docstrings of a module's scopes span."""
    lines: Set[int] = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
            first = node.body[0] if node.body else None
            if (isinstance(first, ast.Expr) and isinstance(first.value, ast.Constant)
                    and isinstance(first.value.value, str)):
                lines.update(range(first.lineno, first.end_lineno + 1))
    return lines


def code_lines(path: Path) -> int:
    """The number of code lines in one source file."""
    text = path.read_text(encoding="utf-8")
    docstrings = _docstring_lines(ast.parse(text))
    lines: Set[int] = set()
    with path.open("rb") as fh:
        for token in tokenize.tokenize(fh.readline):
            if token.type not in _NOT_CODE:
                lines.update(range(token.start[0], token.end[0] + 1))
    return len(lines - docstrings)


def main(argv: list) -> int:
    package = Path(argv[0]) if argv else _PACKAGE
    counts = {path.stem: code_lines(path) for path in sorted(package.glob("*.py"))}
    print(f"total {sum(counts.values())}")
    for module, count in counts.items():
        print(f"{module} {count}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
