"""Count the lines of src/fermicool/*.py by kind: code, docstring, comment, blank.

    python3 tools/src_lines.py

Each line gets exactly one kind, decided in this order:
- docstring: inside the docstring of a module, class or function, as `ast`
  finds it (the first statement of the body, when it is a string
  expression), blank lines within it included;
- blank: nothing but whitespace;
- comment: the first non-blank character is `#`;
- code: everything else, including code with a trailing comment.

The four kinds sum to the file's line count, which is `wc -l` for a file
that ends in a newline.  `wc -l` is printed beside them.
"""

from __future__ import annotations

import ast
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src" / "fermicool"
KINDS = ("code", "docstring", "comment", "blank")


def _docstring_lines(tree: ast.Module) -> set[int]:
    lines: set[int] = set()
    for node in ast.walk(tree):
        if not isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        first = node.body[0] if node.body else None
        if (isinstance(first, ast.Expr) and isinstance(first.value, ast.Constant)
                and isinstance(first.value.value, str)):
            lines.update(range(first.lineno, first.end_lineno + 1))
    return lines


def count_lines(text: str) -> dict[str, int]:
    """Lines of one module's source, by kind."""
    docstring = _docstring_lines(ast.parse(text))
    counts = dict.fromkeys(KINDS, 0)
    for number, line in enumerate(text.splitlines(), start=1):
        stripped = line.strip()
        if number in docstring:
            kind = "docstring"
        elif not stripped:
            kind = "blank"
        elif stripped.startswith("#"):
            kind = "comment"
        else:
            kind = "code"
        counts[kind] += 1
    return counts


def _row(name: str, values) -> str:
    return f"{name:<16}" + "".join(f"{v:>10}" for v in values)


def main() -> int:
    columns = ("wc -l",) + KINDS
    print(_row("module", columns))
    total = dict.fromkeys(columns, 0)
    for path in sorted(SRC.glob("*.py")):
        text = path.read_text(encoding="utf-8")
        row = {"wc -l": text.count("\n"), **count_lines(text)}
        for key, value in row.items():
            total[key] += value
        print(_row(path.name, row.values()))
    print(_row("total", total.values()))
    return 0


if __name__ == "__main__":
    sys.exit(main())
