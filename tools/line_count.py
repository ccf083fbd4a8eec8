"""Code, docstring, comment and blank lines of each Python module.

    python3 tools/line_count.py [DIR]

DIR defaults to src/smallflow; every *.py file under it is counted.  Each
line of a file falls in exactly one column, so the four add up to its
line count:

* docstring: a line of a module, class or function docstring (ast);
* code: any other line that holds a token other than a comment (tokenize),
  the lines of a multi-line string or bracket included;
* comment: a line whose only token is a comment;
* blank: every other line.

One row is printed per module, then a total row.
"""

from __future__ import annotations

import argparse
import ast
import io
import tokenize
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
COLUMNS = ("code", "docstring", "comment", "blank")
_LAYOUT = {tokenize.NL, tokenize.NEWLINE, tokenize.INDENT, tokenize.DEDENT,
           tokenize.ENDMARKER}


def _docstring_lines(tree) -> set:
    lines = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef,
                             ast.AsyncFunctionDef)) and node.body:
            first = node.body[0]
            if isinstance(first, ast.Expr) and \
                    isinstance(first.value, ast.Constant) and \
                    isinstance(first.value.value, str):
                lines.update(range(first.lineno, first.end_lineno + 1))
    return lines


def count(text: str) -> dict:
    """The four columns of one module's source text, and its total."""
    docs = _docstring_lines(ast.parse(text))
    code, comments = set(), set()
    for tok in tokenize.generate_tokens(io.StringIO(text).readline):
        if tok.type == tokenize.COMMENT:
            comments.add(tok.start[0])
        elif tok.type not in _LAYOUT:
            code.update(range(tok.start[0], tok.end[0] + 1))
    code -= docs
    comments -= docs | code
    total = len(text.splitlines())
    row = {"code": len(code), "docstring": len(docs),
           "comment": len(comments)}
    row["blank"] = total - sum(row.values())
    row["total"] = total
    return row


def table(directory: Path) -> dict:
    """Module path (relative to directory) -> its row, for every *.py file
    under directory, in path order."""
    return {str(path.relative_to(directory)): count(path.read_text())
            for path in sorted(directory.rglob("*.py"))}


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("directory", type=Path, nargs="?",
                    default=ROOT / "src" / "smallflow")
    rows = table(ap.parse_args(argv).directory)
    rows["total"] = {c: sum(r[c] for r in rows.values())
                     for c in COLUMNS + ("total",)}
    width = max(map(len, rows))
    print(f"{'module':<{width}}" + "".join(f"{c:>11}" for c in
                                           COLUMNS + ("total",)))
    for name, row in rows.items():
        print(f"{name:<{width}}" + "".join(f"{row[c]:>11}" for c in
                                           COLUMNS + ("total",)))


if __name__ == "__main__":
    main()
