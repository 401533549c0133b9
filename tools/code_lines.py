"""Count the code lines of each module of src/tlstar.

A code line is a non-blank line that holds a token outside comments and
docstrings.  Each module is read once: `ast` finds the docstrings of the
module, its classes and its functions, and `tokenize` finds the lines that
hold any other token.

Usage: python tools/code_lines.py [SRC_DIR]   (default: src/tlstar beside this script)
"""

import ast
import io
import sys
import tokenize
from pathlib import Path

NON_CODE = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT, tokenize.DEDENT,
            tokenize.ENCODING, tokenize.ENDMARKER}


def docstrings(tree: ast.AST) -> list[ast.Expr]:
    """The docstring statements of the module, its classes and its functions."""
    out = []
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
            body = node.body
            if body and isinstance(body[0], ast.Expr) and isinstance(body[0].value, ast.Constant) \
                    and isinstance(body[0].value.value, str):
                out.append(body[0])
    return out


def code_lines(source: str) -> int:
    """Number of lines of source that hold a token outside comments and docstrings."""
    docstring_lines = set()
    for doc in docstrings(ast.parse(source)):
        docstring_lines.update(range(doc.lineno, doc.end_lineno + 1))
    lines = set()
    for tok in tokenize.generate_tokens(io.StringIO(source).readline):
        if tok.type not in NON_CODE:
            lines.update(range(tok.start[0], tok.end[0] + 1))
    return len(lines - docstring_lines)


def main(argv: list[str]) -> int:
    src = Path(argv[0]) if argv else Path(__file__).resolve().parents[1] / "src" / "tlstar"
    total = 0
    for path in sorted(src.glob("*.py")):
        count = code_lines(path.read_text(encoding="utf-8"))
        total += count
        print(f"{count:6d}  {path.name}")
    print(f"{total:6d}  total")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
