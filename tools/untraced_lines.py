"""Print the statements of src/tlstar that never ran during one traced run.

The run is either pytest or one tlstar command, in this process, under
`sys.settrace` (and `threading.settrace` for threads it starts).  Tracing
starts before tlstar is imported, so module-level statements count too.
A statement ran when a line event fell on its own lines: a simple
statement's full span, or a compound statement's header (decorators
included) up to its body.  Docstrings and `global`/`nonlocal` run no code
and are not listed.

Code run in a subprocess is not traced: every line that runs only there
shows as untraced.  The demos, for instance, run in a subprocess under
pytest, and `Presentation.format` runs only there.

Usage: PYTHONPATH=src python tools/untraced_lines.py pytest [PYTEST_ARGS...]
       python tools/untraced_lines.py tlstar CLI_ARGS...

Run it from the repository root.  PYTHONPATH=src lets the tests that
start tlstar in a subprocess find it; without it they skip.

It prints one ``path:line  source`` line per untraced statement, then a
count, and exits with the traced run's exit code.  Tracing slows the run
about four times over: the tier-1 suite takes ~5 min.  Only the standard
library is needed (pytest for the first form).
"""

import ast
import os
import sys
import threading
from pathlib import Path

from code_lines import docstrings

SRC = Path(__file__).resolve().parents[1] / "src"
PACKAGE = SRC / "tlstar"


def statement_spans(source: str) -> list[tuple[int, int]]:
    """(first, last) lines of each statement that runs code, docstrings excluded."""
    tree = ast.parse(source)
    skip = set(docstrings(tree))
    spans = []
    for node in ast.walk(tree):
        if not isinstance(node, ast.stmt) or node in skip or isinstance(node, (ast.Global, ast.Nonlocal)):
            continue
        first = min([node.lineno] + [d.lineno for d in getattr(node, "decorator_list", ())])
        body = getattr(node, "body", None)
        last = max(node.lineno, body[0].lineno - 1) if isinstance(body, list) and body else node.end_lineno
        spans.append((first, last))
    return sorted(spans)


def run_traced(run) -> tuple[int, dict[str, set[int]]]:
    """Call run() under a line tracer: its exit code and the lines hit per package file."""
    root = str(PACKAGE) + os.sep
    inside: dict[str, bool] = {}
    hits: dict[str, set[int]] = {}

    def local(frame, event, arg):
        if event == "line":
            hits[frame.f_code.co_filename].add(frame.f_lineno)
        return local

    def tracer(frame, event, arg):
        name = frame.f_code.co_filename
        if name not in inside:
            inside[name] = os.path.realpath(name).startswith(root)
            hits.setdefault(name, set())
        return local if inside[name] else None

    threading.settrace(tracer)
    sys.settrace(tracer)
    try:
        code = run()
    except SystemExit as exc:  # argparse usage errors
        code = exc.code if isinstance(exc.code, int) else 1
    finally:
        sys.settrace(None)
        threading.settrace(None)
    by_path: dict[str, set[int]] = {}
    for name, lines in hits.items():
        if inside[name]:
            by_path.setdefault(os.path.realpath(name), set()).update(lines)
    return code, by_path


def main(argv: list[str]) -> int:
    if not argv or argv[0] not in ("pytest", "tlstar"):
        print("usage: untraced_lines.py pytest [PYTEST_ARGS...] | tlstar CLI_ARGS...", file=sys.stderr)
        return 2
    if argv[0] == "pytest":
        import pytest

        code, hits = run_traced(lambda: int(pytest.main(argv[1:])))
    else:
        sys.path.insert(0, str(SRC))

        def run():
            from tlstar.cli import main as tlstar_main
            return tlstar_main(argv[1:])

        code, hits = run_traced(run)
    untraced = total = 0
    print(f"untraced statements in {PACKAGE.relative_to(SRC.parent)}:")
    for path in sorted(PACKAGE.glob("*.py")):
        lines = path.read_text(encoding="utf-8").splitlines()
        ran = hits.get(os.path.realpath(path), set())
        for first, last in statement_spans("\n".join(lines)):
            total += 1
            if ran.isdisjoint(range(first, last + 1)):
                untraced += 1
                print(f"{path.relative_to(SRC.parent)}:{first}  {lines[first - 1].strip()}")
    print(f"{untraced} of {total} statements never ran")
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
