"""Print digest lines of the enumeration and of each pruned class, to compare two trees.

First comes one line per leaf count n <= N: n, the number of classes in
``enumerate_graphs(n)``, and the first 16 hex digits of the sha256 of their
``str(g)`` texts, one per line, in the order the enumeration returns them.
This covers the representatives and their order, not only the set of
pruned classes.

Then comes one line per class.  The classes are every pruned class with at most N leaves (default 7),
taken from the enumeration, plus the fully dashed 7-leaf star.  Each line
holds the class, whether completion finished, and the first 16 hex digits
of the sha256 of
- the obstructions (sorted by length, then lexicographically),
- the finished rules,
- the ``gb --dump`` output at t = 1/2,
- the ``gb --dump`` output in symbolic form, for classes with at most 6
  leaves and for the fully dashed 7-leaf star ("-" elsewhere),
- the completion counters (``result.stats``),
- the JSON of the full analysis (``analyze(g).to_json_dict()`` with sorted
  keys): the growth verdict, the free pair, the Hilbert prefix and the
  theorem verdict.

The engine columns are read off that same analysis, so each class is
completed once for them (and once more for each ``gb --dump``).

Usage: python tools/engine_digest.py [SRC_DIR] [--max-leaves N]
       (SRC_DIR holds the tlstar package; default: src beside this script)

To check that a change leaves the engine alone, run it on both trees and
compare: ``diff <(python tools/engine_digest.py old/src) <(python
tools/engine_digest.py new/src)``.  The n <= 7 run takes 50-75 s on a
2-core x86-64 box with CPython 3.11, 7-11 s of it enumeration.
"""

import argparse
import contextlib
import hashlib
import io
import json
import sys
from pathlib import Path

SYMBOLIC_MAX_LEAVES = 6
FULLY_DASHED_K7 = "K(7; " + ",".join(f"{i}-{j}" for i in range(1, 8) for j in range(i + 1, 8)) + ")"


def digest(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def main(argv: list[str]) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("src", nargs="?", default=str(Path(__file__).resolve().parents[1] / "src"))
    parser.add_argument("--max-leaves", type=int, default=7, metavar="N")
    args = parser.parse_args(argv)
    sys.path.insert(0, str(Path(args.src).resolve()))
    from tlstar.cli import main as cli_main
    from tlstar.graphs import enumerate_graphs, parse_graph, prune_isolated_leaves
    from tlstar.report import analyze

    def gb_dump(g, t: str) -> str:
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            code = cli_main(["gb", str(g), "--dump", "--t", t])
        return digest(f"{code}\n{out.getvalue()}")

    classes = {}
    for n in range(1, args.max_leaves + 1):
        graphs = enumerate_graphs(n)
        texts = "".join(f"{g}\n" for g in graphs)
        print(f"n={n}  classes={len(graphs)}  enumeration={digest(texts)}", flush=True)
        for g in graphs:
            pruned, _ = prune_isolated_leaves(g)
            classes.setdefault(str(pruned), pruned)
    k7 = parse_graph(FULLY_DASHED_K7)
    classes.setdefault(str(k7), k7)
    for text, g in classes.items():
        report = analyze(g)
        result = report.groebner
        obstructions = sorted(result.obstructions, key=lambda w: (len(w), w))
        symbolic = gb_dump(g, "symbolic") if g.n <= SYMBOLIC_MAX_LEAVES or g == k7 else "-"
        print(f"{text}  complete={result.complete}  obstructions={digest(json.dumps(obstructions))}  "
              f"rules={digest(repr(result.rules))}  dump_half={gb_dump(g, '1/2')}  dump_symbolic={symbolic}  "
              f"stats={digest(repr(result.stats))}  "
              f"report={digest(json.dumps(report.to_json_dict(), sort_keys=True))}",
              flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
