"""Time `buchberger` from two source trees in one interpreter, alternating per graph.

The graphs are the fully dashed 7- and 8-leaf stars and every pruned
class with at most 6 leaves.  Each round completes every graph with both
trees, back to back, the tree that goes first alternating from round to
round, and takes the CPU time (``time.process_time``) of each
`buchberger` call; presentations are built before the clock starts.  The
two results must have equal rules, completeness and counters
(``result.stats``); the tool stops with exit code 1 at the first
difference.  It prints, per graph, the median CPU of each tree over the
rounds and their ratio (new / old), with the least and greatest per-round
ratio; the n <= 6 classes are summed per round.  Timing both trees in one
process keeps the box's load the same for both, where separate processes
can differ by 2x.

Each tree's ``tlstar`` package is imported in turn and kept through its
own module objects, so the trees must have compatible sibling modules:
``graphs.parse_graph``, ``graphs.enumerate_graphs``,
``graphs.prune_isolated_leaves``, ``presentation.build_presentation`` and
``groebner.buchberger`` with the signatures they have today, results with
``rules``, ``complete`` and ``stats``, and no import inside a function
body (it would resolve to whichever tree was imported last).

Usage: python tools/completion_ab.py OLD_SRC NEW_SRC [--rounds R]
       (each SRC holds a tlstar package; R defaults to 8)
"""

import argparse
import importlib
import statistics
import sys
import time
from pathlib import Path


def load(src: str):
    """The graphs, presentation and groebner modules of the tlstar package in src."""
    for name in [m for m in sys.modules if m == "tlstar" or m.startswith("tlstar.")]:
        del sys.modules[name]
    path = str(Path(src).resolve())
    sys.path.insert(0, path)
    try:
        return tuple(importlib.import_module(f"tlstar.{m}") for m in ("graphs", "presentation", "groebner"))
    finally:
        sys.path.remove(path)


def fully_dashed(n: int) -> str:
    return f"K({n}; " + ",".join(f"{i}-{j}" for i in range(1, n + 1) for j in range(i + 1, n + 1)) + ")"


def workloads(graphs, presentation) -> dict[str, list]:
    """Presentations by workload name: K7, K8 and the pruned n <= 6 classes."""
    classes = {}
    for n in range(1, 7):
        for g in graphs.enumerate_graphs(n):
            pruned, _ = graphs.prune_isolated_leaves(g)
            classes.setdefault(str(pruned), pruned)
    build = presentation.build_presentation
    return {
        "K7": [build(graphs.parse_graph(fully_dashed(7)))],
        "K8": [build(graphs.parse_graph(fully_dashed(8)))],
        f"n<=6 ({len(classes)} classes)": [build(g) for g in classes.values()],
    }


def timed(buchberger, presentations) -> tuple[float, list]:
    results = []
    start = time.process_time()
    for pres in presentations:
        results.append(buchberger(pres))
    return time.process_time() - start, results


def main(argv: list[str]) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("old")
    parser.add_argument("new")
    parser.add_argument("--rounds", type=int, default=8)
    args = parser.parse_args(argv)
    trees = []
    for src in (args.old, args.new):
        graphs, presentation, groebner = load(src)
        trees.append((groebner.buchberger, workloads(graphs, presentation)))
    names = list(trees[0][1])
    if [[str(p.rules) for p in trees[1][1][name]] for name in names] != \
            [[str(p.rules) for p in trees[0][1][name]] for name in names]:
        print("the two trees build different presentations", file=sys.stderr)
        return 1
    cpu = {name: ([], []) for name in names}
    for r in range(args.rounds):
        for name in names:
            order = (0, 1) if r % 2 == 0 else (1, 0)
            results = [None, None]
            for side in order:
                buchberger, work = trees[side]
                seconds, results[side] = timed(buchberger, work[name])
                cpu[name][side].append(seconds)
            for old, new in zip(*results):
                if (old.rules, old.complete, tuple(old.stats), old.stats._fields) != \
                        (new.rules, new.complete, tuple(new.stats), new.stats._fields):
                    print(f"{name}: the trees differ\n  old {old.stats}\n  new {new.stats}", file=sys.stderr)
                    return 1
    print(f"buchberger CPU over {args.rounds} alternating rounds (median s; ratio new/old, median [min, max])")
    for name in names:
        old, new = cpu[name]
        ratios = [b / a for a, b in zip(old, new)]
        print(f"{name:20s} old {statistics.median(old):.4f}  new {statistics.median(new):.4f}  "
              f"ratio {statistics.median(ratios):.3f} [{min(ratios):.3f}, {max(ratios):.3f}]")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
