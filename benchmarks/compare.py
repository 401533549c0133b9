"""Compare end-to-end results of two commits, one row per workload and metric.

Usage (from the repository root):

    python3 benchmarks/compare.py report PARENT.jsonl CHANGE.jsonl
    python3 benchmarks/compare.py pairs PARENT_DIR CHANGE_DIR --workload star7-half --out DIR
    python3 benchmarks/compare.py spread RESULTS.jsonl

``report`` reads result sets written by ``run.py --record``; only untraced
runs count.  ``pairs`` makes them: it runs the ``benchmarks/run.py`` of two
checkouts (copy this directory into both, so the benchmark code is the
same), alternating which side goes first, with the same seed within a
pair, and appends to ``DIR/parent.jsonl`` and ``DIR/change.jsonl`` before
printing the report.

Each row gives both sides' median and quartiles and one verdict, judged
against the metric's ``bound`` in ``BENCHMARK.json``:

- ``unresolved``: either side's quartile spread, as a share of its median,
  exceeds the bound, and the sides do not separate completely;
- ``worse``: the change's median is worse than the parent's by more than
  the bound;
- ``better``: the medians differ by more than the parent's quartile
  spread and, where runs are paired by seed, the change wins at least nine
  tenths of the pairs;
- ``same``: none of these.

``spread`` prints, for one result set, each metric's quartile spread as a
share of its median next to its bound: the steadiness a comparison needs.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def load(path: str) -> list[dict]:
    with open(path, encoding="utf-8") as f:
        return [r for r in map(json.loads, filter(str.strip, f)) if r.get("trace") == 0]


def _bounds() -> dict:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as f:
        return {m["name"]: m for m in json.load(f)["end_to_end"]}


def _quartiles(values):
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, med, q3 = statistics.quantiles(values, n=4)
    return q1, med, q3


def verdict(parent: dict, change: dict, lower_is_better: bool, bound: float) -> tuple[str, str]:
    """(verdict, wins) for one metric; each side maps seed -> value."""
    sign = 1 if lower_is_better else -1
    p_vals, c_vals = list(parent.values()), list(change.values())
    p_q1, p_med, p_q3 = _quartiles(p_vals)
    c_q1, c_med, c_q3 = _quartiles(c_vals)
    shared = parent.keys() & change.keys()
    wins = sum(sign * (change[s] - parent[s]) < 0 for s in shared)
    win_text = f"{wins}/{len(shared)}" if shared else "-"
    if (p_q3 - p_q1) > bound * abs(p_med) or (c_q3 - c_q1) > bound * abs(c_med):
        if all(sign * (c - p) < 0 for c in c_vals for p in p_vals):
            return "better", win_text
        return "unresolved", win_text
    if sign * (c_med - p_med) > bound * abs(p_med):
        return "worse", win_text
    if sign * (p_med - c_med) > (p_q3 - p_q1) and (not shared or wins >= 0.9 * len(shared)):
        return "better", win_text
    return "same", win_text


def report(parent_rows: list[dict], change_rows: list[dict]) -> int:
    spec = _bounds()
    workloads = sorted({r["workload"] for r in parent_rows} & {r["workload"] for r in change_rows})
    print(f"{'workload':<18} {'metric':<15} {'unit':<5} {'parent median [q1, q3]':>32} "
          f"{'change median [q1, q3]':>32} {'delta':>8} {'wins':>6}  verdict")
    worse = 0
    for wl in workloads:
        for name, m in spec.items():
            sides = []
            for rows in (parent_rows, change_rows):
                sides.append({r["seed"]: r["metrics"][name]["value"] for r in rows
                              if r["workload"] == wl and name in r["metrics"]})
            if not all(sides):
                continue
            cells = []
            for side in sides:
                q1, med, q3 = _quartiles(list(side.values()))
                cells.append(f"{med:.6g} [{q1:.6g}, {q3:.6g}]")
            p_med, c_med = (statistics.median(s.values()) for s in sides)
            word, wins = verdict(sides[0], sides[1], m["better"] == "lower", m["bound"])
            worse += word == "worse"
            print(f"{wl:<18} {name:<15} {m['unit']:<5} {cells[0]:>32} {cells[1]:>32} "
                  f"{(c_med - p_med) / p_med:>+8.1%} {wins:>6}  {word}")
    return 1 if worse else 0


def spread(rows: list[dict]) -> int:
    print(f"{'workload':<18} {'metric':<15} {'runs':>4} {'median':>12} {'q1':>12} {'q3':>12} "
          f"{'spread':>8} {'bound':>6}")
    for wl in sorted({r["workload"] for r in rows}):
        for name, m in _bounds().items():
            values = [r["metrics"][name]["value"] for r in rows if r["workload"] == wl and name in r["metrics"]]
            if values:
                q1, med, q3 = _quartiles(values)
                print(f"{wl:<18} {name:<15} {len(values):>4} {med:>12.6g} {q1:>12.6g} {q3:>12.6g} "
                      f"{(q3 - q1) / med:>8.1%} {m['bound']:>6.0%}")
    return 0


def pairs(args) -> int:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as f:
        seconds = json.load(f)["run_seconds"]
    os.makedirs(args.out, exist_ok=True)
    sides = {"parent": args.parent_dir, "change": args.change_dir}
    for k in range(args.pairs):
        seed = args.seed + k
        order = ("parent", "change") if k % 2 == 0 else ("change", "parent")
        for side in order:
            record = os.path.abspath(os.path.join(args.out, f"{side}.jsonl"))
            cmd = [sys.executable, "benchmarks/run.py", "--workload", args.workload, "--seed", str(seed),
                   "--seconds", str(seconds), "--trace", "0", "--record", record]
            print(f"pair {k + 1}/{args.pairs} {side}: seed {seed}", file=sys.stderr)
            subprocess.run(cmd, cwd=sides[side], check=True, stdout=subprocess.DEVNULL)
    return report(load(os.path.join(args.out, "parent.jsonl")), load(os.path.join(args.out, "change.jsonl")))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    sub = parser.add_subparsers(dest="command", required=True)
    p = sub.add_parser("report", help="compare two recorded result sets")
    p.add_argument("parent")
    p.add_argument("change")
    p = sub.add_parser("spread", help="quartile spread of each metric in one result set")
    p.add_argument("results")
    p = sub.add_parser("pairs", help="run alternating parent/change pairs, then compare")
    p.add_argument("parent_dir")
    p.add_argument("change_dir")
    p.add_argument("--workload", required=True)
    p.add_argument("--pairs", type=int, default=10)
    p.add_argument("--seed", type=int, default=1, help="seed of the first pair; pair k uses seed + k")
    p.add_argument("--out", required=True, help="directory for parent.jsonl and change.jsonl")
    args = parser.parse_args(argv)
    if args.command == "report":
        return report(load(args.parent), load(args.change))
    if args.command == "spread":
        return spread(load(args.results))
    return pairs(args)


if __name__ == "__main__":
    sys.exit(main())
