"""The tlstar benchmark: end-to-end metrics per workload, per-layer metrics when traced.

Usage (from the repository root):

    python3 benchmarks/run.py --workload sweep6-symbolic --seed 1 --seconds 30 --trace 0
    python3 benchmarks/run.py --workload all

Every repetition of a workload runs in a fresh interpreter (``worker.py``),
so the ``lru_cache``s in ``tlstar.graphs`` start cold, as they do for a
command-line user.  Repetitions run one after another (a closed loop with
one client) until the next one would overrun ``--seconds``; at least one
always runs.  End-to-end metrics are medians over the repetitions of an
untraced run.  ``--trace 1`` adds one traced repetition after them and
reports the per-layer metrics of ``layers.py`` instead.

Outputs are checked outside the timed region (``checks.py``).  The last
line of standard output is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``.  ``--record PATH`` also appends
that object, with the workload, seed and input digest, to a JSON-lines
file that ``compare.py`` reads.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import random
import statistics
import subprocess
import sys
import tempfile
import time

import checks
import layers

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORK = os.path.join(HERE, ".work")
EXPECTED = os.path.join(HERE, "expected.json")

SETUP_PROBES = 9
REP_TIMEOUT_S = 170

K7 = "K(7; " + ", ".join(f"{i}-{j}" for i in range(1, 8) for j in range(i + 1, 8)) + ")"

# isoclass-theorem batch: per leaf count, the edge count of each base graph.
# Fixed edge counts keep the cost of a batch nearly independent of the seed
# (one canonical form costs about n! * (a + b * edges)); two thirds of the
# inputs have 7 leaves, so the median verdict is a 7-leaf one and the 90th
# percentile an 8-leaf one, each far from the boundary between the two.
BATCH_EDGES = {7: tuple(range(6, 15)) * 2, 8: tuple(range(8, 17))}
RELABELLINGS = 4

END_TO_END_UNITS = {
    "setup_s": "s",
    "wall_s": "s",
    "cpu_s": "s",
    "peak_rss_mb": "MB",
    "verdict_p50_ms": "ms",
    "verdict_p90_ms": "ms",
}


def make_batch(seed: int):
    """Distinct labelled graphs: each random base graph under RELABELLINGS relabellings.

    Returns (inputs, groups, texts): (n, edges) per input, the base graph
    each came from, and the text the program receives.  No two inputs are
    equal as labelled graphs, so no input hits a cache another one filled.
    """
    rng = random.Random(seed)
    batch, seen, group = [], set(), -1
    for n, edge_counts in BATCH_EDGES.items():
        pairs = [(i, j) for i in range(1, n + 1) for j in range(i + 1, n + 1)]
        for m in edge_counts:
            group += 1
            base = rng.sample(pairs, m)
            members = 0
            for _ in range(10_000):
                perm = list(range(1, n + 1))
                rng.shuffle(perm)
                edges = tuple(sorted((min(perm[i - 1], perm[j - 1]), max(perm[i - 1], perm[j - 1]))
                                     for i, j in base))
                if (n, edges) not in seen:
                    seen.add((n, edges))
                    batch.append(((n, edges), group))
                    members += 1
                    if members == RELABELLINGS:
                        break
            else:
                raise RuntimeError(f"base graph {base} on {n} leaves has too few relabellings")
    rng.shuffle(batch)
    inputs = [item for item, _ in batch]
    groups = [group for _, group in batch]
    texts = [f"K({n}; " + ", ".join(f"{i}-{j}" for i, j in edges) + ")" for n, edges in inputs]
    return inputs, groups, texts


class Workload:
    """How to run one repetition of a named workload and check its output."""

    def __init__(self, name: str, seed: int, tmp: str, expected: dict):
        self.name, self.expected = name, expected
        self.inputs_digest = None
        self.json_out = os.path.join(tmp, "cli.json")
        if name == "sweep6-symbolic":
            self.spec = {"mode": "cli", "argv": ["crossvalidate", "--max-leaves", "6", "--json", self.json_out],
                         "capture": {"tlstar.report": ["build_presentation", "buchberger"]}}
        elif name == "star7-half":
            self.spec = {"mode": "cli", "argv": ["classify", K7, "--t", "1/2", "--json", self.json_out]}
        elif name == "isoclass-theorem":
            self.inputs, self.groups, texts = make_batch(seed)
            path = os.path.join(tmp, "inputs.json")
            with open(path, "w", encoding="utf-8") as f:
                json.dump(texts, f)
            self.inputs_digest = hashlib.sha256("\n".join(texts).encode()).hexdigest()[:16]
            self.spec = {"mode": "batch", "inputs": path}
        else:
            raise ValueError(f"unknown workload {name!r}")

    def check(self, rep: dict):
        """(items, failures) for one repetition."""
        if self.name == "isoclass-theorem":
            items, failures = checks.check_batch(self.inputs, self.groups, rep.get("outputs", []))
        elif rep.get("error") or rep.get("exit_code") != 0 or not os.path.exists(self.json_out):
            items = sum(checks.A000088[n] for n in range(1, 7)) if self.name == "sweep6-symbolic" else 1
            return items, [f"run failed: exit {rep.get('exit_code')} {rep.get('error') or ''}"] * items
        else:
            with open(self.json_out, encoding="utf-8") as f:
                payload = json.load(f)
            os.remove(self.json_out)
            if self.name == "star7-half":
                items, failures = checks.check_classify(payload, self.expected[self.name])
            else:
                items, failures = checks.check_sweep(payload, engine_runs(rep["spans"]),
                                                     self.expected[self.name], 6)
        return items, failures


def engine_runs(spans):
    """(engine input graph key, obstruction words) per engine run, in call order."""
    graphs = [s[4]["graph"] for s in spans if s[0] == "presentation.build_presentation" and s[4]]
    bases = [s[4]["obstructions"] for s in spans if s[0] == "groebner.buchberger" and s[4]]
    return list(zip(graphs, bases))


def spawn(spec: dict, tmp: str) -> dict:
    """Run worker.py once on spec; a crash or timeout becomes an ``error`` entry."""
    spec_path = os.path.join(tmp, "spec.json")
    out_path = os.path.join(tmp, "rep.json")
    with open(spec_path, "w", encoding="utf-8") as f:
        json.dump(spec, f)
    if os.path.exists(out_path):
        os.remove(out_path)
    start = time.perf_counter()
    with subprocess.Popen([sys.executable, os.path.join(HERE, "worker.py"), spec_path, out_path, repr(start)],
                          cwd=ROOT, stdout=subprocess.DEVNULL, stderr=subprocess.PIPE, text=True) as proc:
        try:
            _, err = proc.communicate(timeout=REP_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.communicate()
            return {"error": f"repetition exceeded {REP_TIMEOUT_S} s", "duration_s": time.perf_counter() - start}
    duration = time.perf_counter() - start
    if proc.returncode != 0 or not os.path.exists(out_path):
        return {"error": f"worker exit {proc.returncode}: {err.strip()[-500:]}", "duration_s": duration}
    with open(out_path, encoding="utf-8") as f:
        rep = json.load(f)
    rep["duration_s"] = duration
    return rep


def run_workload(name: str, seed: int, seconds: int, trace: bool) -> dict:
    with open(EXPECTED, encoding="utf-8") as f:
        expected = json.load(f)
    os.makedirs(WORK, exist_ok=True)
    with tempfile.TemporaryDirectory(dir=WORK) as tmp:
        wl = Workload(name, seed, tmp, expected)
        spawn({"mode": "setup"}, tmp)  # writes tlstar's bytecode cache; not counted
        setups = [spawn({"mode": "setup"}, tmp).get("setup_s") for _ in range(SETUP_PROBES)]
        reps, attempted, failures = [], 0, []
        deadline = time.perf_counter() + seconds
        while True:
            rep = spawn(dict(wl.spec, trace=False), tmp)
            items, bad = wl.check(rep)
            reps.append(rep)
            attempted += items
            failures += bad
            if time.perf_counter() + rep["duration_s"] > deadline:
                break
        traced = None
        if trace:
            traced = spawn(dict(wl.spec, trace=True), tmp)
            items, bad = wl.check(traced)
            attempted += items
            failures += bad
            if "spans" in traced:
                trace_path = os.path.join(WORK, f"trace-{name}-{seed}.json")
                with open(trace_path, "w", encoding="utf-8") as f:
                    json.dump(traced["spans"], f)
    ok = [r for r in reps if "wall_s" in r]
    if not ok or (trace and "wall_s" not in traced):
        return {"result": None, "failures": failures or ["no repetition completed"], "reps": len(reps)}
    wall = statistics.median(r["wall_s"] for r in ok)
    if trace:
        metrics = layers.layer_metrics(traced["spans"], traced["wall_s"], wall)
        units = layers.UNITS
    else:
        samples = ([ms for r in ok for ms in r["verdict_ms"]] if wl.spec["mode"] == "batch"
                   else [r["wall_s"] * 1e3 for r in ok])
        metrics = {
            "setup_s": statistics.median([s for s in setups if s is not None] + [r["setup_s"] for r in ok]),
            "wall_s": wall,
            "cpu_s": statistics.median(r["cpu_s"] for r in ok),
            "peak_rss_mb": statistics.median(r["peak_rss_mb"] for r in ok),
            "verdict_p50_ms": statistics.median(samples),
            "verdict_p90_ms": layers.percentile(samples, 90),
        }
        units = END_TO_END_UNITS
    result = {
        "correct": not failures,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }
    return {"result": result, "failures": failures, "reps": len(reps), "inputs_digest": wl.inputs_digest,
            "verdict_samples": None if trace else len(samples)}


def _print_summary(name: str, seed: int, trace: bool, run: dict) -> None:
    result = run["result"]
    print(f"workload {name}  seed {seed}  trace {int(trace)}  repetitions {run['reps']}"
          + (f"  inputs sha256:{run['inputs_digest']}" if run.get("inputs_digest") else ""))
    for msg in run["failures"][:5]:
        print(f"  FAILED: {msg}")
    if result is None:
        return
    for key, m in result["metrics"].items():
        print(f"  {key:<28} {m['value']:>14.6g} {m['unit']}")
    print(f"  {'failed_frac':<28} {result['failed'] / result['attempted']:>14.6g} "
          f"({result['failed']} of {result['attempted']} items)")
    if run["verdict_samples"] is not None:
        print(f"  {'verdict samples':<28} {run['verdict_samples']:>14}")


WORKLOADS = ("sweep6-symbolic", "star7-half", "isoclass-theorem")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=30)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--record", metavar="PATH", help="append each result to this JSON-lines file")
    args = parser.parse_args(argv)
    if not os.path.isfile(os.path.join(ROOT, "src", "tlstar", "__init__.py")):
        print(f"error: no tlstar sources under {os.path.join(ROOT, 'src')}", file=sys.stderr)
        return 1
    names = WORKLOADS if args.workload == "all" else (args.workload,)
    for name in names:
        run = run_workload(name, args.seed, args.seconds, bool(args.trace))
        _print_summary(name, args.seed, bool(args.trace), run)
        if run["result"] is None:
            return 1
        if args.record:
            with open(args.record, "a", encoding="utf-8") as f:
                f.write(json.dumps({"workload": name, "seed": args.seed, "trace": args.trace,
                                    "seconds": args.seconds, "inputs_digest": run["inputs_digest"],
                                    **run["result"]}) + "\n")
        print(json.dumps(run["result"]))
    return 0


if __name__ == "__main__":
    sys.exit(main())
