"""One repetition of one benchmark workload, in a fresh interpreter.

Usage: python3 worker.py <spec.json> <result.json> <spawn_clock>

``spawn_clock`` is the parent's ``time.perf_counter()`` just before it
started this process; on Linux that clock is CLOCK_MONOTONIC, shared by
all processes, so ``setup_s`` spans interpreter start-up and the import of
tlstar.  The spec names the workload mode:

- ``setup``: stop after the import;
- ``cli``: call ``tlstar.cli.main(argv)`` once;
- ``batch``: read graph texts and, per input, compute ``canonical_form``
  and run ``classify_by_theorem`` and ``check_nu_conditions``.

With ``trace`` set, every public function in ``HOOKS`` is wrapped under
the name its caller module looks it up by, and each call becomes a span
(name, start, end, parent) kept in memory and written with the result.
Without it only the names in ``capture`` are wrapped, to keep references
to their inputs and results for the output checks; those wrappers read
the clock but their spans are not used for timing.
"""

import os
import sys
import time

sys.path.insert(0, os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src"))
import tlstar  # noqa: E402,F401  (the import is what setup_s times)

SETUP_DONE = time.perf_counter()

import importlib  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402

# Caller module -> the public functions it calls through its own namespace.
HOOKS = {
    "tlstar.cli": ("analyze", "cross_validate", "build_presentation", "buchberger",
                   "build_automaton", "hilbert_prefix", "search_free_pair", "enumerate_graphs"),
    "tlstar.report": ("enumerate_graphs", "prune_isolated_leaves", "canonical_representative",
                      "canonical_form", "classify_by_theorem", "check_nu_conditions",
                      "build_presentation", "buchberger", "build_automaton", "hilbert_prefix",
                      "classify_growth", "search_free_pair"),
    "tlstar.classifier": ("classify_by_theorem", "check_nu_conditions",
                          "prune_isolated_leaves", "contains_subgraph"),
    "tlstar.graphs": ("canonical_form", "canonical_representative"),
}


class Tracer:
    """In-memory spans: [name, start, end, parent index, first argument, result]."""

    def __init__(self):
        self.spans = []
        self.stack = []

    def wrap(self, name, fn):
        spans, stack, clock = self.spans, self.stack, time.perf_counter

        def traced(*args, **kwargs):
            rec = [name, clock(), 0.0, stack[-1] if stack else -1, args[0] if args else None, None]
            stack.append(len(spans))
            spans.append(rec)
            try:
                rec[5] = fn(*args, **kwargs)
                return rec[5]
            finally:
                stack.pop()
                rec[2] = clock()

        traced.__wrapped__ = fn
        return traced

    def install(self, hooks):
        for modname, attrs in hooks.items():
            module = importlib.import_module(modname)
            for attr in attrs:
                fn = getattr(module, attr)
                fn = getattr(fn, "__wrapped__", fn)
                layer = fn.__module__.rsplit(".", 1)[-1]
                setattr(module, attr, self.wrap(f"{layer}.{fn.__name__}", fn))

    def root(self, name):
        """Open a span around the workload itself; returns its closer."""
        rec = [name, time.perf_counter(), 0.0, -1, None, None]
        self.stack.append(len(self.spans))
        self.spans.append(rec)

        def close():
            self.stack.pop()
            rec[2] = time.perf_counter()

        return close


def graph_key(n, dashed):
    """Same text key as ``checks.graph_key``; not imported, to keep the worker's memory lean."""
    return f"{n}:" + ",".join(f"{i}-{j}" for i, j in sorted(dashed))


def _summary(name, arg, result):
    """JSON-able facts about one call, read from public result fields after timing."""
    if name == "growth.search_free_pair":
        return {"found": result is not None}
    if result is None:
        return None
    if name == "graphs.canonical_form":
        n, edges = result.key
        return {"class": graph_key(n, edges)}
    if name == "graphs.canonical_representative":
        return {"class": graph_key(result.n, result.dashed)}
    if name == "presentation.build_presentation":
        return {"relations": len(result.relations), "graph": graph_key(arg.n, arg.dashed)}
    if name == "groebner.buchberger":
        return {"basis": result.basis_size(), "complete": result.complete,
                "obstructions": sorted(list(w) for w in result.obstructions)}
    if name == "automaton.build_automaton":
        return {"states": result.live_state_count()}
    if name == "report.cross_validate":
        return {"rows": len(result.rows), "engine_runs": result.engine_runs}
    if name == "report.analyze":
        return {"rows": 1, "engine_runs": 0 if result.groebner is None else 1}
    return None


def _run_cli(spec, tracer):
    from tlstar import cli

    close = tracer.root("cli.main")
    wall0, cpu0 = time.perf_counter(), time.process_time()
    try:
        code, error = cli.main(spec["argv"]), None
    except Exception as exc:  # reported as a failed item, not a crash of the benchmark
        code, error = None, f"{type(exc).__name__}: {exc}"
    wall1, cpu1 = time.perf_counter(), time.process_time()
    close()
    return {"exit_code": code, "error": error, "wall_s": wall1 - wall0, "cpu_s": cpu1 - cpu0}


def _run_batch(spec, tracer):
    from tlstar import classifier, graphs

    with open(spec["inputs"], encoding="utf-8") as f:
        texts = json.load(f)
    verdicts, verdict_ms, error = [], [], None
    clock = time.perf_counter
    close = tracer.root("batch.main")
    wall0, cpu0 = clock(), time.process_time()
    try:
        for text in texts:
            t0 = clock()
            g = graphs.parse_graph(text)
            cf = graphs.canonical_form(g)
            verdict = classifier.classify_by_theorem(g)
            violations = classifier.check_nu_conditions(g, verdict)
            verdict_ms.append((clock() - t0) * 1e3)
            verdicts.append((cf, verdict, violations))
    except Exception as exc:  # reported as failed items, not a crash of the benchmark
        error = f"{type(exc).__name__}: {exc}"
    wall1, cpu1 = clock(), time.process_time()
    close()
    outputs = [{"class": list(cf.key[1]), "n": cf.key[0], "branch": v.branch, "nu": v.nu,
                "violations": list(viol)} for cf, v, viol in verdicts]
    return {"error": error, "wall_s": wall1 - wall0, "cpu_s": cpu1 - cpu0,
            "verdict_ms": verdict_ms, "outputs": outputs}


def main():
    spec_path, out_path, spawn = sys.argv[1], sys.argv[2], float(sys.argv[3])
    result = {"setup_s": SETUP_DONE - spawn}
    with open(spec_path, encoding="utf-8") as f:
        spec = json.load(f)
    if spec["mode"] != "setup":
        tracer = Tracer()
        if spec["trace"]:
            tracer.install(HOOKS)
        else:
            tracer.install({m: tuple(a) for m, a in spec.get("capture", {}).items()})
        run = _run_cli if spec["mode"] == "cli" else _run_batch
        result.update(run(spec, tracer))
        # ru_maxrss is in KiB on Linux.
        result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        result["spans"] = [[name, start, end, parent, _summary(name, arg, res)]
                           for name, start, end, parent, arg, res in tracer.spans]
    with open(out_path, "w", encoding="utf-8") as f:
        json.dump(result, f)


if __name__ == "__main__":
    main()
