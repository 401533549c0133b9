"""Per-layer metrics from the spans of one traced repetition.

A span is ``[name, start, end, parent, summary]`` as ``worker.py`` writes
it.  A span's self time is its duration minus the durations of its direct
children (one thread, so children never overlap).  Each metric below is a
sum of self times over the spans of one layer, so together with
``report.self_s`` and ``cli.self_s`` they add up to the root span, which
``trace.accounted_frac`` compares with the traced ``wall_s``.
"""

from __future__ import annotations

import statistics

# Metric -> span names whose self times it sums.
SELF_TIME = {
    "graphs.enumerate_s": ("graphs.enumerate_graphs",),
    "graphs.canonical_s": ("graphs.canonical_form", "graphs.canonical_representative"),
    "graphs.prune_s": ("graphs.prune_isolated_leaves",),
    "classifier.busy_s": ("classifier.classify_by_theorem", "classifier.check_nu_conditions"),
    "classifier.embed_s": ("graphs.contains_subgraph",),
    "presentation.busy_s": ("presentation.build_presentation",),
    "groebner.busy_s": ("groebner.buchberger",),
    "automaton.build_s": ("automaton.build_automaton",),
    "automaton.hilbert_s": ("automaton.hilbert_prefix",),
    "growth.classify_s": ("growth.classify_growth",),
    "growth.freepair_s": ("growth.search_free_pair",),
    "report.self_s": ("report.analyze", "report.cross_validate"),
    "cli.self_s": ("cli.main", "batch.main"),
}

UNITS = {name: "s" for name in SELF_TIME}
UNITS.update({
    "graphs.canonical_calls": "count",
    "graphs.classes": "count",
    "classifier.calls": "count",
    "presentation.relations": "count",
    "groebner.calls": "count",
    "groebner.call_p50_ms": "ms",
    "groebner.call_p90_ms": "ms",
    "groebner.basis_size": "count",
    "groebner.complete_frac": "ratio",
    "automaton.states": "count",
    "growth.freepair_found_frac": "ratio",
    "report.engine_dedup_ratio": "ratio",
    "trace.overhead_s": "s",
    "trace.accounted_frac": "ratio",
})


def percentile(values, q: int) -> float:
    """The q-th percentile (statistics.quantiles, exclusive method); one value is its own."""
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=100)[q - 1]


def _ratio(num, den):
    return num / den if den else 0.0


def layer_metrics(spans: list, traced_wall_s: float, untraced_wall_s: float) -> dict:
    """Every per-layer metric, as a name -> value map."""
    self_time = [end - start for _, start, end, _, _ in spans]
    for _, start, end, parent, _ in spans:
        if parent >= 0:
            self_time[parent] -= end - start
    by_name: dict[str, list[int]] = {}
    for k, span in enumerate(spans):
        by_name.setdefault(span[0], []).append(k)

    def summaries(name):
        return [spans[k][4] for k in by_name.get(name, ()) if spans[k][4] is not None]

    out = {metric: sum(self_time[k] for name in names for k in by_name.get(name, ()))
           for metric, names in SELF_TIME.items()}

    canon = summaries("graphs.canonical_form") + summaries("graphs.canonical_representative")
    out["graphs.canonical_calls"] = len(canon)
    out["graphs.classes"] = len({s["class"] for s in canon})
    out["classifier.calls"] = sum(len(by_name.get(name, ())) for name in SELF_TIME["classifier.busy_s"])
    out["presentation.relations"] = sum(s["relations"] for s in summaries("presentation.build_presentation"))

    gb_ms = [(spans[k][2] - spans[k][1]) * 1e3 for k in by_name.get("groebner.buchberger", ())]
    gb = summaries("groebner.buchberger")
    out["groebner.calls"] = len(gb_ms)
    out["groebner.call_p50_ms"] = percentile(gb_ms, 50) if gb_ms else 0.0
    out["groebner.call_p90_ms"] = percentile(gb_ms, 90) if gb_ms else 0.0
    out["groebner.basis_size"] = sum(s["basis"] for s in gb)
    out["groebner.complete_frac"] = _ratio(sum(s["complete"] for s in gb), len(gb))

    out["automaton.states"] = sum(s["states"] for s in summaries("automaton.build_automaton"))
    searches = summaries("growth.search_free_pair")
    out["growth.freepair_found_frac"] = _ratio(sum(s["found"] for s in searches), len(searches))

    reports = summaries("report.analyze") + summaries("report.cross_validate")
    out["report.engine_dedup_ratio"] = _ratio(sum(s["engine_runs"] for s in reports),
                                              sum(s["rows"] for s in reports))
    out["trace.overhead_s"] = traced_wall_s - untraced_wall_s
    out["trace.accounted_frac"] = _ratio(sum(out[m] for m in SELF_TIME), traced_wall_s)
    return out
