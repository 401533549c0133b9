"""The engine pipeline, end-to-end analysis of one graph, and the exhaustive sweep.

`run_engine` is the one path from a graph to its growth: presentation,
completion, avoidance automaton, growth class.  Nothing here takes a
value of t: the rules and everything computed from them are the same for
every t, so one analysis serves every t, and the reports hold no label of
it.  A full analysis runs the graph-theoretic classifier (always) and the
engine (unless asked not to), then reconciles the two: any
coarse-growth mismatch, violated component-count condition, or truncated
completion raises a discrepancy flag that drives the CLI exit code.  The
sweep applies the same reconciliation to every isomorphism class up to a
leaf bound (at most `graphs.MAX_LEAVES`), and runs the engine once per
pruned representative.  Enumeration returns least relabellings, and
pruning one keeps it least, so the pruned graph is its own class key and
the sweep computes no canonical form.
"""

from __future__ import annotations

import time
from functools import cached_property
from itertools import accumulate
from typing import NamedTuple, Optional

from .automaton import AvoidanceAutomaton, build_automaton, check_max_degree, hilbert_prefix
from .classifier import TheoremVerdict, check_nu_conditions, classify_by_theorem
# canonical_form, canonical_representative: not called here, but tracing tools wrap these names.
from .graphs import (  # noqa: F401
    MAX_LEAVES,
    TwoColoredStar,
    canonical_form,
    canonical_representative,
    enumerate_graphs,
    prune_isolated_leaves,
)
from .groebner import GroebnerResult, buchberger, check_degree_bound
from .growth import (EXPONENTIAL, FINITE, POLYNOMIAL, FreePairCertificate, GrowthClass, classify_growth,
                     search_free_pair)
from .presentation import Presentation, build_presentation, max_relation_degree

__all__ = ["AnalysisReport", "EngineRun", "SweepResult", "analyze", "cross_validate", "run_engine"]

DEFAULT_HILBERT_DEGREE = 12


class EngineRun:
    """Presentation and completion of one graph; automaton and growth are built on first read."""

    def __init__(self, presentation: Presentation, groebner: GroebnerResult):
        self.presentation = presentation
        self.groebner = groebner

    @cached_property
    def automaton(self) -> AvoidanceAutomaton:
        return build_automaton(self.groebner.obstructions, self.presentation.alphabet_size())

    @cached_property
    def growth(self) -> GrowthClass:
        return classify_growth(self.automaton, complete=self.groebner.complete)


def run_engine(g: TwoColoredStar, degree_bound: Optional[int] = None) -> EngineRun:
    """Relations of g completed into a (possibly truncated) Groebner basis.

    Every stage is looked up in this module's namespace at call time, so a
    wrapper installed on ``tlstar.report.buchberger`` (or any other stage)
    sees every engine run.
    """
    pres = build_presentation(g)
    return EngineRun(pres, buchberger(pres, degree_bound))


def _disagreements(verdict: TheoremVerdict, growth: GrowthClass) -> list[str]:
    """Ways the engine's growth contradicts the structural verdict; empty when they agree."""
    if growth.coarse != verdict.coarse_growth:
        return [f"engine growth {growth.coarse} disagrees with structural verdict {verdict.coarse}"]
    if growth.coarse == POLYNOMIAL and growth.gk_degree != 1:
        return [f"structural verdict asserts linear growth but engine found gk degree {growth.gk_degree}"]
    return []


class AnalysisReport(NamedTuple):
    """The structural verdict of one graph, and the engine's results when it ran."""

    graph: TwoColoredStar
    pruned: TwoColoredStar
    removed_leaves: tuple[int, ...]
    method: str
    theorem: TheoremVerdict
    nu_violations: list[str]
    groebner: Optional[GroebnerResult]
    automaton: Optional[AvoidanceAutomaton]
    hilbert: Optional[list[int]]
    growth: Optional[GrowthClass]
    free_pair: Optional[FreePairCertificate]
    discrepancies: list[str]
    timings: dict

    @property
    def discrepancy(self) -> bool:
        return bool(self.discrepancies)

    def to_json_dict(self, include_timings: bool = False) -> dict:
        out = {
            "graph": self.graph.to_json_dict(),
            "pruned": self.pruned.to_json_dict(),
            "removed_leaves": list(self.removed_leaves),
            "nu": self.theorem.nu,
            "method": self.method,
            "theorem": self.theorem.to_json_dict(),
            "nu_violations": list(self.nu_violations),
            "groebner": None if self.groebner is None else self.groebner.to_json_dict(),
            "hilbert": None
            if self.hilbert is None
            else {"prefix": list(self.hilbert), "cumulative": list(accumulate(self.hilbert))},
            "growth": None if self.growth is None else self.growth.to_json_dict(),
            "free_pair": None if self.free_pair is None else self.free_pair.to_json_dict(),
            "discrepancies": list(self.discrepancies),
            "discrepancy": self.discrepancy,
        }
        if include_timings:
            out["timings"] = dict(self.timings)
        return out


def analyze(
    g: TwoColoredStar,
    method: str = "both",
    degree_bound: Optional[int] = None,
    max_degree: int = DEFAULT_HILBERT_DEGREE,
) -> AnalysisReport:
    """Run the requested classifiers on g and reconcile their verdicts."""
    if method not in ("both", "theorem"):
        raise ValueError(f"unknown method {method!r}")
    check_max_degree(max_degree)
    if method == "theorem":
        # The engine checks the bound before completing; without it, check it here.
        check_degree_bound(g.n, max_relation_degree(g.n), degree_bound)
    t_total = time.perf_counter()
    pruned, removed = prune_isolated_leaves(g)
    verdict = classify_by_theorem(g)
    nu_violations = check_nu_conditions(g, verdict)
    discrepancies, timings = list(nu_violations), {}
    result = aut = hilbert = growth = free_pair = None
    if method == "both":
        t0 = time.perf_counter()
        run = run_engine(g, degree_bound)
        result = run.groebner
        timings["groebner_s"] = time.perf_counter() - t0

        t0 = time.perf_counter()
        aut = run.automaton
        hilbert = hilbert_prefix(aut, max_degree)
        growth = run.growth
        if growth.coarse == EXPONENTIAL and result.complete:
            free_pair = search_free_pair(aut)
        timings["automaton_s"] = time.perf_counter() - t0

        if not result.complete:
            discrepancies.append(
                f"completion truncated at degree {result.degree_bound}; engine growth is an upper bound only"
            )
        discrepancies += _disagreements(verdict, growth)
    timings["total_s"] = time.perf_counter() - t_total
    return AnalysisReport(
        graph=g, pruned=pruned, removed_leaves=removed, method=method, theorem=verdict,
        nu_violations=nu_violations, groebner=result, automaton=aut, hilbert=hilbert, growth=growth,
        free_pair=free_pair, discrepancies=discrepancies, timings=timings,
    )


class SweepRow(NamedTuple):
    """One class of the sweep: its structural verdict and its pruned class's engine growth."""

    graph: TwoColoredStar
    pruned: TwoColoredStar
    theorem: TheoremVerdict
    engine_growth: GrowthClass
    nu_violations: list[str]

    @property
    def complete(self) -> bool:
        return not self.engine_growth.upper_bound_only

    @property
    def agree(self) -> bool:
        return not (self.nu_violations or _disagreements(self.theorem, self.engine_growth))

    def to_json_dict(self) -> dict:
        return {
            "graph": self.graph.to_json_dict(),
            "text": str(self.graph),
            "pruned": str(self.pruned),
            "nu": self.theorem.nu,
            "theorem": {"coarse": self.theorem.coarse, "branch": self.theorem.branch},
            "engine": {
                "coarse": self.engine_growth.coarse,
                "gk_degree": self.engine_growth.gk_degree,
                "dimension": self.engine_growth.dimension,
                "complete": self.complete,
            },
            "witness": None
            if self.theorem.witness is None
            else str(self.theorem.witness_pattern),
            "agree": self.agree,
        }


class SweepResult(NamedTuple):
    """Every row of a sweep up to max_leaves, and how many engine runs served them."""

    max_leaves: int
    rows: list[SweepRow]
    engine_runs: int

    @property
    def all_agree(self) -> bool:
        return all(row.agree for row in self.rows)

    @property
    def all_complete(self) -> bool:
        return all(row.complete for row in self.rows)

    def agreement_matrix(self) -> dict:
        labels = (FINITE, POLYNOMIAL, EXPONENTIAL)
        matrix = {a: {b: 0 for b in labels} for a in labels}
        for row in self.rows:
            matrix[row.theorem.coarse_growth][row.engine_growth.coarse] += 1
        return matrix

    def disagreements(self) -> list[SweepRow]:
        return [row for row in self.rows if not row.agree]

    def to_json_dict(self) -> dict:
        return {
            "max_leaves": self.max_leaves,
            "class_count": len(self.rows),
            "engine_runs": self.engine_runs,
            "all_agree": self.all_agree,
            "all_complete": self.all_complete,
            "agreement_matrix": self.agreement_matrix(),
            "rows": [row.to_json_dict() for row in self.rows],
        }


def cross_validate(max_leaves: int) -> SweepResult:
    """Compare structural and engine growth on every class with n <= max_leaves.

    Engine results are computed once per isomorphism class of the pruned
    graph (growth is invariant under pruning and relabelling, which the
    test suite checks separately) and reused across rows.  A representative
    is the least relabelling of its class, so it covers leaves 1..k and
    pruning it gives the least relabelling of the pruned class: the pruned
    graph itself keys the cache.  Only the growth class is kept per class
    (its `upper_bound_only` flag tells whether completion finished), so
    memory stays flat over the sweep.  Every completion runs at the default
    degree bound 2n + 8.  Raises ValueError unless 1 <= max_leaves <=
    MAX_LEAVES, before any stage runs.
    """
    if max_leaves < 1:
        raise ValueError(f"max leaves must be at least 1, got {max_leaves}")
    if max_leaves > MAX_LEAVES:
        raise ValueError(f"enumeration of classes is available up to {MAX_LEAVES} leaves")
    engine_cache: dict = {}
    rows: list[SweepRow] = []
    for n in range(1, max_leaves + 1):
        for g in enumerate_graphs(n):
            pruned, _ = prune_isolated_leaves(g)
            growth = engine_cache.get(pruned)
            if growth is None:
                growth = engine_cache[pruned] = run_engine(pruned).growth
            verdict = classify_by_theorem(g)
            rows.append(SweepRow(g, pruned, verdict, growth, check_nu_conditions(g, verdict)))
    return SweepResult(max_leaves, rows, len(engine_cache))
