"""Growth of projection algebras attached to edge two-colored star graphs.

The package builds the defining relations of the algebra associated with a
star whose leaves may be pairwise linked by dashed (commutation) edges,
completes them into an exact noncommutative Groebner basis over the
rational-function field Q(t), counts normal words with a factor-avoidance
automaton, classifies the growth (finite / polynomial / exponential), and
cross-validates the result against a purely graph-theoretic classification
of the same trichotomy.

Every defining relation is a binomial with coefficient ratio in {+-1, +-t},
so the presentation is a list of (sign, t-exponent) tagged rules read off
the graph, and completion runs on those tags instead of scalars.  The rules
and every result computed from them are the same for every value of t, so
no library function takes one; the command line alone parses --t.  Scalars appear only in rendering, over
Q(t) when `Presentation.relations` or `GroebnerResult.basis` is first read
and over Q by `render_rules` at a rational t, and in `Rewriter`/`reduce`.
`run_engine` is the one pipeline from a graph to its growth.  All results
stay exact.

A result record is a `typing.NamedTuple`, built in one call and compared by
value, unless it builds a part on first read: `TwoColoredStar.neighbours`,
`Presentation.relations`, `GroebnerResult.basis`,
`AvoidanceAutomaton.structure`, and `EngineRun.automaton` and `.growth` are
cached properties, so those five records stay classes.
"""

from .automaton import build_automaton, hilbert_prefix
from .classifier import check_nu_conditions, classify_by_theorem
from .graphs import (
    canonical_form,
    contains_subgraph,
    dashed_components,
    enumerate_graphs,
    is_isomorphic,
    parse_graph,
    prune_isolated_leaves,
)
from .groebner import Rewriter, buchberger, reduce
from .growth import classify_growth, find_free_pair_violation, search_free_pair, verify_free_pair
from .ncpoly import NcPolynomial, format_word
from .presentation import build_presentation, render_rules
from .report import analyze, cross_validate, run_engine
from .scalars import RationalFunction

__version__ = "0.1.0"

# The documented API; result and type classes stay importable from their modules.
__all__ = [
    "NcPolynomial",
    "RationalFunction",
    "Rewriter",
    "analyze",
    "build_automaton",
    "build_presentation",
    "buchberger",
    "canonical_form",
    "check_nu_conditions",
    "classify_by_theorem",
    "classify_growth",
    "contains_subgraph",
    "cross_validate",
    "dashed_components",
    "enumerate_graphs",
    "find_free_pair_violation",
    "format_word",
    "hilbert_prefix",
    "is_isomorphic",
    "parse_graph",
    "prune_isolated_leaves",
    "reduce",
    "render_rules",
    "run_engine",
    "search_free_pair",
    "verify_free_pair",
]
