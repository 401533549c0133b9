"""Pure graph-theoretic growth classification, independent of any rewriting.

After pruning leaves that touch no dashed edge, the trichotomy is decided
by the shape of the dashed graph alone: the all-from-one-leaf star pattern
and the triangle on three leaves are the finite-dimensional cases; every
other configuration on exactly four covered leaves has linear growth; and
everything else is exponential, witnessed by an embedded copy of one of
two minimal exponential configurations, P3 + K2 and 3K2.  The number of
dashed components gives independent necessary conditions that every
verdict must satisfy.

Two patterns suffice for every n.  Lemma: a graph with at least 5 covered
leaves that is not a star contains P3 + K2 or 3K2.  Proof: take a maximum
matching M.  If |M| >= 3, the graph contains 3K2.  If |M| = 1, every edge
meets the one edge of M, so the graph is a star or a triangle.  If
|M| = 2, say ab and cd, a fifth covered leaf e has an edge, which meets
{a, b, c, d} since M is maximum; say e-a.  Then e-a-b and c-d are a
P3 + K2.  The exponential branch is exactly a pruned graph on at least 5
leaves that is not a star, so the witness search never fails; the
`RuntimeError` it raises if it did is the check that the list below and
the lemma agree.
"""

from __future__ import annotations

from typing import NamedTuple, Optional

from .graphs import (
    Embedding,
    TwoColoredStar,
    contains_subgraph,
    dashed_components,
    prune_isolated_leaves,
)

__all__ = [
    "TheoremVerdict",
    "MINIMAL_EXPONENTIAL_GRAPHS",
    "classify_by_theorem",
    "check_nu_conditions",
]

FINITE = "finite"
POLYNOMIAL_LINEAR = "polynomial-linear"
EXPONENTIAL = "exponential"

# The minimal exponential configurations P3 + K2 and 3K2, tried in this order for witnesses.
MINIMAL_EXPONENTIAL_GRAPHS: tuple[TwoColoredStar, ...] = (
    TwoColoredStar(5, [(1, 2), (2, 3), (4, 5)]),
    TwoColoredStar(6, [(1, 6), (2, 3), (4, 5)]),
)


class TheoremVerdict(NamedTuple):
    """Outcome of the graph-theoretic classification."""

    coarse: str  # finite | polynomial-linear | exponential
    branch: str  # (i)-star | (i)-triangle | (i)-empty | (ii) | (iii)
    nu: int
    witness_pattern: Optional[TwoColoredStar] = None
    witness: Optional[Embedding] = None  # into the original (unpruned) leaves

    @property
    def coarse_growth(self) -> str:
        """Projection onto the engine's coarse labels."""
        return "polynomial" if self.coarse == POLYNOMIAL_LINEAR else self.coarse

    def to_json_dict(self) -> dict:
        return {
            "coarse": self.coarse,
            "branch": self.branch,
            "nu": self.nu,
            "witness": None
            if self.witness is None
            else {
                "pattern": self.witness_pattern.to_json_dict(),
                "map": self.witness.to_json_dict(),
            },
        }


def _is_star_pattern(g: TwoColoredStar) -> bool:
    """One leaf dashed-adjacent to all others and no other dashed edges."""
    if g.n < 2 or len(g.dashed) != g.n - 1:
        return False
    return any(len(nbrs) == g.n - 1 for nbrs in g.neighbours.values())


def classify_by_theorem(g: TwoColoredStar) -> TheoremVerdict:
    """Classify growth from the pruned dashed graph alone.

    Exponential verdicts always carry a verified embedding of one of the
    two minimal exponential configurations, which the lemma above
    guarantees; failing to find one would falsify the classification and
    raises rather than being swallowed.
    """
    pruned, _ = prune_isolated_leaves(g)
    _, nu = dashed_components(pruned)

    if pruned.n == 0:
        return TheoremVerdict(FINITE, "(i)-empty", nu)
    if _is_star_pattern(pruned):
        return TheoremVerdict(FINITE, "(i)-star", nu)
    if pruned.n == 3 and len(pruned.dashed) == 3:
        return TheoremVerdict(FINITE, "(i)-triangle", nu)
    if pruned.n == 4:
        return TheoremVerdict(POLYNOMIAL_LINEAR, "(ii)", nu)

    # Witness search runs on the original graph: an embedding into the
    # pruned graph is an embedding into g after relabelling, and original
    # labels are the useful ones to report.
    for pattern in MINIMAL_EXPONENTIAL_GRAPHS:
        emb = contains_subgraph(g, pattern)
        if emb is not None:
            return TheoremVerdict(EXPONENTIAL, "(iii)", nu, pattern, emb)
    raise RuntimeError(
        f"classification inconsistency: {g} fell into the exponential branch "
        "but embeds none of the minimal exponential configurations"
    )


def check_nu_conditions(g: TwoColoredStar, verdict: TheoremVerdict) -> list[str]:
    """Necessary conditions linking the verdict to the dashed component count.

    Violations are returned as data; any entry is a falsification signal.
    The conditions presuppose at least one dashed edge, so an empty pruned
    graph (nu = 0, finite) vacuously satisfies them.
    """
    pruned, _ = prune_isolated_leaves(g)
    _, nu = dashed_components(pruned)
    violations = []
    if pruned.n > 0 and verdict.coarse == FINITE and nu != 1:
        violations.append(f"finite-dimensional verdict requires nu = 1, got nu = {nu}")
    if verdict.coarse == POLYNOMIAL_LINEAR and nu > 2:
        violations.append(f"polynomial growth requires nu <= 2, got nu = {nu}")
    if nu >= 3 and verdict.coarse != EXPONENTIAL:
        violations.append(f"nu = {nu} >= 3 forces exponential growth, got {verdict.coarse}")
    return violations
