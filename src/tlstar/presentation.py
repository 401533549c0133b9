"""Defining relations of the projection algebra attached to a star graph.

Generators are idempotents p_0..p_n.  The center p_0 is linked to every
leaf projection by p_i p_0 p_i = t p_i and p_0 p_i p_0 = t p_0, where t is
the square of the deformation parameter.  Dashed leaf pairs commute; all
other leaf pairs multiply to zero in both orders.

Every relation is a rewriting rule read straight off the graph: ``lead ->
sign * t**exp * word`` or ``lead -> 0``.  The rules carry no value of t:
they are the same for every t, and so is everything computed from them.
`render_rules` is the one place a value of t enters: it turns rules into
polynomials over Q(t), or over Q at a rational t, and
`Presentation.relations` renders over Q(t) on first read.
"""

from __future__ import annotations

from functools import cached_property
from typing import Iterable, Optional

from .graphs import TwoColoredStar
from .ncpoly import NcPolynomial, Word
from .scalars import RationalFunction

__all__ = ["Presentation", "build_presentation", "max_relation_degree", "render_rules"]

# (lead, rhs): rhs (sign, exp, word) for lead -> sign * t**exp * word, None for lead -> 0.
Rule = tuple[Word, Optional[tuple[int, int, Word]]]


def render_rules(rules: Iterable[Rule], t) -> tuple[NcPolynomial, ...]:
    """Monic polynomials lead - sign * t**exp * word (or lead) in t's scalar domain.

    t is ``RationalFunction.t()`` for Q(t), or a `Fraction` for Q at that value.
    """
    one = t / t  # unit of the active scalar domain; t is never zero here
    out = []
    for lead, rhs in rules:
        if rhs is None:
            out.append(NcPolynomial({lead: one}))
        else:
            sign, exp, word = rhs
            out.append(NcPolynomial({lead: one, word: -sign * t ** exp}))
    return tuple(out)


class Presentation:
    """Relations of the algebra as rules, the same for every value of t."""

    def __init__(self, n: int, rules: tuple[Rule, ...]):
        self.n = n
        self.rules = rules

    @cached_property
    def relations(self) -> tuple[NcPolynomial, ...]:
        """The rules as polynomials over Q(t), leading term first."""
        return render_rules(self.rules, RationalFunction.t())

    def alphabet_size(self) -> int:
        return self.n + 1

    def format(self) -> str:
        return "\n".join(rel.format() + " = 0" for rel in self.relations)


def build_presentation(g: TwoColoredStar) -> Presentation:
    """Relations for the star graph g.

    Per unordered leaf pair, exactly one of a commutation relation (dashed)
    or two zero-product relations (not dashed) is emitted, so the relation
    count is (n+1) + 2n + #dashed + 2*(#pairs - #dashed).
    """
    n = g.n
    leaves = range(1, n + 1)
    rules: list[Rule] = [((k, k), (1, 0, (k,))) for k in range(n + 1)]
    rules += [((i, 0, i), (1, 1, (i,))) for i in leaves]
    rules += [((0, i, 0), (1, 1, (0,))) for i in leaves]
    for i in leaves:
        for j in range(i + 1, n + 1):
            if g.is_dashed(i, j):
                # Oriented so the larger-index-first word leads.
                rules.append(((j, i), (1, 0, (i, j))))
            else:
                rules += [((i, j), None), ((j, i), None)]
    return Presentation(n=n, rules=tuple(rules))


def max_relation_degree(n: int) -> int:
    """Largest relation degree of `build_presentation` of any graph on n leaves.

    The words p_i p_0 p_i and p_0 p_i p_0 have degree 3 once a leaf
    exists; with none, p_0 p_0 = p_0 has degree 2.
    """
    return 3 if n >= 1 else 2
