"""Defining relations of the projection algebra attached to a star graph.

Generators are idempotents p_0..p_n.  The center p_0 is linked to every
leaf projection by p_i p_0 p_i = t p_i and p_0 p_i p_0 = t p_0, where t is
the square of the deformation parameter.  Dashed leaf pairs commute; all
other leaf pairs multiply to zero in both orders.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .graphs import TwoColoredStar
from .ncpoly import NcPolynomial
from .scalars import RationalFunction

__all__ = ["Presentation", "build_presentation", "parameter_label"]

SYMBOLIC = "symbolic"


@dataclass(frozen=True)
class Presentation:
    """Relations of the algebra, leading term first, over a fixed scalar domain."""

    n: int
    relations: tuple[NcPolynomial, ...]
    t: object  # RationalFunction in symbolic mode, Fraction otherwise
    mode: str  # "symbolic" or "t=<p/q>"

    @property
    def symbolic(self) -> bool:
        return self.mode == SYMBOLIC

    def alphabet_size(self) -> int:
        return self.n + 1

    def format(self) -> str:
        return "\n".join(rel.format() + " = 0" for rel in self.relations)


def _parameter(mode) -> tuple[object, str]:
    if mode is None or mode == SYMBOLIC:
        return RationalFunction.t(), SYMBOLIC
    try:
        value = Fraction(mode)
    except ZeroDivisionError:
        raise ValueError(f"specialised parameter {mode} has a zero denominator") from None
    if not (0 < value < 1):
        raise ValueError(f"specialised parameter must lie strictly between 0 and 1, got {value}")
    return value, f"t={value}"


def parameter_label(mode=SYMBOLIC) -> str:
    """Checked label of a parameter mode: "symbolic" or "t=p/q" in lowest terms.

    Raises ValueError for anything `build_presentation` would reject.
    """
    return _parameter(mode)[1]


def build_presentation(g: TwoColoredStar, mode=SYMBOLIC) -> Presentation:
    """Relations for the star graph g.

    Per unordered leaf pair, exactly one of a commutation relation (dashed)
    or two zero-product relations (not dashed) is emitted, so the relation
    count is (n+1) + 2n + #dashed + 2*(#pairs - #dashed).
    """
    t, mode_label = _parameter(mode)
    one = t / t  # unit of the active scalar domain; t is never zero here
    n = g.n
    rels: list[NcPolynomial] = []
    for k in range(n + 1):
        rels.append(NcPolynomial({(k, k): one, (k,): -one}))
    for i in range(1, n + 1):
        rels.append(NcPolynomial({(i, 0, i): one, (i,): -t}))
    for i in range(1, n + 1):
        rels.append(NcPolynomial({(0, i, 0): one, (0,): -t}))
    for i in range(1, n + 1):
        for j in range(i + 1, n + 1):
            if g.is_dashed(i, j):
                # Oriented so the larger-index-first word leads.
                rels.append(NcPolynomial({(j, i): one, (i, j): -one}))
            else:
                rels.append(NcPolynomial({(i, j): one}))
                rels.append(NcPolynomial({(j, i): one}))
    return Presentation(n=n, relations=tuple(rels), t=t, mode=mode_label)
