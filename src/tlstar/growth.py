"""Growth classification of the normal-word language and freeness certificates.

The avoidance automaton determines the growth of the algebra.  Every state
is a proper prefix of an obstruction, so the start state reaches it by
spelling it, and over an antichain that prefix contains no obstruction, so
the word it spells is normal: every state is live, and the graph is just
the non-dead transitions.  No cycles means finitely many normal words;
cycles confined to disjoint simple loops give polynomial growth with
degree equal to the largest number of loop components met along a path;
any strongly connected component richer than a single simple cycle yields
exponentially many words.  In the exponential case two distinct cycles
through a common state produce a pair of words whose block concatenations
are all normal, certifying a free subalgebra on two generators.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Optional

from .automaton import AvoidanceAutomaton, Edges
from .ncpoly import Word, find_factor, word_key

__all__ = [
    "GrowthClass",
    "FreePairCertificate",
    "classify_growth",
    "verify_free_pair",
    "find_free_pair_violation",
    "free_pair_window_bound",
    "search_free_pair",
]

FINITE = "finite"
POLYNOMIAL = "polynomial"
EXPONENTIAL = "exponential"


@dataclass(frozen=True)
class GrowthClass:
    """Finite(dimension) | Polynomial(gk_degree) | Exponential, with a caveat flag."""

    kind: str
    dimension: Optional[int] = None  # unital count of normal words, finite case only
    gk_degree: Optional[int] = None  # polynomial case only, >= 1
    upper_bound_only: bool = False

    @property
    def coarse(self) -> str:
        return self.kind

    def to_json_dict(self) -> dict:
        return {
            "coarse": self.kind,
            "dimension": self.dimension,
            "dimension_nonunital": None if self.dimension is None else self.dimension - 1,
            "gk_degree": self.gk_degree,
            "upper_bound_only": self.upper_bound_only,
        }


@dataclass(frozen=True)
class FreePairCertificate:
    """Two block words all of whose concatenations are normal words."""

    q1: Word
    q2: Word
    window_bound: int

    def to_json_dict(self) -> dict:
        return {"q1": list(self.q1), "q2": list(self.q2), "window_bound": self.window_bound}


def classify_growth(aut: AvoidanceAutomaton, complete: bool = True) -> GrowthClass:
    """Structural trichotomy from the cycle structure of the automaton.

    With an incomplete obstruction set the normal-word language is only an
    upper approximation, so the verdict is tagged rather than authoritative.
    """
    edges, comps, profiles = aut.structure

    if any(has_cycle and not simple for has_cycle, simple in profiles):
        return GrowthClass(EXPONENTIAL, upper_bound_only=not complete)

    if not any(has_cycle for has_cycle, _ in profiles):
        # Acyclic, so every component is one state and comes after all it
        # reaches: count the words spelt from each state, its successors first.
        words = [0] * len(edges)
        for (s,) in comps:
            words[s] = 1 + sum(words[t] for _, t in edges[s])
        return GrowthClass(FINITE, dimension=words[aut.start], upper_bound_only=not complete)

    # gk degree = most cycle components on a path from start.  Components
    # come after everything they reach, so each successor is already scored.
    comp_of = {s: k for k, comp in enumerate(comps) for s in comp}
    best: list[int] = []
    for k, comp in enumerate(comps):
        reached = (best[comp_of[t]] for s in comp for _, t in edges[s] if comp_of[t] != k)
        best.append(profiles[k][0] + max(reached, default=0))
    return GrowthClass(POLYNOMIAL, gk_degree=best[comp_of[aut.start]], upper_bound_only=not complete)


def free_pair_window_bound(q1: Word, q2: Word, obs: frozenset[Word]) -> int:
    """Number of consecutive blocks that any obstruction occurrence can span."""
    max_len = max((len(w) for w in obs), default=0)
    if max_len == 0:
        return 1
    min_block = min(len(q1), len(q2))
    return -(-max_len // min_block) + 1  # ceil + 1


def find_free_pair_violation(q1: Word, q2: Word, obs: frozenset[Word]):
    """First block sequence whose concatenation contains an obstruction.

    Returns (block_sequence, concatenation, position, obstruction) or None.
    Checking every sequence of window_bound consecutive blocks is exhaustive:
    an obstruction of length L spans at most ceil(L / min block length) + 1
    blocks, so any occurrence in an arbitrary concatenation already shows up
    in one of these windows.
    """
    q1, q2 = tuple(q1), tuple(q2)
    if not q1 or not q2:
        raise ValueError("free-pair blocks must be nonempty")
    if q1 == q2:
        raise ValueError("free-pair blocks must be distinct")
    window = free_pair_window_bound(q1, q2, obs)
    blocks = (q1, q2)
    obs_sorted = sorted(obs, key=word_key)
    for choice in itertools.product((0, 1), repeat=window):
        word = tuple(x for b in choice for x in blocks[b])
        for o in obs_sorted:
            pos = find_factor(word, o)
            if pos >= 0:
                return choice, word, pos, o
    return None


def verify_free_pair(q1: Word, q2: Word, obs: frozenset[Word]) -> bool:
    """True iff every concatenation of blocks from {q1, q2} avoids all obstructions."""
    return find_free_pair_violation(q1, q2, obs) is None


def search_free_pair(aut: AvoidanceAutomaton, max_block_len: int) -> Optional[FreePairCertificate]:
    """Look for two short cycles through a shared state with distinct first letters.

    Distinct first letters force the two block words to generate a free pair
    of words; both being cycle labels at the same live state makes every
    block concatenation normal.  Returns the first certificate found within
    the block-length bound, or None (which proves nothing by itself).
    """
    if max_block_len < 2:
        raise ValueError("max_block_len must be at least 2")
    edges, comps, profiles = aut.structure
    for comp, (has_cycle, simple) in sorted(zip(comps, profiles)):
        if not has_cycle or simple:
            continue
        members = set(comp)
        for s in comp:
            internal = [(letter, t) for letter, t in edges[s] if t in members]
            if len(internal) < 2:
                continue
            for (a1, t1), (a2, t2) in itertools.combinations(internal, 2):
                w1 = _shortest_path_label(t1, s, members, edges)
                w2 = _shortest_path_label(t2, s, members, edges)
                if w1 is None or w2 is None:
                    continue
                q1 = (a1,) + w1
                q2 = (a2,) + w2
                if max(len(q1), len(q2)) > max_block_len:
                    continue
                if verify_free_pair(q1, q2, aut.obstructions):
                    bound = free_pair_window_bound(q1, q2, aut.obstructions)
                    return FreePairCertificate(q1=q1, q2=q2, window_bound=bound)
    return None


def _shortest_path_label(src: int, dst: int, members: set[int], edges: Edges) -> Optional[Word]:
    """Lexicographically least shortest path label from src to dst inside members."""
    if src == dst:
        return ()
    frontier = [(src, ())]
    seen = {src}
    while frontier:
        nxt = []
        for state, label in frontier:
            for letter, t in edges[state]:
                if t not in members or t in seen:
                    continue
                if t == dst:
                    return label + (letter,)
                seen.add(t)
                nxt.append((t, label + (letter,)))
        frontier = nxt
    return None
