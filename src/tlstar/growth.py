"""Growth classification of the normal-word language and freeness certificates.

The avoidance automaton determines the growth of the algebra.  Every state
is a proper prefix of an obstruction, so the start state reaches it by
spelling it, and over an antichain that prefix contains no obstruction, so
the word it spells is normal: every state is live, and the graph is just
the non-dead transitions.  Each strongly connected component has one
profile, the most edges any member has inside it.  All profiles 0 means no
cycles and finitely many normal words; profiles at most 1 mean disjoint
simple cycles and polynomial growth, with degree equal to the largest
number of cycle components met along a path; a profile of 2 or more marks
a *branching state*, and the growth is exponential.  That state also gives
the certificate: its first two internal edges start two cycles through it,
whose labels begin with different letters, so every concatenation of the
two labels is normal and they generate a free subalgebra on two
generators.  Every exponential verdict therefore carries a free pair.
The free-pair check searches the windows as `str` words, in the encoding
that `ncpoly.encode_word` owns, so letters must lie below 0x110000.
"""

from __future__ import annotations

import itertools
from typing import NamedTuple, Optional

from .automaton import AvoidanceAutomaton, Edges
from .ncpoly import Word, decode_word, encode_word, format_word, word_key

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


class GrowthClass(NamedTuple):
    """Finite(dimension) | Polynomial(gk_degree) | Exponential, with a caveat flag."""

    coarse: str
    dimension: Optional[int] = None  # unital count of normal words, finite case only
    gk_degree: Optional[int] = None  # polynomial case only, >= 1
    upper_bound_only: bool = False

    def to_json_dict(self) -> dict:
        return {
            "coarse": self.coarse,
            "dimension": self.dimension,
            "dimension_nonunital": None if self.dimension is None else self.dimension - 1,
            "gk_degree": self.gk_degree,
            "upper_bound_only": self.upper_bound_only,
        }


class FreePairCertificate(NamedTuple):
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

    if max(profiles) >= 2:
        return GrowthClass(EXPONENTIAL, upper_bound_only=not complete)

    if not any(profiles):
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
        best.append((profiles[k] > 0) + max(reached, default=0))
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
    blocks = (encode_word(q1), encode_word(q2))
    obs_sorted = [(o, encode_word(o)) for o in sorted(obs, key=word_key)]
    for choice in itertools.product((0, 1), repeat=window):
        word = "".join(blocks[b] for b in choice)
        for o, encoded in obs_sorted:
            pos = word.find(encoded)
            if pos >= 0:
                return choice, decode_word(word), pos, o
    return None


def verify_free_pair(q1: Word, q2: Word, obs: frozenset[Word]) -> bool:
    """True iff every concatenation of blocks from {q1, q2} avoids all obstructions."""
    return find_free_pair_violation(q1, q2, obs) is None


def search_free_pair(aut: AvoidanceAutomaton) -> Optional[FreePairCertificate]:
    """The free pair of the first branching state, or None when there is none.

    The first component (in sorted order) with profile 2 or more holds a
    member with two internal edges; the first such member s and its first
    two internal edges a1 -> t1, a2 -> t2 give the blocks a1 + (shortest
    path t1 -> s) and a2 + (shortest path t2 -> s).  Both are cycles at s,
    so every concatenation is normal, and they start with different
    letters, so they are free.  None exactly when the growth is not
    exponential.  Raises RuntimeError if `verify_free_pair` refutes the
    pair: the automaton is then wrong.
    """
    edges, comps, profiles = aut.structure
    comp = min((c for c, profile in zip(comps, profiles) if profile >= 2), default=None)
    if comp is None:
        return None
    members = set(comp)
    internal = {s: [(letter, t) for letter, t in edges[s] if t in members] for s in comp}
    s = next(s for s in comp if len(internal[s]) >= 2)
    (a1, t1), (a2, t2) = internal[s][:2]
    q1 = (a1,) + _shortest_path_label(t1, s, members, edges)
    q2 = (a2,) + _shortest_path_label(t2, s, members, edges)
    if not verify_free_pair(q1, q2, aut.obstructions):
        raise RuntimeError(f"the cycles {format_word(q1)} and {format_word(q2)} at automaton state {s} "
                           "are not a free pair: the automaton disagrees with its obstructions")
    return FreePairCertificate(q1=q1, q2=q2, window_bound=free_pair_window_bound(q1, q2, aut.obstructions))


def _shortest_path_label(src: int, dst: int, members: set[int], edges: Edges) -> Word:
    """Lexicographically least shortest path label from src to dst inside members.

    members is strongly connected, so the path exists.
    """
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
