"""Deterministic automaton recognising words that avoid a set of factors.

States are the proper prefixes of the obstruction words, built in one
Aho-Corasick pass: each state's row is filled from its own extensions and
from the row of its fallback, its longest proper suffix that is also a
state.  A transition dies exactly when the extended word acquires an
obstruction as a suffix.  The same pass checks that the obstructions form
an antichain.  Paths from the start state spell exactly the normal words,
so counting fixed-length paths gives the Hilbert function of the monomial
quotient.  The strongly connected components of the transition graph, which
every growth verdict is read from, are found once per automaton, on first
read of `AvoidanceAutomaton.structure`.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Iterable

from .ncpoly import Word, word_key

__all__ = ["AvoidanceAutomaton", "build_automaton", "hilbert_prefix"]

DEAD = -1

Edges = list[list[tuple[int, int]]]  # edges[state] -> [(letter, target)], dead targets left out


@dataclass(frozen=True)
class AvoidanceAutomaton:
    """DFA over generators 0..alphabet_size-1; state 0 is the empty prefix."""

    alphabet_size: int
    states: tuple[Word, ...]
    transitions: tuple[tuple[int, ...], ...]  # transitions[state][letter] -> state or DEAD
    obstructions: frozenset[Word]

    @property
    def start(self) -> int:
        return 0

    def walk(self, word: Iterable[int]) -> int:
        state = 0
        for letter in word:
            state = self.transitions[state][letter]
            if state == DEAD:
                return DEAD
        return state

    def accepts(self, word: Iterable[int]) -> bool:
        return self.walk(word) != DEAD

    def live_state_count(self) -> int:
        return len(self.states)

    @cached_property
    def structure(self) -> tuple[Edges, list[list[int]], list[int]]:
        """Edges, strongly connected components (sinks first) and their profiles (`_component_profile`).

        Built on first read, once per automaton, for every growth question
        asked of it.
        """
        edges = [[(letter, t) for letter, t in enumerate(row) if t != DEAD] for row in self.transitions]
        comps = _strongly_connected_components(edges)
        return edges, comps, [_component_profile(comp, edges) for comp in comps]


def build_automaton(obs: Iterable[Word], alphabet_size: int) -> AvoidanceAutomaton:
    """Build the factor-avoidance automaton for an antichain of obstructions.

    Raises ValueError on the empty word, on letters outside the alphabet,
    and when one obstruction is a factor of another.
    """
    obs_set = frozenset(tuple(w) for w in obs)
    for w in obs_set:
        if not w:
            raise ValueError("the empty word cannot be an obstruction")
        if any(x < 0 or x >= alphabet_size for x in w):
            raise ValueError(f"obstruction {w} uses letters outside the alphabet")

    prefixes = {()}
    for w in obs_set:
        for k in range(1, len(w)):
            prefixes.add(w[:k])
    states = tuple(sorted(prefixes, key=word_key))
    state_id = {p: i for i, p in enumerate(states)}

    # States come shortest first, so the rows of a state's fallback and of
    # its parent's fallback (whose row gives the fallback) are built already.
    transitions: list[tuple[int, ...]] = []
    fallback: list[int] = []
    for p in states:
        fb = 0 if len(p) <= 1 else transitions[fallback[state_id[p[:-1]]]][p[-1]]
        if fb == DEAD or p in obs_set:
            raise ValueError(f"obstruction set is not an antichain: {p} is a proper prefix of "
                             "one obstruction and contains another")
        fallback.append(fb)
        fb_row = transitions[fb] if p else (0,) * alphabet_size
        row = []
        for a in range(alphabet_size):
            w = p + (a,)
            if w not in obs_set:
                row.append(state_id.get(w, fb_row[a]))
            elif fb_row[a] == DEAD:
                raise ValueError(f"obstruction set is not an antichain: {w} ends in another obstruction")
            else:
                row.append(DEAD)
        transitions.append(tuple(row))
    return AvoidanceAutomaton(
        alphabet_size=alphabet_size,
        states=states,
        transitions=tuple(transitions),
        obstructions=obs_set,
    )


def _strongly_connected_components(edges: Edges) -> list[list[int]]:
    """Iterative Tarjan from state 0 up; every component comes after all it can reach."""
    index: dict[int, int] = {}
    low: dict[int, int] = {}
    on_stack: set[int] = set()
    stack: list[int] = []
    components: list[list[int]] = []

    for root in range(len(edges)):
        if root in index:
            continue
        work = [(root, iter(edges[root]))]
        index[root] = low[root] = len(index)
        stack.append(root)
        on_stack.add(root)
        while work:
            node, it = work[-1]
            advanced = False
            for _, succ in it:
                if succ not in index:
                    index[succ] = low[succ] = len(index)
                    stack.append(succ)
                    on_stack.add(succ)
                    work.append((succ, iter(edges[succ])))
                    advanced = True
                    break
                if succ in on_stack:
                    low[node] = min(low[node], index[succ])
            if advanced:
                continue
            work.pop()
            if work:
                parent = work[-1][0]
                low[parent] = min(low[parent], low[node])
            if low[node] == index[node]:
                comp = []
                while True:
                    member = stack.pop()
                    on_stack.discard(member)
                    comp.append(member)
                    if member == node:
                        break
                components.append(sorted(comp))
    return components


def _component_profile(comp: list[int], edges: Edges) -> int:
    """Most internal edges of any member: edges from it to the component.

    0 means no cycle: one state without a loop.  1 means one simple cycle:
    in a strongly connected set on two or more states every member has an
    internal edge, and with exactly one each they close a single cycle.  2
    or more means a *branching state*, with two cycles through it, and
    exponentially many words spelt inside the component.
    """
    members = set(comp)
    return max(sum(1 for _, t in edges[s] if t in members) for s in comp)


def check_max_degree(max_degree: int) -> None:
    """Raise ValueError for a negative `hilbert_prefix` degree."""
    if max_degree < 0:
        raise ValueError("max_degree must be nonnegative")


def hilbert_prefix(aut: AvoidanceAutomaton, max_degree: int) -> list[int]:
    """Entry N counts the normal words of length N (entry 0 is always 1)."""
    check_max_degree(max_degree)
    counts = [0] * len(aut.states)
    counts[aut.start] = 1
    out = [1]
    for _ in range(max_degree):
        nxt = [0] * len(aut.states)
        for state, c in enumerate(counts):
            if not c:  # skipping zero counts, 12 degrees of the fully dashed 7-leaf star take 1.6 ms, not 2.8
                continue
            for target in aut.transitions[state]:
                if target != DEAD:
                    nxt[target] += c
        counts = nxt
        out.append(sum(counts))
    return out
