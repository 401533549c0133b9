"""Deterministic automaton recognising words that avoid a set of factors.

States are the proper prefixes of the obstruction words, linked by
failure-function transitions in the style of Aho-Corasick; a transition
dies exactly when the extended word acquires an obstruction as a suffix.
Paths from the start state through live states spell exactly the normal
words, so counting fixed-length paths gives the Hilbert function of the
monomial quotient.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Sequence

from .ncpoly import Word, word_contains, word_key

__all__ = ["AvoidanceAutomaton", "build_automaton", "hilbert_prefix", "is_normal_word"]

DEAD = -1


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


def is_normal_word(word: Word, obs: Iterable[Word]) -> bool:
    """Direct factor check, independent of any automaton construction."""
    return not any(word_contains(word, o) for o in obs)


def build_automaton(obs: Iterable[Word], alphabet_size: int) -> AvoidanceAutomaton:
    """Build the factor-avoidance automaton for an antichain of obstructions."""
    obs_set = frozenset(tuple(w) for w in obs)
    for w in obs_set:
        if not w:
            raise ValueError("the empty word cannot be an obstruction")
        if any(x < 0 or x >= alphabet_size for x in w):
            raise ValueError(f"obstruction {w} uses letters outside the alphabet")
        for u in obs_set:
            if u != w and word_contains(w, u):
                raise ValueError(f"obstruction set is not an antichain: {u} divides {w}")

    prefixes = {()}
    for w in obs_set:
        for k in range(1, len(w)):
            prefixes.add(w[:k])
    states = tuple(sorted(prefixes, key=word_key))
    state_id = {p: i for i, p in enumerate(states)}

    transitions = []
    for p in states:
        row = []
        for letter in range(alphabet_size):
            w = p + (letter,)
            nxt = None
            # Longest suffix of w that is an obstruction (dead) or a proper
            # prefix of one; under the antichain hypothesis the first hit
            # found when scanning from the longest suffix down is decisive.
            for k in range(len(w) + 1):
                s = w[k:]
                if s in obs_set:
                    nxt = DEAD
                    break
                hit = state_id.get(s)
                if hit is not None:
                    nxt = hit
                    break
            row.append(nxt if nxt is not None else 0)
        transitions.append(tuple(row))
    return AvoidanceAutomaton(
        alphabet_size=alphabet_size,
        states=states,
        transitions=tuple(transitions),
        obstructions=obs_set,
    )


def hilbert_prefix(aut: AvoidanceAutomaton, max_degree: int) -> list[int]:
    """Entry N counts the normal words of length N (entry 0 is always 1)."""
    if max_degree < 0:
        raise ValueError("max_degree must be nonnegative")
    counts = [0] * len(aut.states)
    counts[aut.start] = 1
    out = [1]
    for _ in range(max_degree):
        nxt = [0] * len(aut.states)
        for state, c in enumerate(counts):
            if not c:
                continue
            for target in aut.transitions[state]:
                if target != DEAD:
                    nxt[target] += c
        counts = nxt
        out.append(sum(counts))
    return out
