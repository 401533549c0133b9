"""Edge two-colored star graphs and their combinatorics.

A star has a distinguished center 0 joined to leaves 1..n by solid edges
(implicit, never stored) plus a set of dashed leaf-leaf pairs encoding
commutation relations.  This module provides parsing, dashed-component
structure, pruning of leaves untouched by dashed edges, isomorphism via a
canonical form, subgraph embeddings, and exhaustive enumeration of
configurations up to isomorphism, generated leaf by leaf, for at most
`MAX_LEAVES` leaves.  `TwoColoredStar` is the one place that checks a
dashed pair; `parse_graph` checks only the syntax.  Each graph builds its
neighbour map `TwoColoredStar.neighbours` (every leaf to the frozenset of
leaves dashed to it) once, on first read, and every degree, covered leaf,
component and embedding constraint is read off it.
"""

from __future__ import annotations

import functools
import itertools
import re
import warnings
from typing import Iterable, NamedTuple, Optional

__all__ = [
    "TwoColoredStar",
    "Embedding",
    "CanonicalForm",
    "parse_graph",
    "dashed_components",
    "prune_isolated_leaves",
    "canonical_form",
    "canonical_representative",
    "is_isomorphic",
    "contains_subgraph",
    "enumerate_graphs",
]

Pair = tuple[int, int]

# The most leaves `enumerate_graphs` serves.  The canonical key scores all n!
# relabellings, 2.6-4.3 ms a key at 7 leaves and 20-38 ms (median 29) at 8,
# so the 12,346 classes on 8 leaves would take ~6 min of keys alone.
MAX_LEAVES = 7


class TwoColoredStar:
    """Star with center 0, leaves 1..n and a set of dashed leaf pairs; equal and hashed by both."""

    def __init__(self, n: int, dashed: Iterable[Iterable[int]] = ()):
        if n < 0:
            raise ValueError(f"leaf count must be nonnegative, got {n}")
        pairs = set()
        for i, j in dashed:
            pair = (i, j) if i < j else (j, i)
            if i == j:
                raise ValueError(f"dashed pair {i}-{j} joins a leaf to itself")
            if pair[0] < 1 or pair[1] > n:
                raise ValueError(f"dashed pair {i}-{j} outside leaves 1..{n}")
            pairs.add(pair)
        self.n = n
        self.dashed: frozenset[Pair] = frozenset(pairs)

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self.n == other.n and self.dashed == other.dashed

    def __hash__(self) -> int:
        return hash((self.n, self.dashed))

    def sorted_dashed(self) -> list[Pair]:
        return sorted(self.dashed)

    @functools.cached_property
    def neighbours(self) -> dict[int, frozenset[int]]:
        """Each leaf 1..n, ascending, mapped to the leaves dashed to it."""
        nbrs: dict[int, set[int]] = {v: set() for v in range(1, self.n + 1)}
        for i, j in self.dashed:
            nbrs[i].add(j)
            nbrs[j].add(i)
        return {v: frozenset(s) for v, s in nbrs.items()}

    def covered_leaves(self) -> list[int]:
        """Leaves incident to at least one dashed edge, ascending."""
        return [v for v, nbrs in self.neighbours.items() if nbrs]

    def is_dashed(self, i: int, j: int) -> bool:
        if i > j:
            i, j = j, i
        return (i, j) in self.dashed

    def to_json_dict(self) -> dict:
        return {"n": self.n, "dashed": [[i, j] for i, j in self.sorted_dashed()]}

    def __str__(self) -> str:
        pairs = ", ".join(f"{i}-{j}" for i, j in self.sorted_dashed())
        return f"K({self.n}; {pairs})" if pairs else f"K({self.n};)"


class Embedding:
    """Injective leaf map carrying dashed pattern pairs to dashed host pairs."""

    def __init__(self, mapping):
        self.mapping: tuple[Pair, ...] = tuple(sorted(dict(mapping).items()))  # (pattern leaf, host leaf)

    def as_dict(self) -> dict[int, int]:
        return dict(self.mapping)

    def to_json_dict(self) -> list[list[int]]:
        return [[a, b] for a, b in self.mapping]


class CanonicalForm(NamedTuple):
    """Total-order key identifying the isomorphism class of the dashed graph."""

    key: tuple


_GRAPH_RE = re.compile(r"^\s*K\(\s*(\d+)\s*;\s*(.*?)\s*\)\s*$")
_PAIR_RE = re.compile(r"^\s*(\d+)\s*-\s*(\d+)\s*$")


def parse_graph(text: str) -> TwoColoredStar:
    """Parse ``K(<n>; <i>-<j>, ...)`` or ``K(<n>;)``.

    Duplicate pairs (after orienting i<j) are deduplicated with a warning;
    malformed text raises ValueError here, and self-pairs and out-of-range
    indices raise it in `TwoColoredStar`.
    """
    m = _GRAPH_RE.match(text)
    if not m:
        raise ValueError(f"malformed graph {text!r}: expected K(<n>; <i>-<j>, ...)")
    n = int(m.group(1))
    body = m.group(2)
    pairs: dict[Pair, Pair] = {}  # oriented pair -> the pair as written
    if body:
        for chunk in body.split(","):
            pm = _PAIR_RE.match(chunk)
            if not pm:
                raise ValueError(f"malformed dashed pair {chunk.strip()!r} in {text!r}")
            i, j = int(pm.group(1)), int(pm.group(2))
            pair = (min(i, j), max(i, j))
            if pair in pairs:
                warnings.warn(f"duplicate dashed pair {pair[0]}-{pair[1]} in {text!r}")
            else:
                pairs[pair] = (i, j)
    return TwoColoredStar(n, pairs.values())


def dashed_components(g: TwoColoredStar) -> tuple[list[frozenset[int]], int]:
    """Connected components of the dashed graph on covered leaves, and their count.

    Leaves with no dashed edge do not form components, matching the
    convention that nu = 0 exactly when the dashed set is empty.
    """
    partition: list[frozenset[int]] = []
    for leaf in g.covered_leaves():  # ascending, so parts come out ordered by least leaf
        if any(leaf in part for part in partition):
            continue
        part, frontier = {leaf}, [leaf]
        while frontier:
            new = g.neighbours[frontier.pop()] - part
            part |= new
            frontier.extend(new)
        partition.append(frozenset(part))
    return partition, len(partition)


def prune_isolated_leaves(g: TwoColoredStar) -> tuple[TwoColoredStar, tuple[int, ...]]:
    """Drop leaves with no dashed edge, relabelling the rest 1..n' in order."""
    kept = g.covered_leaves()
    removed = tuple(v for v, nbrs in g.neighbours.items() if not nbrs)
    newlabel = {old: k + 1 for k, old in enumerate(kept)}
    dashed = [(newlabel[i], newlabel[j]) for i, j in g.dashed]
    return TwoColoredStar(len(kept), dashed), removed


def _canonical_key(n: int, dashed: frozenset[Pair]) -> tuple:
    """``(n, edges)``: the lexicographically least sorted edge list over all n! relabellings.

    Each relabelling is scored as one integer.  Pair k of the list
    (1,2) < (1,3) < ... < (n-1,n) weighs 2**(K-1-k), K = n(n-1)/2, and a
    relabelled edge set scores the sum of its pairs' weights.  Between two
    sorted lists of equal length, the first position where they differ holds
    the least pair of their symmetric difference, and the smaller list holds
    it; that pair's weight exceeds the sum of all later ones, so the least
    list has the largest score.  The best score is decoded back into edges.
    One key costs 2.6-4.3 ms of CPU at 7 leaves and 20-38 ms at 8 leaves
    (random graphs, edge probability 0.4) on CPython 3.11.7 and a 2-core
    x86-64 box.
    """
    if n <= 1 or not dashed:
        return (n, tuple(sorted(dashed)))
    pairs = list(itertools.combinations(range(n), 2))
    bit = [[0] * n for _ in range(n)]
    for k, (i, j) in enumerate(pairs):
        bit[i][j] = bit[j][i] = 1 << (len(pairs) - 1 - k)
    edges = [(i - 1, j - 1) for i, j in dashed]
    best = max(sum([bit[p[i]][p[j]] for i, j in edges]) for p in itertools.permutations(range(n)))
    return (n, tuple((i + 1, j + 1) for i, j in pairs if best & bit[i][j]))


def canonical_form(g: TwoColoredStar) -> CanonicalForm:
    return CanonicalForm(_canonical_key(g.n, g.dashed))


def canonical_representative(g: TwoColoredStar) -> TwoColoredStar:
    """The lexicographically smallest relabelling of g (a class representative)."""
    n, edges = _canonical_key(g.n, g.dashed)
    return TwoColoredStar(n, edges)


def is_isomorphic(g1: TwoColoredStar, g2: TwoColoredStar) -> bool:
    # The degree profile holds one entry per leaf and fixes the edge count.
    return _degree_profile(g1) == _degree_profile(g2) and canonical_form(g1) == canonical_form(g2)


def contains_subgraph(host: TwoColoredStar, pattern: TwoColoredStar) -> Optional[Embedding]:
    """Find an injective leaf map sending every dashed pattern pair to a dashed host pair.

    Non-dashed pattern pairs are unconstrained (subgraph, not induced
    subgraph).  Returns the first embedding in deterministic search order,
    or None.
    """
    if pattern.n > host.n:
        return None
    host_nbrs, pat_nbrs = host.neighbours, pattern.neighbours
    # Place high-degree pattern leaves first; ties by label for determinism.
    order = sorted(pat_nbrs, key=lambda v: (-len(pat_nbrs[v]), v))
    placed = {v: pat_nbrs[v] & set(order[:idx]) for idx, v in enumerate(order)}

    assignment: dict[int, int] = {}
    used: set[int] = set()

    def backtrack(idx: int) -> bool:
        if idx == len(order):
            return True
        v = order[idx]
        for w, w_nbrs in host_nbrs.items():
            if w in used or len(w_nbrs) < len(pat_nbrs[v]):
                continue
            if all(assignment[u] in w_nbrs for u in placed[v]):
                assignment[v] = w
                used.add(w)
                if backtrack(idx + 1):
                    return True
                used.remove(w)
                del assignment[v]
        return False

    if backtrack(0):
        return Embedding(assignment)
    return None


def _degree_profile(g: TwoColoredStar) -> tuple:
    """Each leaf's degree with its neighbours' sorted degrees, as a sorted tuple."""
    nbrs = g.neighbours
    return tuple(sorted((len(vs), tuple(sorted(len(nbrs[u]) for u in vs))) for vs in nbrs.values()))


@functools.lru_cache(maxsize=None)
def _enumerate_cached(n: int) -> tuple[TwoColoredStar, ...]:
    # Every class on n leaves is a class on n - 1 leaves plus leaf n joined
    # to some subset of 1..n-1.  Candidates are bucketed by edge count and
    # degree profile; within a bucket, an embedding between graphs with the
    # same leaf and edge counts is an isomorphism.  Without the degree
    # profile, n = 1..6 takes 0.38 s of CPU instead of 0.12 s (CPython 3.11,
    # 2-core x86-64).  The cache serves each level to the one above.
    if n == 0:
        return (TwoColoredStar(0),)
    buckets: dict[tuple, list[TwoColoredStar]] = {}
    for base in _enumerate_cached(n - 1):
        for mask in range(1 << (n - 1)):
            g = TwoColoredStar(n, base.dashed | {(i, n) for i in range(1, n) if mask >> (i - 1) & 1})
            bucket = buckets.setdefault((len(g.dashed), _degree_profile(g)), [])
            if not any(contains_subgraph(h, g) for h in bucket):
                bucket.append(g)
    # A lexicographically least representative is its own canonical key.
    reps = [canonical_representative(g) for bucket in buckets.values() for g in bucket]
    reps.sort(key=TwoColoredStar.sorted_dashed)
    return tuple(reps)


def enumerate_graphs(n: int) -> list[TwoColoredStar]:
    """One representative per isomorphism class of dashed configurations on n leaves.

    Classes are generated by extending each class on n - 1 leaves by one
    leaf.  Each representative is the lexicographically least relabelling
    of its class, and they are returned in canonical-form order; the empty
    configuration is included.  Raises ValueError unless 1 <= n <= MAX_LEAVES.
    """
    if n < 1:
        raise ValueError(f"leaf count must be at least 1, got {n}")
    if n > MAX_LEAVES:
        raise ValueError(f"enumeration of classes is available up to {MAX_LEAVES} leaves")
    return list(_enumerate_cached(n))
