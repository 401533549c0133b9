"""Independent reference implementations used as test oracles.

Everything here deliberately avoids the package's automaton, completion and
canonical-form machinery: normal words are enumerated, and antichains and
normal words checked (`minimal_antichain`, `is_antichain`,
`is_normal_word`), by direct factor checks, `reference_automaton` finds
each transition by rescanning every suffix instead of the package's one
Aho-Corasick pass, quotient dimensions come from linear algebra over
two-term relation instances (a weighted union-find, since every defining
relation has at most two terms), isomorphism classes are rebuilt by raw
permutation search (`least_relabelling` tries every permutation, and
`atlas_classes` takes the classes from the networkx atlas and relabels
each that way), and
`reference_buchberger` completes relations with plain scalar polynomial
arithmetic instead of the package's tagged binomial rules, and
`reference_reduce` reduces whole polynomials under a choice of rewriting
strategies instead of the package's word-by-word rewriting.
`reference_components` partitions the dashed pairs by union-find instead of
the package's search over each graph's neighbour map.  The small
helpers only tests need (`compare_words`, `relabel`, `delete_dashed_edge`,
`embedding_is_valid`) live here too.
"""

from __future__ import annotations

import heapq
import itertools
from collections import defaultdict, deque
from dataclasses import dataclass
from fractions import Fraction

from tlstar.graphs import TwoColoredStar
from tlstar.ncpoly import NcPolynomial, word_key
from tlstar.presentation import Presentation, build_presentation, render_rules
from tlstar.scalars import T


def compare_words(a, b) -> int:
    """Return -1, 0 or 1 according to the degree-lexicographic order."""
    ka, kb = word_key(a), word_key(b)
    return (ka > kb) - (ka < kb)


def has_factor(word, factor):
    lf = len(factor)
    return any(word[i:i + lf] == factor for i in range(len(word) - lf + 1))


def is_normal_word(word, obs):
    """Direct factor check, independent of any automaton construction."""
    return not any(has_factor(word, o) for o in obs)


def minimal_antichain(words):
    """Drop every word that contains another of the given words as a factor."""
    kept = []
    for w in sorted(set(words), key=word_key):
        if not any(has_factor(w, u) for u in kept):
            kept.append(w)
    return frozenset(kept)


def is_antichain(words):
    ws = list(words)
    return all(not has_factor(a, b) for i, a in enumerate(ws) for j, b in enumerate(ws) if i != j)


def normal_words_up_to(obs, alphabet_size, max_len):
    """All words avoiding the obstructions, grouped by length, via DFS.

    Only the last letters need checking when extending a normal word: a new
    obstruction occurrence must end at the final position.
    """
    obs = [tuple(w) for w in obs]
    by_len = [[()] if not any(o == () for o in obs) else []]
    for length in range(1, max_len + 1):
        level = []
        for w in by_len[length - 1]:
            for a in range(alphabet_size):
                cand = w + (a,)
                if not any(cand[-len(o):] == o for o in obs if len(o) <= length):
                    level.append(cand)
        by_len.append(level)
    return by_len


def normal_word_counts(obs, alphabet_size, max_len):
    return [len(level) for level in normal_words_up_to(obs, alphabet_size, max_len)]


def reference_automaton(obs, alphabet_size):
    """(states, transitions) of the factor-avoidance automaton of an antichain.

    States are the empty word and the proper prefixes of the obstructions in
    (length, word) order.  Each (state, letter) pair rescans every suffix of
    the extended word, longest first: the first that is an obstruction makes
    the transition dead (-1), the first that is a state is the target.
    """
    obs = frozenset(tuple(w) for w in obs)
    prefixes = {()} | {w[:k] for w in obs for k in range(1, len(w))}
    states = tuple(sorted(prefixes, key=word_key))
    state_id = {p: i for i, p in enumerate(states)}
    transitions = []
    for p in states:
        row = []
        for letter in range(alphabet_size):
            w = p + (letter,)
            for k in range(len(w) + 1):
                if w[k:] in obs:
                    row.append(-1)
                    break
                if w[k:] in state_id:
                    row.append(state_id[w[k:]])
                    break
        transitions.append(tuple(row))
    return states, tuple(transitions)


def count_all_normal_words(obs, alphabet_size, hard_cap=400):
    """Total number of normal words; raises if the language looks infinite."""
    obs = [tuple(w) for w in obs]
    total = 0
    level = [()]
    length = 0
    while level:
        total += len(level)
        length += 1
        if length > hard_cap:
            raise RuntimeError("normal-word language does not terminate")
        nxt = []
        for w in level:
            for a in range(alphabet_size):
                cand = w + (a,)
                if not any(cand[-len(o):] == o for o in obs if len(o) <= length):
                    nxt.append(cand)
        level = nxt
    return total


class _WeightedUnionFind:
    """value(x) = weight[x] * value(root(x)); inconsistent cycles force zero."""

    def __init__(self):
        self.parent = {}
        self.weight = {}
        self.zero_roots = set()

    def find(self, x):
        if self.parent.setdefault(x, x) == x:
            self.weight.setdefault(x, Fraction(1))
            return x
        path = []
        root = x
        while self.parent[root] != root:
            path.append(root)
            root = self.parent[root]
        acc = Fraction(1)
        for node in reversed(path):
            acc *= self.weight[node]
            self.parent[node] = root
            self.weight[node] = acc
        return root

    def union(self, x, y, ratio):
        """Impose value(x) = ratio * value(y)."""
        rx, ry = self.find(x), self.find(y)
        wx, wy = self.weight[x], self.weight[y]
        if rx == ry:
            if wx != ratio * wy:
                self.zero_roots.add(rx)
            return
        self.parent[rx] = ry
        self.weight[rx] = ratio * wy / wx
        if rx in self.zero_roots:
            self.zero_roots.discard(rx)
            self.zero_roots.add(ry)

    def mark_zero(self, x):
        self.zero_roots.add(self.find(x))


def quotient_dimensions(g: TwoColoredStar, max_degree: int, margin: int = 0,
                        t=Fraction(1, 2)) -> list[int]:
    """Cumulative dimensions of the filtered quotient by direct linear algebra.

    Spans all relation instances u*r*v of degree <= max_degree + margin over
    the words of that length; every relation has at most two terms, so the
    span collapses to a weighted union-find on words.
    """
    rules = []
    for rel in render_rules(build_presentation(g).rules, t):
        terms = rel.sorted_terms()
        lead, lead_coeff = terms[0]
        if len(terms) == 1:
            rules.append((lead, None, None))
        else:
            tail, tail_coeff = terms[1]
            rules.append((lead, tail, -tail_coeff / lead_coeff))

    depth = max_degree + margin
    letters = range(g.n + 1)
    uf = _WeightedUnionFind()
    all_words = [()]
    level = [()]
    for _ in range(depth):
        level = [w + (a,) for w in level for a in letters]
        all_words.extend(level)
    for w in all_words:
        lw = len(w)
        for lead, tail, ratio in rules:
            ll = len(lead)
            for pos in range(lw - ll + 1):
                if w[pos:pos + ll] != lead:
                    continue
                if tail is None:
                    uf.mark_zero(w)
                else:
                    uf.union(w, w[:pos] + tail + w[pos + ll:], ratio)

    roots_by_len: dict[int, set] = {}
    for w in all_words:
        if len(w) <= max_degree:
            roots_by_len.setdefault(len(w), set()).add(uf.find(w))
    zero = {uf.find(z) for z in set(uf.zero_roots)}
    dims = []
    seen: set = set()
    for d in range(max_degree + 1):
        seen |= roots_by_len.get(d, set())
        dims.append(sum(1 for r in seen if r not in zero))
    return dims


def relabel(g: TwoColoredStar, perm: dict[int, int]) -> TwoColoredStar:
    """Apply a permutation of the leaves to the dashed set."""
    return TwoColoredStar(g.n, [(perm[i], perm[j]) for i, j in g.dashed])


def delete_dashed_edge(g: TwoColoredStar, pair) -> TwoColoredStar:
    i, j = min(pair), max(pair)
    if (i, j) not in g.dashed:
        raise ValueError(f"pair {i}-{j} is not a dashed edge of {g}")
    return TwoColoredStar(g.n, g.dashed - {(i, j)})


def embedding_is_valid(emb, host: TwoColoredStar, pattern: TwoColoredStar) -> bool:
    """Whether the embedding is an injection of pattern's leaves carrying dashed pairs to dashed pairs."""
    m = emb.as_dict()
    if sorted(m) != list(range(1, pattern.n + 1)):
        return False
    values = list(m.values())
    if len(set(values)) != len(values):
        return False
    if any(v < 1 or v > host.n for v in values):
        return False
    return all(host.is_dashed(m[i], m[j]) for i, j in pattern.dashed)


def brute_force_embedding(host: TwoColoredStar, pattern: TwoColoredStar):
    """Exhaustive injection search, independent of the package's backtracking."""
    host_leaves = range(1, host.n + 1)
    for image in itertools.permutations(host_leaves, pattern.n):
        mapping = {k + 1: image[k] for k in range(pattern.n)}
        if all((min(mapping[i], mapping[j]), max(mapping[i], mapping[j])) in host.dashed
               for i, j in pattern.dashed):
            return mapping
    return None


def reference_components(g: TwoColoredStar) -> list[frozenset[int]]:
    """Dashed components of the covered leaves by union-find over the pairs, ordered by least leaf."""
    parent: dict[int, int] = {}

    def find(x: int) -> int:
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for i, j in g.dashed:
        parent.setdefault(i, i)
        parent.setdefault(j, j)
        ri, rj = find(i), find(j)
        if ri != rj:
            parent[ri] = rj
    groups: dict[int, set[int]] = {}
    for leaf in parent:
        groups.setdefault(find(leaf), set()).add(leaf)
    return sorted((frozenset(s) for s in groups.values()), key=min)


def brute_force_classes(n: int) -> list[TwoColoredStar]:
    """Isomorphism classes on n leaves by raw subset enumeration (small n only)."""
    pairs = list(itertools.combinations(range(1, n + 1), 2))
    reps: list[TwoColoredStar] = []
    for mask in range(1 << len(pairs)):
        edges = frozenset(p for k, p in enumerate(pairs) if mask >> k & 1)
        g = TwoColoredStar(n, edges)
        if not any(_permutation_isomorphic(g, r) for r in reps):
            reps.append(g)
    return reps


def atlas_classes(n: int) -> list[TwoColoredStar]:
    """Classes on n leaves (n <= 7) from the networkx atlas of small graphs.

    Each class is given as its lexicographically least relabelled edge list,
    found by a plain loop over all permutations, and the classes are sorted
    by those edge lists.  Skips the calling test when networkx is missing.
    """
    import pytest

    nx = pytest.importorskip("networkx")
    reps = []
    for graph in nx.graph_atlas_g():
        if graph.number_of_nodes() != n:
            continue
        reps.append(least_relabelling(TwoColoredStar(n, [(u + 1, v + 1) for u, v in graph.edges()])))
    reps.sort(key=TwoColoredStar.sorted_dashed)
    return reps


def least_relabelling(g: TwoColoredStar) -> TwoColoredStar:
    """The relabelling of g with the lexicographically least sorted edge list, by trying every permutation."""
    best = min(
        sorted((min(perm[i - 1], perm[j - 1]), max(perm[i - 1], perm[j - 1])) for i, j in g.dashed)
        for perm in itertools.permutations(range(1, g.n + 1))
    )
    return TwoColoredStar(g.n, best)


def _permutation_isomorphic(g1: TwoColoredStar, g2: TwoColoredStar) -> bool:
    if g1.n != g2.n or len(g1.dashed) != len(g2.dashed):
        return False
    leaves = range(1, g1.n + 1)
    for perm in itertools.permutations(leaves):
        mapping = dict(zip(leaves, perm))
        mapped = frozenset(
            (min(mapping[i], mapping[j]), max(mapping[i], mapping[j])) for i, j in g1.dashed
        )
        if mapped == g2.dashed:
            return True
    return False


class _RefEntry:
    __slots__ = ("id", "lead", "terms", "alive")

    def __init__(self, eid, lead, terms):
        self.id = eid
        self.lead = lead
        self.terms = terms
        self.alive = True


class _RefLeadIndex:
    """Leading words grouped by first letter, sorted by (length, id).

    An empty leading word is kept apart: it occurs in every word, the empty
    word included, so it rewrites every word to zero.
    """

    def __init__(self):
        self.by_letter = defaultdict(list)
        self.empty = None

    def add(self, entry):
        if not entry.lead:
            self.empty = entry
            return
        bucket = self.by_letter[entry.lead[0]]
        bucket.append(entry)
        bucket.sort(key=lambda e: (len(e.lead), e.id))

    def remove(self, entry):
        if not entry.lead:
            self.empty = None
            return
        self.by_letter[entry.lead[0]].remove(entry)

    def find(self, w):
        """Leftmost occurrence of any leading word inside w."""
        if self.empty is not None:
            return 0, self.empty
        for pos in range(len(w)):
            for e in self.by_letter.get(w[pos], ()):
                ll = len(e.lead)
                if ll > len(w) - pos:
                    break
                if w[pos:pos + ll] == e.lead:
                    return pos, e
        return None

    def find_rightmost(self, w):
        """Rightmost occurrence of any leading word inside w."""
        if self.empty is not None:
            return len(w), self.empty
        for pos in range(len(w) - 1, -1, -1):
            for e in self.by_letter.get(w[pos], ()):
                ll = len(e.lead)
                if ll > len(w) - pos:
                    break
                if w[pos:pos + ll] == e.lead:
                    return pos, e
        return None


def _ref_reduce(terms, index):
    """Rewrite the largest reducible monomial at its leftmost position until
    no monomial is reducible, with scalar coefficient arithmetic."""
    normal = {}
    work = dict(terms)
    while work:
        w = max(work, key=word_key)
        c = work.pop(w)
        hit = index.find(w)
        if hit is None:
            normal[w] = c
            continue
        pos, entry = hit
        left, right = w[:pos], w[pos + len(entry.lead):]
        for tw, tc in entry.terms.items():
            if tw == entry.lead:
                continue
            nw = left + tw + right
            acc = work.get(nw, 0) - c * tc
            if acc:
                work[nw] = acc
            else:
                work.pop(nw, None)
    return normal


# The basis of the last reference_reduce call and its index; callers reduce
# many polynomials against one basis, so the index is built once per basis.
_last_index = [None, None]


def reference_reduce(p, basis, strategy="largest-leftmost"):
    """Normal form of p by whole-polynomial rewriting with scalar arithmetic.

    ``strategy`` is "<largest|smallest>-<leftmost|rightmost>": which
    reducible monomial to rewrite next, and at which occurrence of a
    leading word.  Every rewrite strictly decreases the term multiset, so
    each strategy terminates; against a Groebner basis all four agree.
    """
    if _last_index[0] is not basis:
        index = _RefLeadIndex()
        for k, q in enumerate(r for r in basis if r):
            q = q.monic()
            index.add(_RefEntry(k, q.leading_word(), dict(q.terms)))
        _last_index[:] = [basis, index]
    index = _last_index[1]
    monomial_pick, position_pick = strategy.split("-")
    pick = max if monomial_pick == "largest" else min
    find = index.find if position_pick == "leftmost" else index.find_rightmost
    work = dict(p.terms)
    while True:
        hits = [(w, hit) for w in work for hit in (find(w),) if hit is not None]
        if not hits:
            return NcPolynomial(work)
        w, (pos, entry) = pick(hits, key=lambda it: word_key(it[0]))
        c = work.pop(w)
        left, right = w[:pos], w[pos + len(entry.lead):]
        for tw, tc in entry.terms.items():
            if tw == entry.lead:
                continue
            nw = left + tw + right
            acc = work.get(nw, 0) - c * tc
            if acc:
                work[nw] = acc
            else:
                work.pop(nw, None)


class _RefCompletion:
    """Overlap completion over monic scalar polynomials, in the engine's
    processing order: pending elements first, then overlaps by the key
    (length, word, id, id, overlap), withdrawal of absorbed leads in id
    order, and a final tail reduction in degree-lex order of the leads."""

    def __init__(self, relations, degree_bound):
        self.bound = degree_bound
        self.index = _RefLeadIndex()
        self.entries = {}
        self.next_id = 0
        self.heap = []
        self.pending = deque(dict(r.terms) for r in relations if r)
        self.skipped = []

    def _alive(self):
        return [e for e in self.entries.values() if e.alive]

    def _enqueue_overlaps(self, a, b):
        if len(a.terms) == 1 and len(b.terms) == 1:
            return
        u, v = a.lead, b.lead
        for ell in range(1, min(len(u), len(v))):
            if u[-ell:] == v[:ell]:
                w = u + v[ell:]
                heapq.heappush(self.heap, (len(w), w, a.id, b.id, ell))

    def _insert(self, terms):
        lead = max(terms, key=word_key)
        lc = terms[lead]
        terms = {w: c / lc for w, c in terms.items()}
        for e in self._alive():
            if has_factor(e.lead, lead):
                e.alive = False
                self.index.remove(e)
                self.pending.append(e.terms)
        entry = _RefEntry(self.next_id, lead, terms)
        self.next_id += 1
        self.entries[entry.id] = entry
        self.index.add(entry)
        for other in self._alive():
            if other is not entry:
                self._enqueue_overlaps(entry, other)
                self._enqueue_overlaps(other, entry)
        self._enqueue_overlaps(entry, entry)

    def _spolynomial(self, a, b, ell):
        u, v = a.lead, b.lead
        right, left = v[ell:], u[:len(u) - ell]
        out = {}
        for w, c in a.terms.items():
            if w != u:
                out[w + right] = out.get(w + right, 0) + c
        for w, c in b.terms.items():
            if w != v:
                out[left + w] = out.get(left + w, 0) - c
        return {w: c for w, c in out.items() if c}

    def run(self):
        while self.pending or self.heap:
            if self.pending:
                red = _ref_reduce(self.pending.popleft(), self.index)
                if red:
                    self._insert(red)
                continue
            _, _, ia, ib, ell = heapq.heappop(self.heap)
            a, b = self.entries[ia], self.entries[ib]
            if not (a.alive and b.alive):
                continue
            if len(a.lead) + len(b.lead) - ell > self.bound:
                self.skipped.append((ia, ib))
                continue
            red = _ref_reduce(self._spolynomial(a, b, ell), self.index)
            if red:
                self._insert(red)
        truncated = any(
            self.entries[ia].alive and self.entries[ib].alive for ia, ib in self.skipped
        )
        alive = sorted(self._alive(), key=lambda e: word_key(e.lead))
        for e in alive:
            tail = {w: c for w, c in e.terms.items() if w != e.lead}
            reduced = _ref_reduce(tail, self.index)
            reduced[e.lead] = e.terms[e.lead]
            e.terms = reduced
        return alive, not truncated


@dataclass(frozen=True)
class ReferenceResult:
    basis: tuple
    obstructions: frozenset
    complete: bool
    degree_bound: int


def reference_buchberger(pres: Presentation, degree_bound=None, t=T) -> ReferenceResult:
    """Completion with scalar arithmetic on whole polynomials, over Q(t) or at a rational t.

    The relations are rendered at t (`T` for Q(t), a `Fraction` for Q), so
    completing at a rational value checks that specialising t changes no
    leading word.
    """
    if degree_bound is None:
        degree_bound = 2 * pres.n + 8
    alive, complete = _RefCompletion(render_rules(pres.rules, t), degree_bound).run()
    return ReferenceResult(
        basis=tuple(NcPolynomial(e.terms) for e in alive),
        obstructions=frozenset(e.lead for e in alive),
        complete=complete,
        degree_bound=degree_bound,
    )
