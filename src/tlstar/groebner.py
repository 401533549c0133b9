"""Noncommutative Groebner bases by degree-truncated overlap completion.

Relations are rewriting rules oriented by the degree-lexicographic order.
Completion resolves every overlap ambiguity between leading words whose
overlap word fits under the degree bound; the live leading words always
form an antichain under the factor relation (inclusion ambiguities are
handled by re-reducing any rule whose leading word absorbs a newer, smaller
one).

Every defining relation is a binomial whose two coefficients differ by a
factor in {+-1, +-t}, and reducing a binomial by binomials gives a binomial
again.  Completion therefore runs on tagged rules ``lead -> sign * t**exp *
word`` or ``lead -> 0``, seeded with the presentation's rules as they come
from the graph.  A (sign, exp) tag is an exact coefficient: since 0 < t < 1,
t**a == t**b only when a == b, so two tagged terms on the same word cancel
exactly when their tags are equal and opposite.  Completion does no scalar
arithmetic at all, and it is the same for every value of t; the result
keeps the finished rules, and `GroebnerResult.basis` renders them as monic
Q(t) polynomials on first read (`render_rules` renders them at a rational
t).  `Rewriter` reduces arbitrary polynomials modulo any binomial basis
the same way, one word at a time, carrying a scalar coefficient instead of
a tag: that is where scalars enter.  Results stay exact.

Completion holds words as `str`, in the encoding that `ncpoly.encode_word`
and `decode_word` own, for every alphabet, so letters must lie below
0x110000; a substring test finds the rules a new lead withdraws.  The
finished rules go back to tuple words.

Completion is seeded from the deck of the rules.  Dropping one letter
that occurs in them gives a card: the rules that do not use it, with the
other letters relabelled 0..m-1 in increasing order, which keeps the
deg-lex order.  Cards whose relabelled rules are equal form a group, and
each group of two or more cards is completed once, by the same seeded
procedure (fewer than three letters is the unseeded base case), memoised
for the one `buchberger` call.  The finished card rules, mapped back to
each card's letters, go in as rules before the presentation's own, each
tagged with a bitmask of the cards that hold it.  On star presentations
cards agree on every lead they share and their leads form an antichain;
rules where two cards give one lead two right-hand sides are completed
unseeded.  A pair of rules from one completed card is joinable inside it,
so it is never resolved (completion modulo a confluent subsystem:
Bachmair & Dershowitz, J. Symbolic Comput. 1988; Toyama, J. ACM 1987).
New rules carry no card.  If a card or the seeded run is truncated, the
unseeded run is the result, so truncated results do not depend on the
seeding.  On the fully dashed 7-leaf star the seven leaf cards are one
group, the fully dashed 6-leaf star: 39,019 pairs are dropped inside a
card, and 7,751 are popped instead of 46,770.

Only prime overlaps are resolved: a pair whose overlap word holds a live
leading word strictly inside is composite and dropped (Kapur, Musser &
Narendran, J. Symbolic Comput. 1988), where it is found if it is composite
then, and when it is popped otherwise.  On the fully dashed 7-leaf star
that drops 6,769 of the 7,751 popped pairs, 5,609 of them before they
enter the heap.  Every result carries `CompletionStats`: pairs enqueued,
over the bound, inside a completed card, popped, dropped for a dead rule,
composite, resolved to zero and inserted, rules withdrawn, the peak live
rule count and the card systems completed.  Completion counts into a
dict keyed by the field names, so each counter is named once, in
`CompletionStats`.  The counters stay out of `to_json_dict`.

If no overlap ever exceeds the bound the finished basis is a full Groebner
basis and the result is marked complete; otherwise it is only a truncation
and every downstream consumer must treat derived counts as upper bounds.

Each shortcut below carries the measurement that keeps it: CPU time or
traced allocations on CPython 3.11 and a 2-core x86-64 box.  "K7" and
"K8" are the completions of the fully dashed 7- and 8-leaf stars, which
take 0.066-0.068 s and 0.23-0.26 s of CPU with every shortcut (6 rounds,
CPython 3.11.7).
"""

from __future__ import annotations

import heapq
from collections import defaultdict, deque
from functools import cached_property
from typing import Iterable, NamedTuple, Optional, Sequence

from .ncpoly import NcPolynomial, Word, decode_word, encode_word, word_key
from .presentation import Presentation, Rule, render_rules
from .scalars import RationalFunction

__all__ = ["CompletionStats", "GroebnerResult", "Rewriter", "reduce", "buchberger"]


class CompletionStats(NamedTuple):
    """What one completion did, counted by `_TaggedCompletion` alone.

    Every enqueued pair is popped, and every popped pair is dropped for a
    dead rule, skipped as composite, or resolved (to zero or to a new rule).
    A pair already composite when it is found never enters the heap: it
    counts as enqueued, popped and composite at once.  Pairs over the bound
    and pairs inside a completed card are never enqueued.  All counts but
    ``cards_completed`` are of the run that gave the result.
    """

    pairs_enqueued: int
    pairs_over_bound: int  # overlap word longer than the degree bound
    pairs_in_card: int  # both rules lie in one completed card
    pairs_popped: int
    pairs_dead: int  # one of the two rules was withdrawn meanwhile
    pairs_composite: int  # a live lead lies strictly inside the overlap word
    pairs_to_zero: int
    pairs_inserted: int
    rules_withdrawn: int
    peak_live_rules: int
    cards_completed: int = 0  # card systems completed for this result, at every depth


class GroebnerResult:
    """Finished (or degree-truncated) rules together with their leading words."""

    def __init__(
        self,
        rules: tuple[Rule, ...],  # live rules in degree-lex order of their leads
        obstructions: frozenset[Word],
        complete: bool,
        degree_bound: int,
        stats: CompletionStats,  # not part of to_json_dict
    ):
        self.rules = rules
        self.obstructions = obstructions
        self.complete = complete
        self.degree_bound = degree_bound
        self.stats = stats

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return (self.rules, self.obstructions, self.complete, self.degree_bound, self.stats) == (
            other.rules, other.obstructions, other.complete, other.degree_bound, other.stats)

    @cached_property
    def basis(self) -> tuple[NcPolynomial, ...]:
        """The rules as monic polynomials over Q(t)."""
        return render_rules(self.rules, RationalFunction.t())

    def basis_size(self) -> int:
        return len(self.rules)

    def to_json_dict(self) -> dict:
        return {
            "degree_bound": self.degree_bound,
            "complete": self.complete,
            "basis_size": len(self.rules),
            "obstructions": [list(w) for w in sorted(self.obstructions, key=word_key)],
        }


class _LeadTable:
    """Leading words in one hash table, probed per start position by length.

    Holds `_Rule` objects, keyed by their leads, at most one per lead: a
    lead is added only while no live entry has it.  Lookups try the live
    lead lengths shortest first.
    """

    __slots__ = ("by_lead", "length_count", "lengths")

    def __init__(self):
        self.by_lead: dict[Word, object] = {}
        self.length_count: dict[int, int] = {}
        self.lengths: tuple[int, ...] = ()

    def add(self, entry) -> None:
        lead = entry.lead
        self.by_lead[lead] = entry
        n = len(lead)
        count = self.length_count.get(n, 0)
        self.length_count[n] = count + 1
        if not count:
            self.lengths = tuple(sorted(self.length_count))

    def remove(self, entry) -> None:
        del self.by_lead[entry.lead]
        n = len(entry.lead)
        count = self.length_count[n] - 1
        if count:
            self.length_count[n] = count
        else:
            del self.length_count[n]
            self.lengths = tuple(sorted(self.length_count))

    def find(self, w: Word):
        """Leftmost occurrence of any leading word inside w: (position, entry) or None.

        Of the leads that start at the least position, the shortest wins.
        An empty leading word occurs in every word, the empty word included.
        """
        get = self.by_lead.get
        lengths = self.lengths
        lw = len(w)
        for pos in range(lw or 1):
            rem = lw - pos
            for n in lengths:
                if n > rem:  # lengths ascend; without this break the 7-leaf completion is ~4% slower (median)
                    break
                entry = get(w[pos:pos + n])
                if entry is not None:
                    return pos, entry
        return None


class _Rule:
    """``lead -> rhs``, or ``lead -> 0`` when rhs is None.

    In completion rhs is (sign, exp, word), for sign * t**exp * word, and
    ``mask`` has one bit per completed card that holds the rule (0 for a
    rule found by this completion).  In `Rewriter` rhs is (coeff, word),
    with coeff None for 1.
    """

    __slots__ = ("id", "lead", "rhs", "alive", "mask")

    def __init__(self, rid: int, lead, rhs: Optional[tuple], mask: int = 0):
        self.id = rid
        self.lead = lead
        self.rhs = rhs
        self.alive = True
        self.mask = mask


class Rewriter:
    """Reduction modulo a fixed list of binomial basis elements.

    Each monic element becomes a rule ``lead -> coeff * word`` or
    ``lead -> 0``, so rewriting sends a word to a scalar multiple of one
    word or to zero.  Reduction is therefore linear word by word: the normal
    form of p is the sum of ``c * coeff * normal_word`` over its terms
    ``c * w``, each word rewritten at its leftmost reducible position.
    Of several elements with one leading word, the first one is the rule.
    Raises ValueError on a basis element with more than two terms.
    """

    def __init__(self, basis: Sequence[NcPolynomial]):
        self.index = _LeadTable()
        for i, p in enumerate(basis):
            if not p:
                continue
            terms = p.monic().sorted_terms()
            if len(terms) > 2:
                raise ValueError(f"basis element {p.format()} is not a binomial")
            lead = terms[0][0]
            if lead in self.index.by_lead:
                continue
            rhs = None if len(terms) == 1 else (-terms[1][1], terms[1][0])
            if rhs is not None and rhs[0] == 1:
                rhs = (None, rhs[1])  # idempotent and commutation rules: nothing to multiply by
            self.index.add(_Rule(i, lead, rhs))

    def _normal(self, c, w: Word) -> Optional[tuple]:
        """(coefficient, normal word) of c * w, or None if it reduces to zero."""
        find = self.index.find
        while True:
            found = find(w)
            if found is None:
                return c, w
            pos, rule = found
            if rule.rhs is None:
                return None
            coeff, r = rule.rhs
            if coeff is not None:
                c = c * coeff
            w = w[:pos] + r + w[pos + len(rule.lead):]

    def reduce(self, p: NcPolynomial) -> NcPolynomial:
        out: dict[Word, object] = {}
        for w, c in p.terms.items():
            nf = self._normal(c, w)
            if nf is not None:
                c, nw = nf
                acc = out.get(nw)
                out[nw] = c if acc is None else acc + c
        return NcPolynomial(out)


def reduce(p: NcPolynomial, basis: Sequence[NcPolynomial]) -> NcPolynomial:
    """Normal form of p modulo the two-sided ideal of the binomial basis."""
    return Rewriter(basis).reduce(p)


# A tagged term (sign, exp, word) stands for sign * t**exp * word.  A pending
# element is a tuple of one or two tagged terms whose sum is an ideal member.
# Inside completion every word is a `str`, one code point per letter.


def _element(lead: str, rhs: Optional[tuple]) -> tuple:
    """The rule lead -> rhs as an ideal member lead - rhs."""
    if rhs is None:
        return ((1, 0, lead),)
    sign, exp, word = rhs
    return ((1, 0, lead), (-sign, exp, word))


# Completion reduces the same words again and again between rule changes,
# so normal forms are memoised.  The cap bounds the memo on inputs larger
# than any workload: its peak is 620, 1,583 and 4,001 words on the fully
# dashed 6-, 7- and 8-leaf stars, so none of them reaches the cap.
_MEMO_CAP = 4096  # words
_MISSING = object()


class _TaggedCompletion:
    """Overlap completion of tagged rules on `str` words.

    The rules enter as pending elements.  Pending elements are resolved
    first, then overlaps in the order of the key (length, word, id, id,
    overlap), which is unique, so the two rules that follow it in a heap
    entry are never compared; withdrawn rules are re-queued in id order.
    Results therefore do not depend on hash order, and truncated
    completions are reproducible.

    Seeds are (lead, rhs, mask) rules from completed cards, inserted first
    with their card bitmask; they are already inter-reduced.  The rules
    stay pending all the same, since the seeded cards need not generate
    the ideal.  A pair of rules whose masks share a bit is dropped when it
    is found: it is joinable inside that complete card, and, both being
    finished rules of a complete run under the same bound, its overlap
    fits under the bound, so `skipped` and the truncation test are as for
    an unseeded run.  New rules and re-reduced withdrawn rules get mask 0.

    Only prime overlaps are resolved.  An overlap word with a live lead
    strictly inside it (touching neither end) is composite: that lead
    overlaps both of the pair's leads, in words strictly shorter than this
    one, so those two pairs left the heap first, and the pair is joinable
    through them (Kapur, Musser & Narendran 1988; Bachmair & Dershowitz
    1988).  A withdrawn lead is replaced by one of its own factors, so a
    word once composite stays composite.  The test therefore runs twice:
    when a pair is found, so that a pair composite then never enters the
    heap, and when it is popped, for pairs that became composite since.
    """

    def __init__(self, rules: Iterable[tuple], degree_bound: int, seeds: Iterable[tuple] = ()):
        self.bound = degree_bound
        self.index = _LeadTable()
        self.next_id = 0
        self.heap: list[tuple] = []
        self.pending: deque = deque(_element(lead, rhs) for lead, rhs in rules)
        self.skipped: list[tuple[_Rule, _Rule]] = []
        self.memo: dict = {}
        # Live rules by the proper prefixes and suffixes of their leads:
        # the overlap partners of a new lead.
        self.by_prefix: dict[str, set] = defaultdict(set)
        self.by_suffix: dict[str, set] = defaultdict(set)
        self.count = dict.fromkeys(CompletionStats._fields, 0)
        for lead, rhs, mask in seeds:
            self._insert(lead, rhs, mask)

    def _normal(self, sign: int, exp: int, w: str) -> Optional[tuple]:
        """Tagged normal form of sign * t**exp * w by leftmost rewriting.

        Every word met on the way is memoised with its own normal form; the
        memo is cleared whenever the live rules change or it grows too big.
        (A memo of the input word alone makes completing the fully dashed
        7-leaf star ~20% slower: min 0.153 -> 0.185 s over 10 rounds.)
        """
        memo = self.memo
        find = self.index.find
        path = []  # (word, s, e): the input word equals s * t**e * word
        s0, e0 = 1, 0
        while True:
            known = memo.get(w, _MISSING)
            if known is not _MISSING:
                break
            found = find(w)
            if found is None:
                known = memo[w] = (1, 0, w)
                break
            path.append((w, s0, e0))
            pos, rule = found
            if rule.rhs is None:
                known = None
                break
            s, e, r = rule.rhs
            w = w[:pos] + r + w[pos + len(rule.lead):]
            s0 *= s
            e0 += e
        if len(memo) > _MEMO_CAP:
            memo.clear()
        if known is None:
            for pw, _, _ in path:
                memo[pw] = None
            return None
        ks, ke, nw = known
        s0 *= ks
        e0 += ke
        for pw, ps, pe in path:
            memo[pw] = (ps * s0, e0 - pe, nw)
        return sign * s0, exp + e0, nw

    def _resolve(self, element: tuple) -> bool:
        """Reduce each tagged word on its own and insert what remains.

        Returns whether a rule was inserted (False: it reduced to zero).
        """
        out = [nf for nf in (self._normal(*term) for term in element) if nf is not None]
        if not out:
            return False
        if len(out) == 1:
            self._insert(out[0][2], None)
            return True
        (s1, e1, w1), (s2, e2, w2) = out
        if w1 == w2:
            if s1 != s2 and e1 == e2:
                return False
            self._insert(w1, None)
            return True
        if word_key(w1) < word_key(w2):
            s1, e1, w1, s2, e2, w2 = s2, e2, w2, s1, e1, w1
        # s1 t^e1 w1 + s2 t^e2 w2 = 0, so w1 = -(s1 s2) t^(e2 - e1) w2.
        self._insert(w1, (-s1 * s2, e2 - e1, w2))
        return True

    def _composite(self, u: str, v: str, ell: int) -> bool:
        """Whether a live lead lies strictly inside the overlap word u + v[ell:].

        Live leads form an antichain with u and v, so such a lead is a
        factor of neither: it starts inside u's part before v's part begins
        and ends inside v's part after u's part ends.  Only those slices
        w[p:q], 1 <= p < len(u) - ell and len(u) < q < len(w), are probed;
        the answer equals ``find(w[1:-1]) is not None``, but that probe makes
        completing the fully dashed 7-leaf star ~40% slower.
        """
        w = u + v[ell:]
        leads = self.index.by_lead
        lengths = self.index.lengths
        lu = len(u)
        lw = len(w)
        for p in range(1, lu - ell):
            for n in lengths:
                q = p + n
                if q <= lu:
                    continue
                if q >= lw:
                    break
                if w[p:q] in leads:
                    return True
        return False

    def _push(self, a: _Rule, b: _Rule, ell: int) -> None:
        # A pair composite when found never enters the heap: it counts as
        # enqueued, popped and composite at once.  Testing only at pop takes
        # the same time but doubles the traced allocation peak of the fully
        # dashed 7-leaf completion (0.96 -> 1.92 MB).
        u, v = a.lead, b.lead
        size = len(u) + len(v) - ell
        if size > self.bound:
            self.skipped.append((a, b))
            self.count["pairs_over_bound"] += 1
            return
        self.count["pairs_enqueued"] += 1
        # Without the prime test here and at pop: K7 0.34-0.62 s, K8 1.84-3.29 s.
        if self._composite(u, v, ell):
            self.count["pairs_popped"] += 1
            self.count["pairs_composite"] += 1
        else:
            heapq.heappush(self.heap, (size, u + v[ell:], a.id, b.id, ell, a, b))

    def _enqueue_overlaps(self, rule: _Rule) -> None:
        # Overlap words where a proper suffix of one lead is a proper prefix
        # of the other.  Pairs of zero rules are skipped: their S-polynomials
        # vanish identically.  So are pairs of rules from one completed
        # card; both are finished rules of that card's complete run, so
        # their overlaps fit under the bound and `skipped` loses nothing.
        u = rule.lead
        mask = rule.mask
        monomial = rule.rhs is None
        in_card = 0
        for ell in range(1, len(u)):
            for other in self.by_prefix.get(u[-ell:], ()):
                if monomial and other.rhs is None:
                    continue
                # Without the in-card skip: K7 pops 46,770 pairs in 0.42-0.77 s, K8 206,023 in 2.21-3.50 s.
                if mask & other.mask:
                    in_card += 1
                else:
                    self._push(rule, other, ell)
            for other in self.by_suffix.get(u[:ell], ()):
                if monomial and other.rhs is None:
                    continue
                if mask & other.mask:
                    in_card += 1
                else:
                    self._push(other, rule, ell)
        if not monomial:
            for ell in range(1, len(u)):
                if u[-ell:] == u[:ell]:
                    if mask:
                        in_card += 1
                    else:
                        self._push(rule, rule, ell)
        self.count["pairs_in_card"] += in_card

    def _buckets(self, u: str):
        """(map, key) for every proper prefix and suffix of u."""
        n = len(u)
        for k in range(1, n):
            yield self.by_prefix, u[:k]
            yield self.by_suffix, u[n - k:]

    def _register(self, rule: _Rule) -> None:
        self.memo.clear()
        self.index.add(rule)
        for table, key in self._buckets(rule.lead):
            table[key].add(rule)

    def _unregister(self, rule: _Rule) -> None:
        self.memo.clear()
        self.index.remove(rule)
        for table, key in self._buckets(rule.lead):
            bucket = table[key]
            bucket.discard(rule)
            if not bucket:
                del table[key]

    def _insert(self, lead: str, rhs: Optional[tuple], mask: int = 0) -> None:
        # Inclusion ambiguities: any older rule whose leading word contains
        # the new one is withdrawn and re-reduced later.  The new lead is
        # irreducible, so such a lead is strictly longer and has it as a
        # proper factor.  An empty lead (the ideal holds 1) lies in every
        # lead and withdraws every live rule.  `by_lead` holds rules in id
        # order: they enter it in id order, and a withdrawn lead comes back
        # only as a new rule with a larger id.  No star presentation tried
        # withdraws a rule (the fully dashed 6- to 8-leaf stars, the n <= 6
        # sweep, the CLI battery); hand-built rules such as the unit ideal do.
        doomed = [r for r in self.index.by_lead.values() if lead in r.lead]
        for r in doomed:
            r.alive = False
            self._unregister(r)
            self.pending.append(_element(r.lead, r.rhs))
        self.count["rules_withdrawn"] += len(doomed)

        rule = _Rule(self.next_id, lead, rhs, mask)
        self.next_id += 1
        self._enqueue_overlaps(rule)
        self._register(rule)
        self.count["peak_live_rules"] = max(self.count["peak_live_rules"], len(self.index.by_lead))

    def _spair(self, a: _Rule, b: _Rule, ell: int) -> tuple:
        # lead(a) * right == left * lead(b), so the S-polynomial is
        # left * rhs(b) - rhs(a) * right; a zero rule contributes nothing.
        u, v = a.lead, b.lead
        out = []
        if a.rhs is not None:
            s, e, r = a.rhs
            out.append((-s, e, r + v[ell:]))
        if b.rhs is not None:
            s, e, r = b.rhs
            out.append((s, e, u[:len(u) - ell] + r))
        return tuple(out)

    def run(self) -> tuple[tuple[tuple, ...], bool, CompletionStats]:
        count = self.count
        while self.pending or self.heap:
            if self.pending:
                self._resolve(self.pending.popleft())
                continue
            _, _, _, _, ell, a, b = heapq.heappop(self.heap)
            count["pairs_popped"] += 1
            if not (a.alive and b.alive):
                count["pairs_dead"] += 1
            elif self._composite(a.lead, b.lead, ell):  # without it: K7 0.12-0.23 s, K8 0.50-0.94 s
                count["pairs_composite"] += 1
            elif self._resolve(self._spair(a, b, ell)):
                count["pairs_inserted"] += 1
            else:
                count["pairs_to_zero"] += 1
        truncated = any(a.alive and b.alive for a, b in self.skipped)
        alive = sorted(self.index.by_lead.values(), key=lambda r: word_key(r.lead))
        # Final tail reduction so the returned basis is fully inter-reduced.
        # Later rules are reduced with the new right-hand sides, as in the
        # order-dependent case of a truncated completion they must be.
        for r in alive:
            if r.rhs is not None:
                r.rhs = self._normal(*r.rhs)
                self.memo.clear()
        return tuple((r.lead, r.rhs) for r in alive), not truncated, CompletionStats(**count)


def _map_words(rules: Iterable[tuple], f) -> tuple[tuple, ...]:
    """The rules with every word w replaced by ``f(w)``."""
    return tuple((f(lead), None if rhs is None else (rhs[0], rhs[1], f(rhs[2]))) for lead, rhs in rules)


def _relabel(rules: Iterable[tuple], table) -> tuple[tuple, ...]:
    """The rules with every word w replaced by ``w.translate(table)``.

    ``_map_words(rules, lambda w: w.translate(table))`` gives the same, but
    the call per word makes it ~35% slower on 60 rules, and it runs for
    every card.
    """
    return tuple(
        (lead.translate(table), None if rhs is None else (rhs[0], rhs[1], rhs[2].translate(table)))
        for lead, rhs in rules
    )


def _cards(rules: Sequence[tuple]) -> list[tuple[tuple[str, ...], tuple[tuple, ...]]]:
    """Every card of the rules: (kept letters, relabelled rules), one per letter.

    The card dropping letter x keeps the rules that do not use x, and the
    letters that occur in the rules other than x, relabelled 0..m-1 in
    increasing order; that keeps the deg-lex order.  Fewer than three
    letters give no cards.  ``_relabel(card, kept)`` maps a card's words
    back to the rules' letters.
    """
    uses = [lead if rhs is None else lead + rhs[2] for lead, rhs in rules]
    letters = sorted(set("".join(uses)))
    if len(letters) < 3:
        return []
    out = []
    for x in letters:
        kept = tuple(a for a in letters if a != x)
        table = {ord(a): i for i, a in enumerate(kept)}
        out.append((kept, _relabel((r for r, u in zip(rules, uses) if x not in u), table)))
    return out


def _seeds(rules: tuple[tuple, ...], bound: int, memo: dict) -> list[tuple]:
    """(lead, rhs, mask) seed rules from every card shared by several letters.

    Cards with equal relabelled rules form a group; each group of two or
    more is completed once, by `_complete`, and memoised in ``memo`` as
    (rules, complete).  Its rules, mapped back to each card's letters, are
    tagged with one bit per card that holds them.  No seeds when no card
    repeats, when a card is truncated, or when two cards give one lead
    different right-hand sides (never seen on a star presentation).
    """
    groups: dict[tuple, list] = defaultdict(list)
    for bit, (kept, card) in enumerate(_cards(rules)):
        groups[card].append((bit, kept))
    seeds: dict[str, list] = {}
    for card, members in groups.items():
        if len(members) < 2:
            continue
        done = memo.get(card)
        if done is None:
            done = memo[card] = _complete(card, bound, memo)[:2]
        card_rules, complete = done
        if not complete:
            return []
        for bit, kept in members:
            for lead, rhs in _relabel(card_rules, kept):
                seed = seeds.setdefault(lead, [rhs, 0])
                if seed[0] != rhs:
                    return []
                seed[1] |= 1 << bit
    return [(lead, rhs, mask) for lead, (rhs, mask) in sorted(seeds.items(), key=lambda item: word_key(item[0]))]


def _complete(rules: tuple[tuple, ...], bound: int, memo: dict) -> tuple[tuple[tuple, ...], bool, CompletionStats]:
    """`_TaggedCompletion` of rules, seeded by `_seeds`: (finished rules, complete, stats).

    A truncated seeded run gives way to the unseeded run, so truncated
    results do not depend on the seeding.
    """
    # Unseeded: K7 0.28-0.30 s, K8 1.24-1.45 s.  Seeding pays on the n<=6
    # sweep too: `cross_validate(6)` took a median 0.99 s of CPU seeded and
    # 1.14 s unseeded, seeded faster in each of 8 alternating fresh-process
    # rounds, with identical JSON.  Seeding from every card, not only from
    # repeated ones, took 2.12 s there.
    seeds = _seeds(rules, bound, memo)
    if seeds:
        done, complete, stats = _TaggedCompletion(rules, bound, seeds).run()
        if complete:
            return done, complete, stats
    return _TaggedCompletion(rules, bound).run()


def check_degree_bound(n: int, max_rel_degree: int, degree_bound: Optional[int] = None) -> int:
    """The completion degree bound on n leaves: the given one, or 2n + 8 when None.

    Raises ValueError when the bound is below the largest relation degree.
    """
    if degree_bound is None:
        degree_bound = 2 * n + 8
    if degree_bound < max_rel_degree:
        raise ValueError(
            f"degree bound {degree_bound} is smaller than the largest relation degree {max_rel_degree}"
        )
    return degree_bound


def buchberger(pres: Presentation, degree_bound: Optional[int] = None) -> GroebnerResult:
    """Complete the presentation into a (possibly truncated) Groebner basis.

    The default bound 2n + 8 leaves ample room for every overlap between
    leading words of length up to n + 2, which is where all observed bases
    in this family live, so completions normally certify completeness.
    """
    max_rel_degree = max((len(lead) for lead, _ in pres.rules), default=0)
    degree_bound = check_degree_bound(pres.n, max_rel_degree, degree_bound)
    memo: dict = {}
    rules, complete, stats = _complete(_map_words(pres.rules, encode_word), degree_bound, memo)
    rules = _map_words(rules, decode_word)
    stats = stats._replace(cards_completed=len(memo))
    return GroebnerResult(
        rules=rules,
        obstructions=frozenset(lead for lead, _ in rules),
        complete=complete,
        degree_bound=degree_bound,
        stats=stats,
    )
