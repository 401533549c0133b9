import itertools
import random
from fractions import Fraction

import pytest
from hypothesis import example, given, settings, strategies as st

from oracles import (
    is_antichain,
    minimal_antichain,
    quotient_dimensions,
    reference_buchberger,
    reference_reduce,
)
from tlstar.automaton import build_automaton, hilbert_prefix
from tlstar.graphs import TwoColoredStar, enumerate_graphs, parse_graph, prune_isolated_leaves
from tlstar.groebner import (
    Rewriter,
    _cards,
    _LeadTable,
    _map_words,
    _Rule,
    _seeds,
    _TaggedCompletion,
    buchberger,
    check_degree_bound,
    reduce,
)
from tlstar.ncpoly import NcPolynomial
from tlstar.presentation import Presentation, build_presentation, max_relation_degree, render_rules
from tlstar.scalars import Polynomial, RationalFunction, T

ONE = T / T


def nc(terms):
    return NcPolynomial(terms)


class TestReduce:
    def test_center_link_rewrites(self):
        pres = build_presentation(parse_graph("K(1;)"))
        result = reduce(nc({(1, 0, 1): ONE}), list(pres.relations))
        assert result == nc({(1,): T})

    def test_hand_rewrite_chain(self):
        basis = [
            nc({(2, 1): ONE, (1, 2): -ONE}),
            nc({(1, 1): ONE, (1,): -ONE}),
        ]
        assert reduce(nc({(1, 2, 1): ONE}), basis) == nc({(1, 2): ONE})

    def test_normal_words_fixed(self):
        pres = build_presentation(parse_graph("K(2; 1-2)"))
        rewriter = Rewriter(buchberger(pres).basis)
        for w in [(), (0,), (1, 2), (1, 0, 2)]:
            assert rewriter.reduce(nc({w: ONE})) == nc({w: ONE})

    def test_zero_input(self):
        assert reduce(NcPolynomial(), []) == NcPolynomial()

    def test_rejects_three_term_basis_element(self):
        basis = [nc({(1, 1): ONE, (1,): -ONE, (0,): ONE})]
        with pytest.raises(ValueError, match="not a binomial"):
            Rewriter(basis)

    def test_zero_basis_element_is_skipped(self):
        basis = [NcPolynomial(), nc({(2, 1): ONE, (1, 2): -ONE})]
        assert reduce(nc({(2, 1): T}), basis) == nc({(1, 2): T})

    def test_first_element_of_a_lead_wins(self):
        first, second = nc({(2, 1): ONE, (1, 2): -ONE}), nc({(2, 1): ONE, (0,): -ONE})
        assert reduce(nc({(2, 1): ONE}), [first, second]) == nc({(1, 2): ONE})
        assert reduce(nc({(2, 1): ONE}), [second, first]) == nc({(0,): ONE})

    def test_nonzero_constant_reduces_everything_to_zero(self):
        # A basis holding a nonzero constant generates the unit ideal: the
        # empty word, which every word contains, reduces to zero.
        basis = [nc({(1, 1): ONE, (1,): -T}), nc({(): T})]
        for w in [(), (0,), (1, 1), (2, 0, 1)]:
            assert reduce(nc({w: ONE}), basis) == NcPolynomial()

    @pytest.mark.parametrize("text", ["K(2; 1-2)", "K(3; 1-2,2-3)", "K(4; 1-2,3-4)"])
    def test_word_by_word_matches_largest_leftmost_on_relations(self, text):
        # The defining relations are not a Groebner basis, so normal forms
        # depend on the rewriting order; per-word leftmost rewriting must
        # still agree with rewriting the largest monomial leftmost first.
        g = parse_graph(text)
        relations = build_presentation(g).relations
        rng = random.Random(404)
        for _ in range(60):
            p = random_polynomial(rng, g.n)
            assert reduce(p, relations) == reference_reduce(p, relations)


class TestBuchberger:
    def test_smallest_instance_closes_immediately(self):
        pres = build_presentation(parse_graph("K(1;)"))
        res = buchberger(pres)
        assert res.complete
        assert set(res.basis) == set(pres.relations)
        assert res.obstructions == {(0, 0), (1, 1), (1, 0, 1), (0, 1, 0)}

    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_orthogonal_star_obstructions(self, n):
        res = buchberger(build_presentation(TwoColoredStar(n, [])))
        expected = {(i, i) for i in range(n + 1)}
        expected |= {(i, j) for i in range(1, n + 1) for j in range(1, n + 1) if i != j}
        expected |= {(i, 0, i) for i in range(1, n + 1)}
        expected |= {(0, i, 0) for i in range(1, n + 1)}
        assert res.complete and res.obstructions == expected

    def test_partial_reference_words_present(self):
        res = buchberger(build_presentation(parse_graph("K(5; 1-2,2-3,4-5)")))
        assert res.complete
        assert (2, 0, 1, 2) in res.obstructions
        assert (1, 2, 0, 1) in res.obstructions

    def test_commutation_orientation_in_antichain(self):
        res = buchberger(build_presentation(parse_graph("K(2; 1-2)")))
        assert (2, 1) in res.obstructions and (1, 2) not in res.obstructions

    def test_monic_and_interreduced(self):
        res = buchberger(build_presentation(parse_graph("K(3; 1-2,2-3)")))
        for p in res.basis:
            assert p.leading_coefficient() == 1
        assert is_antichain(res.obstructions)

    def test_defining_relations_reduce_to_zero(self):
        for text in ["K(2; 1-2)", "K(3; 1-2,2-3)", "K(4; 1-2,3-4)"]:
            pres = build_presentation(parse_graph(text))
            rewriter = Rewriter(buchberger(pres).basis)
            for rel in pres.relations:
                assert rewriter.reduce(rel) == NcPolynomial()

    def test_degree_bound_too_small(self):
        with pytest.raises(ValueError):
            buchberger(build_presentation(parse_graph("K(2; 1-2)")), degree_bound=2)

    def test_truncation_reported(self):
        res = buchberger(build_presentation(parse_graph("K(5; 1-2,2-3,4-5)")), degree_bound=3)
        assert not res.complete

    def test_deterministic(self):
        pres = build_presentation(parse_graph("K(4; 1-2,2-3,3-4)"))
        r1, r2 = buchberger(pres), buchberger(pres)
        assert r1.obstructions == r2.obstructions
        assert [p.format() for p in r1.basis] == [p.format() for p in r2.basis]


class TestObstructions:
    def test_plain_leads(self):
        res = buchberger(build_presentation(parse_graph("K(1;)")))
        assert minimal_antichain(p.leading_word() for p in res.basis) == res.obstructions

    def test_factor_absorbed(self):
        assert minimal_antichain([(1, 2), (1, 2, 0)]) == {(1, 2)}


def test_deleting_a_leaf_restricts_the_obstructions(engine):
    """The obstructions of G - x are G's obstructions that avoid letter x, relabelled.

    Checked for every class on at most 6 leaves, isolated leaves included,
    and every leaf x: 1,167 (class, leaf) pairs.
    """
    for n in range(1, 7):
        for g in enumerate_graphs(n):
            result, _, _ = engine.full(g)
            assert result.complete, str(g)
            for x in range(1, n + 1):
                minor = TwoColoredStar(n - 1, [(a - (a > x), b - (b > x))
                                               for a, b in g.dashed if x not in (a, b)])
                restricted, _, _ = engine.full(minor)
                assert restricted.complete, str(minor)
                lowered = {tuple(a - (a > x) for a in w) for w in result.obstructions if x not in w}
                assert lowered == set(restricted.obstructions), (str(g), x)


class TestQuotientDimensionOracle:
    """Engine normal-word counts vs direct linear algebra on relation instances."""

    @pytest.mark.parametrize("t", [Fraction(1, 2), Fraction(1, 3)])
    def test_all_classes_up_to_three_leaves(self, t):
        for n in (1, 2, 3):
            for g in enumerate_graphs(n):
                res = buchberger(build_presentation(g))
                aut = build_automaton(res.obstructions, n + 1)
                prefix = hilbert_prefix(aut, 6)
                cumulative = [sum(prefix[: k + 1]) for k in range(7)]
                assert cumulative == quotient_dimensions(g, 6, t=t), str(g)

    def test_symbolic_matches_specialised_counts(self):
        # The counts above are checked at rational t; they hold over Q(t)
        # too, since completing over Q(t) and at t = 1/2 gives one
        # obstruction set, the engine's.
        for g in enumerate_graphs(3):
            pres = build_presentation(g)
            obs = buchberger(pres).obstructions
            assert reference_buchberger(pres).obstructions == obs
            assert reference_buchberger(pres, t=Fraction(1, 2)).obstructions == obs


class TestTauIndependence:
    def test_obstructions_match_across_specialisations(self):
        for n in (1, 2, 3):
            for g in enumerate_graphs(n):
                pres = build_presentation(g)
                obs = buchberger(pres).obstructions
                for t in (Fraction(1, 2), Fraction(1, 3), Fraction(2, 3)):
                    assert reference_buchberger(pres, t=t).obstructions == obs, (str(g), t)


def random_scalar(rng: random.Random) -> RationalFunction:
    coeffs = [Fraction(rng.randint(-3, 3), rng.randint(1, 3)) for _ in range(rng.randint(1, 3))]
    num = Polynomial(coeffs)
    if not num:
        num = Polynomial((Fraction(1),))
    if rng.random() < 0.25:
        return RationalFunction(num, Polynomial((Fraction(1), Fraction(1))))  # .../(t+1)
    return RationalFunction(num)


def random_polynomial(rng: random.Random, n: int, max_terms=4, max_len=5) -> NcPolynomial:
    terms = {}
    for _ in range(rng.randint(1, max_terms)):
        w = tuple(rng.randint(0, n) for _ in range(rng.randint(0, max_len)))
        terms[w] = random_scalar(rng)
    return NcPolynomial(terms)


class TestReductionProperties:
    GRAPHS = ["K(2; 1-2)", "K(3; 1-2,2-3)", "K(3; 1-2,1-3,2-3)", "K(4; 1-2,3-4)"]

    def _basis(self, text):
        return buchberger(build_presentation(parse_graph(text))).basis

    def _rewriter(self, text):
        return Rewriter(self._basis(text)), parse_graph(text).n

    @pytest.mark.parametrize("text", GRAPHS)
    def test_idempotent(self, text):
        rewriter, n = self._rewriter(text)
        rng = random.Random(101)
        for _ in range(60):
            p = random_polynomial(rng, n)
            q = rewriter.reduce(p)
            assert rewriter.reduce(q) == q

    @pytest.mark.parametrize("text", GRAPHS)
    def test_linear(self, text):
        rewriter, n = self._rewriter(text)
        rng = random.Random(202)
        for _ in range(40):
            p, q = random_polynomial(rng, n), random_polynomial(rng, n)
            a, b = random_scalar(rng), random_scalar(rng)
            lhs = rewriter.reduce(p.scale(a) + q.scale(b))
            rhs = rewriter.reduce(p).scale(a) + rewriter.reduce(q).scale(b)
            assert lhs == rhs

    @pytest.mark.parametrize("text", GRAPHS)
    def test_confluent_across_strategies(self, text):
        basis = self._basis(text)
        rewriter, n = Rewriter(basis), parse_graph(text).n
        rng = random.Random(303)
        for _ in range(40):
            p = random_polynomial(rng, n)
            forms = {rewriter.reduce(p).format()} | {
                reference_reduce(p, basis, s).format()
                for s in ("largest-leftmost", "largest-rightmost",
                          "smallest-leftmost", "smallest-rightmost")
            }
            assert len(forms) == 1


def _same_completion(got, want, t=T):
    """The engine's result, rendered at t, against the oracle's completion at t."""
    assert got.obstructions == want.obstructions
    assert got.complete == want.complete
    assert sorted(p.format() for p in render_rules(got.rules, t)) == sorted(p.format() for p in want.basis)


# The engine runs once for every t; the oracle completes the relations
# rendered at each t, over Q(t) and at t = 1/2.
SCALARS = pytest.mark.parametrize("t", [T, Fraction(1, 2)], ids=["symbolic", "1/2"])


class TestReferenceCompletion:
    """The tagged engine against the scalar-polynomial completion oracle."""

    @SCALARS
    def test_every_class_up_to_five_leaves(self, t):
        for n in range(1, 6):
            for g in enumerate_graphs(n):
                pres = build_presentation(g)
                _same_completion(buchberger(pres), reference_buchberger(pres, t=t), t)

    @SCALARS
    @pytest.mark.parametrize("text", [
        "K(5; 1-2,2-3,4-5)",
        "K(4; 1-2,2-3,3-4,1-4)",
        "K(4; 1-2,1-3,1-4,2-3,2-4,3-4)",
    ])
    def test_every_truncation(self, text, t):
        g = parse_graph(text)
        pres = build_presentation(g)
        for bound in range(3, 2 * g.n + 9):
            _same_completion(buchberger(pres, bound), reference_buchberger(pres, bound, t), t)

    @SCALARS
    def test_alphabet_beyond_byte_range(self, t):
        # Leaves renumbered past 255 and past 65,535, in order, so deglex
        # order is kept and completion's words hold 2- and 4-byte code points.
        pres = build_presentation(parse_graph("K(4; 1-2,2-3,3-4,1-4)"))
        for offset in (296, 70_000):
            shift = {0: 0, **{k: k + offset for k in range(1, 5)}}
            big = Presentation(n=offset + 4, rules=_relabel_rules(pres.rules, shift))
            res = buchberger(big)
            _same_completion(res, reference_buchberger(big, t=t), t)
            assert res.obstructions == {_relabel_word(w, shift) for w in buchberger(pres).obstructions}

    @pytest.mark.parametrize("text", ["K(4; 1-2,2-3,3-4,1-4)", "K(5; 1-2,2-3,4-5)"])
    @pytest.mark.parametrize("bound", [5, None])
    def test_wide_alphabet_equals_byte_words(self, text, bound):
        # CPython stores a str with 1, 2 or 4 bytes a code point, by its
        # largest letter; the same rules renumbered past 255 and past 65,535
        # must complete to the same result, counters included.
        pres = build_presentation(parse_graph(text))
        bound = check_degree_bound(pres.n, max_relation_degree(pres.n), bound)
        want = buchberger(pres, bound)
        for offset in (296, 70_000):
            shift = {0: 0, **{k: k + offset for k in range(1, pres.n + 1)}}
            unshift = {v: k for k, v in shift.items()}
            big = Presentation(n=offset + pres.n, rules=_relabel_rules(pres.rules, shift))
            assert big.alphabet_size() > 256
            got = buchberger(big, bound)
            assert _relabel_rules(got.rules, unshift) == want.rules
            assert {_relabel_word(w, unshift) for w in got.obstructions} == want.obstructions
            assert (got.complete, got.stats) == (want.complete, want.stats)

    def test_tag_mismatch_makes_zero_rule(self):
        # p1 p1 = t p1 and p1 p1 = p1 give (1 - t) p1 = 0, hence p1 = 0.
        rules = (((1, 1), (1, 1, (1,))), ((1, 1), (1, 0, (1,))))
        pres = Presentation(n=1, rules=rules)
        assert pres.relations == (nc({(1, 1): ONE, (1,): -T}), nc({(1, 1): ONE, (1,): -ONE}))
        res = buchberger(pres)
        _same_completion(res, reference_buchberger(pres))
        assert res.obstructions == {(1,)} and res.complete


def _relabel_word(w, table):
    return tuple(table[a] for a in w)


def _relabel_rules(rules, table):
    return tuple((_relabel_word(lead, table), None if rhs is None else (rhs[0], rhs[1], _relabel_word(rhs[2], table)))
                 for lead, rhs in rules)


class TestUnitIdeal:
    def test_empty_lead_withdraws_every_rule(self):
        # p2 p2 = t and p2 p2 p2 = 1 give p2 = 1/t and then t = 1/t^2, so
        # the ideal holds 1: one rule, () -> 0, whatever the order and bound.
        rules = (((0, 2, 1), None), ((2, 2), (1, 1, ())), ((2, 2, 2), (1, 0, ())))
        for order in itertools.permutations(rules):
            for bound in range(5, 10):
                pres = Presentation(n=2, rules=order)
                res = buchberger(pres, bound)
                assert res.rules == (((), None),), (order, bound)
                assert res.obstructions == {()} and res.complete
                _same_completion(res, reference_buchberger(pres, bound))


def _fully_dashed(n):
    return TwoColoredStar(n, [(i, j) for i in range(1, n + 1) for j in range(i + 1, n + 1)])


class TestPrimeOverlaps:
    """Skipping composite overlaps leaves every completion as the oracle's."""

    def test_fully_dashed_six_leaves(self):
        pres = build_presentation(_fully_dashed(6))
        res = buchberger(pres)
        _same_completion(res, reference_buchberger(pres, t=Fraction(1, 2)), Fraction(1, 2))
        assert res.stats.pairs_composite > 0

    def test_fully_dashed_five_leaves_every_truncation(self):
        pres = build_presentation(_fully_dashed(5))
        for bound in range(3, 19):
            want = reference_buchberger(pres, bound, Fraction(1, 2))
            _same_completion(buchberger(pres, bound), want, Fraction(1, 2))


def _renders_monic(rules, t):
    """The completion is t-free: rendered at t, each rule is monic with its own lead."""
    got = [(p.leading_word(), p.leading_coefficient()) for p in render_rules(rules, t)]
    assert got == [(lead, t / t) for lead, _ in rules]


class TestCompletionStats:
    @pytest.mark.parametrize("text", [
        "K(1;)", "K(5; 1-2,2-3,4-5)", "K(4; 1-2,2-3,3-4,1-4)", "K(4; 1-2,1-3,1-4,2-3,2-4,3-4)",
    ])
    @pytest.mark.parametrize("bound", [5, None])
    def test_every_popped_pair_accounted_for(self, text, bound):
        s = buchberger(build_presentation(parse_graph(text)), bound).stats
        assert s.pairs_popped == s.pairs_enqueued
        assert s.pairs_popped == s.pairs_dead + s.pairs_composite + s.pairs_to_zero + s.pairs_inserted

    def test_fully_dashed_four_leaves(self):
        # Seeded from the fully dashed K3 card, shared by all four leaves,
        # which is itself seeded from K2, which is seeded from K1.
        res = buchberger(build_presentation(_fully_dashed(4)))
        s = res.stats
        assert s.pairs_composite == 104
        assert (s.pairs_popped, s.pairs_to_zero, s.pairs_inserted) == (194, 86, 4)
        assert (s.pairs_in_card, s.cards_completed) == (409, 3)
        assert s.pairs_over_bound == 0 and s.peak_live_rules == len(res.rules) == 47

    @SCALARS
    def test_fully_dashed_six_leaves(self, t):
        # Composite pairs are counted where they are found, at push or at
        # pop; an overlap probe that misses a position shows up here first.
        res = buchberger(build_presentation(_fully_dashed(6)))
        s = res.stats
        assert s.pairs_enqueued == s.pairs_popped == 2_258
        assert (s.pairs_composite, s.pairs_to_zero, s.pairs_inserted) == (1_812, 440, 6)
        assert (s.pairs_in_card, s.cards_completed) == (8_437, 5)
        assert s.peak_live_rules == 220
        _renders_monic(res.rules, t)

    def test_fully_dashed_seven_leaves(self):
        # The first pin on a large deck: 477 seeds from the seven K6 cards.
        res = buchberger(build_presentation(_fully_dashed(7)))
        assert res.complete
        assert tuple(res.stats) == (7_751, 0, 39_019, 7_751, 0, 6_769, 975, 7, 0, 484, 6)

    @SCALARS
    def test_no_repeated_card(self, t):
        # No two cards of this graph relabel to the same rules, so nothing
        # is seeded and the run is the unseeded completion, pair for pair.
        res = buchberger(build_presentation(parse_graph("K(5; 1-2,1-3,1-4,1-5,2-3,2-4,3-5)")))
        s = res.stats
        assert s.pairs_enqueued == s.pairs_popped == 595
        assert (s.pairs_composite, s.pairs_to_zero, s.pairs_inserted) == (138, 431, 26)
        assert (s.pairs_in_card, s.cards_completed) == (0, 0)
        assert s.peak_live_rules == len(res.rules) == 55
        _renders_monic(res.rules, t)

    def test_truncation_counts_pairs_over_bound(self):
        s = buchberger(build_presentation(parse_graph("K(5; 1-2,2-3,4-5)")), degree_bound=3).stats
        assert s.pairs_over_bound > 0

    def test_withdrawals_counted(self):
        # p1 p1 -> t p1 is withdrawn when p1 -> 0 arrives.
        rules = (((1, 1), (1, 1, (1,))), ((1, 1), (1, 0, (1,))))
        s = buchberger(Presentation(n=1, rules=rules)).stats
        assert s.rules_withdrawn == 1

    def test_not_in_json(self):
        res = buchberger(build_presentation(parse_graph("K(2; 1-2)")))
        assert set(res.to_json_dict()) == {"degree_bound", "complete", "basis_size", "obstructions"}


def _str_rules(pres):
    return tuple(("".join(map(chr, lead)), None if rhs is None else (rhs[0], rhs[1], "".join(map(chr, rhs[2]))))
                 for lead, rhs in pres.rules)


def _ord_rules(rules):
    return tuple((tuple(map(ord, lead)), None if rhs is None else (rhs[0], rhs[1], tuple(map(ord, rhs[2]))))
                 for lead, rhs in rules)


class TestDeckSeeding:
    """Seeded completion against the unseeded `_TaggedCompletion` of the same rules."""

    REFERENCE_GRAPHS = [
        "K(5; 1-2,2-3,4-5)",
        "K(4; 1-2,2-3,3-4,1-4)",
        "K(4; 1-2,1-3,1-4,2-3,2-4,3-4)",
        "K(5; 1-2,1-3,1-4,1-5,2-3,2-4,2-5,3-4,3-5,4-5)",
    ]

    def _same_as_unseeded(self, pres, bound=None):
        res = buchberger(pres, bound)
        rules, complete, _ = _TaggedCompletion(_str_rules(pres), res.degree_bound).run()
        assert res.rules == _ord_rules(rules)
        assert res.obstructions == {lead for lead, _ in res.rules}
        assert res.complete == complete
        return res

    def test_every_class_up_to_five_leaves(self):
        seeded = 0
        for n in range(1, 6):
            for g in enumerate_graphs(n):
                res = self._same_as_unseeded(build_presentation(g))
                seeded += res.stats.pairs_in_card > 0
        assert seeded > 0

    @pytest.mark.parametrize("text", REFERENCE_GRAPHS)
    def test_every_bound(self, text):
        # A truncated result is the unseeded run's: it never skips a pair
        # for a shared card.
        g = parse_graph(text)
        pres = build_presentation(g)
        truncated = 0
        for bound in range(3, 2 * g.n + 9):
            res = self._same_as_unseeded(pres, bound)
            if not res.complete:
                truncated += 1
                assert res.stats.pairs_in_card == 0
        assert truncated > 0

    def test_fully_dashed_six_leaves(self):
        res = self._same_as_unseeded(build_presentation(_fully_dashed(6)))
        assert res.complete and res.stats.pairs_in_card > 0

    @pytest.mark.parametrize("rules", [
        (((0, 0), (1, 0, (2,))), ((0, 0), (1, 0, (1,)))),
        (((3, 3), (-1, 0, (0, 1))), ((0, 0), (1, 1, (2,))), ((3, 3), (-1, 0, (1, 2))),
         ((2, 0), (1, 1, (1, 1)))),
        # Seeded, these three kept a lead inside another: p1 p1 -> -t p2 from
        # the card dropping p0 beside p1 p1 p1 -> p1 p1 from the card
        # dropping p2, which lacks p1 p1;
        (((0, 0), (-1, 1, (1,))), ((1, 1), (-1, 1, (2,))), ((1, 0, 1), (1, 0, (0, 1))),
         ((1, 1, 0), (1, 0, (0, 1, 1))), ((2, 0, 2), (1, 0, (0, 2))), ((2, 1, 2), (1, 0, (1, 2))),
         ((2, 2, 0), (1, 0, (0, 2, 2))), ((2, 2, 1), (1, 0, (1, 2, 2)))),
        # p2 -> 0 from the card dropping p1 beside p2 p2 p2 -> 0 from the card
        # dropping p3, which lacks p2 -> 0;
        tuple(((j, i), (-1, 0, (i,))) for j in range(4) for i in range(j))
        + (((0, 1, 1), (1, 1, (0, 0))), ((0, 2, 2), (1, 1, (0, 0))), ((0, 3, 3), (1, 1, (0, 0))),
           ((1, 1, 1), (-1, 0, (0, 0, 1))), ((1, 2, 2), (1, 1, (1, 1))), ((1, 3, 3), (1, 1, (1, 1))),
           ((2, 2, 2), (-1, 0, (0, 0, 2))), ((2, 3, 3), (1, 1, (2, 2))), ((3, 3, 3), (-1, 0, (0, 0, 3)))),
        # and the empty lead from the cards dropping p0 and p1, which hold
        # the unit ideal, beside p0 -> t from the other two, which do not.
        (((0,), (1, 1, ())), ((1,), (1, 1, ())), ((2,), (1, 1, ())), ((3,), (1, 1, ())),
         ((3, 3), (-1, 0, (3, 2)))),
    ])
    def test_cards_that_disagree_give_no_seeds(self, rules):
        # In the first, p0 p0 = p2 and p0 p0 = p1: the cards dropping p1 and
        # p2 relabel to equal rules, which map back to two right-hand sides
        # for p0 p0.  In the others a card rule is missing from a completed
        # card whose letter its lead does not use.  Star presentations never
        # do this; other rules may.
        n = max(max(lead + rhs[2]) for lead, rhs in rules)
        pres = Presentation(n=n, rules=rules)
        res = self._same_as_unseeded(pres)
        assert _seeds(_str_rules(pres), res.degree_bound, {}) == []
        _same_completion(res, reference_buchberger(pres))
        assert res.stats.cards_completed > 0 and res.stats.pairs_in_card == 0

    def test_repeated_cards_always_seed_a_star(self):
        # The cards of a star presentation always agree, so every pruned
        # class with two equal cards is seeded.
        repeated = 0
        for n in range(1, 7):
            for g in enumerate_graphs(n):
                if prune_isolated_leaves(g)[1]:
                    continue
                pres = build_presentation(g)
                rules = _str_rules(pres)
                cards = [card for _, card in _cards(rules)]
                if len(set(cards)) < len(cards):
                    repeated += 1
                    assert _seeds(rules, check_degree_bound(n, max_relation_degree(n)), {}), str(g)
        assert repeated == 118

    @pytest.mark.parametrize("text", REFERENCE_GRAPHS + ["K(6; 1-2,1-3,1-4,1-5,1-6,2-3,2-4,2-5,2-6,3-4,3-5,3-6,4-5,4-6,5-6)"])
    def test_cards_agree_on_shared_leads(self, text):
        # Every card's finished rules, mapped back to its letters: a lead
        # two cards share has one right-hand side, and the leads form an
        # antichain, so the seeds go in as rules without any reduction.
        pres = build_presentation(parse_graph(text))
        bound = check_degree_bound(pres.n, max_relation_degree(pres.n))
        union = {}
        for kept, card in _cards(_str_rules(pres)):
            rules, complete, _ = _TaggedCompletion(card, bound).run()
            assert complete
            for lead, rhs in _map_words(rules, lambda w: w.translate(kept)):
                assert union.setdefault(lead, rhs) == rhs
        assert is_antichain({tuple(map(ord, lead)) for lead in union})


LEADS = st.sets(st.text(alphabet="abc", max_size=4), max_size=8)


class TestLeadTable:
    @settings(max_examples=300, deadline=None)
    @given(leads=LEADS, removed=LEADS, word=st.text(alphabet="abc", max_size=12))
    @example(leads={""}, removed=set(), word="")  # the unit ideal's lead occurs in the empty word
    @example(leads={"", "ab"}, removed=set(), word="ab")
    @example(leads={"ab"}, removed=set(), word="")
    @example(leads={"", "a"}, removed={""}, word="ba")
    def test_find_is_the_least_position_then_length(self, leads, removed, word):
        # The completion's `_normal` rewrites at this occurrence and relies
        # on it being the leftmost: an independent scan of every occurrence.
        table = _LeadTable()
        for i, lead in enumerate(sorted(leads)):
            table.add(_Rule(i, lead, None))
        for rule in list(table.by_lead.values()):
            if rule.lead in removed:
                table.remove(rule)
        live = leads - removed
        hits = [(p, len(u)) for u in live for p in range(len(word) - len(u) + 1) if word[p:p + len(u)] == u]
        found = table.find(word)
        if not hits:
            assert found is None
            return
        pos, rule = found
        assert rule.lead in live and word[pos:pos + len(rule.lead)] == rule.lead
        assert (pos, len(rule.lead)) == min(hits)


def _leftmost_normal(index, sign, exp, w):
    """Tagged normal form of sign * t**exp * w, rewriting at ``index.find`` without a memo."""
    while (found := index.find(w)) is not None:
        pos, rule = found
        if rule.rhs is None:
            return None
        s, e, r = rule.rhs
        w = w[:pos] + r + w[pos + len(rule.lead):]
        sign, exp = sign * s, exp + e
    return sign, exp, w


def _rewrite_path(index, w):
    """Every word the leftmost rewriting of w passes through, w first."""
    path = [w]
    while (found := index.find(w)) is not None and found[1].rhs is not None:
        pos, rule = found
        w = w[:pos] + rule.rhs[2] + w[pos + len(rule.lead):]
        path.append(w)
    return path


class TestNormalFormMemo:
    """`_TaggedCompletion._normal` with a warm memo against memo-free leftmost rewriting."""

    def _check(self, pres, bound, seed, words=40):
        completion = _TaggedCompletion(_str_rules(pres), bound)
        _, complete, _ = completion.run()
        index = completion.index
        letters = sorted(set("".join(index.by_lead)))
        rng = random.Random(seed)
        hits = 0
        for _ in range(words):
            w = "".join(rng.choices(letters, k=rng.randint(0, 2 * bound)))
            # The words on w's own rewriting path are memoised with tags
            # relative to w; ask for them too, in random order.
            path = _rewrite_path(index, w)
            rng.shuffle(path)
            for v in [w] + path:
                hits += v in completion.memo
                assert completion._normal(1, 0, v) == _leftmost_normal(index, 1, 0, v), v
        assert hits > 0
        return complete

    def test_every_class_up_to_four_leaves(self):
        for n in range(1, 5):
            for k, g in enumerate(enumerate_graphs(n)):
                pres = build_presentation(g)
                bound = check_degree_bound(pres.n, max_relation_degree(pres.n))
                assert self._check(pres, bound, seed=100 * n + k), str(g)

    def test_fully_dashed_five_leaves_truncated(self):
        assert not self._check(build_presentation(_fully_dashed(5)), 8, seed=5)

    def test_anticommuting_letters(self):
        # Star presentations rewrite with sign +1 only; here every rule flips
        # the sign, so a wrong relative sign in the memo shows.
        rules = (((1, 0), (-1, 0, (0, 1))), ((2, 1), (-1, 1, (1, 2))), ((2, 0), (-1, 0, (0, 2))))
        assert self._check(Presentation(n=2, rules=rules), 8, seed=7)
