import itertools

import pytest
from hypothesis import assume, given, settings, strategies as st

from oracles import count_all_normal_words, delete_dashed_edge, has_factor, minimal_antichain, normal_word_counts
from tlstar import cli
from tlstar.automaton import build_automaton, hilbert_prefix
from tlstar.graphs import (
    TwoColoredStar,
    enumerate_graphs,
    parse_graph,
    prune_isolated_leaves,
)
from tlstar.growth import (
    classify_growth,
    find_free_pair_violation,
    free_pair_window_bound,
    search_free_pair,
    verify_free_pair,
)
from tlstar.ncpoly import word_key
from tlstar.report import run_engine

COARSE_ORDER = {"finite": 0, "polynomial": 1, "exponential": 2}


def engine_parts(g, degree_bound=None):
    run = run_engine(g, degree_bound=degree_bound)
    return run.groebner, run.automaton, run.growth


class TestClassify:
    def test_triangle_finite(self):
        _, aut, growth = engine_parts(parse_graph("K(3; 1-2,1-3,2-3)"))
        assert growth.coarse == "finite"
        assert growth.dimension == count_all_normal_words(aut.obstructions, 4)

    def test_fully_dashed_four_leaves_linear(self):
        g = TwoColoredStar(4, list(itertools.combinations(range(1, 5), 2)))
        _, _, growth = engine_parts(g)
        assert growth.coarse == "polynomial" and growth.gk_degree == 1

    def test_reference_exponential(self):
        _, _, growth = engine_parts(parse_graph("K(5; 1-2,2-3,4-5)"))
        assert growth.coarse == "exponential"
        assert growth.dimension is None and growth.gk_degree is None

    def test_incomplete_sets_upper_bound_flag(self):
        _, _, growth = engine_parts(parse_graph("K(5; 1-2,2-3,4-5)"), degree_bound=3)
        assert growth.upper_bound_only

    def test_finite_iff_hilbert_eventually_zero(self):
        for n in (1, 2, 3):
            for g in enumerate_graphs(n):
                res, aut, growth = engine_parts(g)
                prefix = hilbert_prefix(aut, 40)
                if growth.coarse == "finite":
                    assert prefix[-1] == 0
                    assert growth.dimension == sum(prefix)
                else:
                    assert prefix[-1] > 0

    def test_polynomial_one_iff_bounded_nonzero_tail(self):
        # Linear growth shows up as a bounded, strictly positive, eventually
        # periodic count sequence (the n = 4 family settles into period 3).
        for g in enumerate_graphs(4):
            res, aut, growth = engine_parts(g)
            prefix = hilbert_prefix(aut, 60)
            tail = prefix[40:]
            if growth.coarse == "polynomial":
                assert growth.gk_degree == 1
                assert min(tail) > 0
                assert any(
                    all(prefix[40 + i] == prefix[40 + i + p] for i in range(20 - p))
                    for p in (1, 2, 3, 6)
                )
            else:
                assert growth.coarse == "finite"
                assert tail == [0] * len(tail)


class TestSyntheticGrowthDegrees:
    """Obstruction sets with known growth, independent of any star algebra."""

    def test_descending_pairs_give_polynomial_of_higher_degree(self):
        # Avoiding {10} leaves 0^a 1^b: counts N+1, cumulative quadratic.
        aut = build_automaton({(1, 0)}, 2)
        growth = classify_growth(aut)
        assert growth.coarse == "polynomial" and growth.gk_degree == 2
        assert hilbert_prefix(aut, 6) == [1, 2, 3, 4, 5, 6, 7]
        # Avoiding all descending pairs on three letters: 0^a 1^b 2^c, cubic.
        aut = build_automaton({(1, 0), (2, 0), (2, 1)}, 3)
        growth = classify_growth(aut)
        assert growth.coarse == "polynomial" and growth.gk_degree == 3

    def test_free_algebra_on_two_letters_is_exponential(self):
        # One state with both letters looping on it: the certificate is the two letters.
        aut = build_automaton(set(), 2)
        assert classify_growth(aut).coarse == "exponential"
        cert = search_free_pair(aut)
        assert (cert.q1, cert.q2) == ((0,), (1,))

    def test_long_single_obstruction_is_finite(self):
        # One state per proper prefix of 0^1500; far deeper than Python's recursion limit.
        growth = classify_growth(build_automaton({(0,) * 1500}, 1))
        assert growth.coarse == "finite" and growth.dimension == 1500

    @given(
        st.sets(st.lists(st.integers(0, 2), min_size=1, max_size=3).map(tuple), max_size=6),
        st.integers(1, 4),
    )
    @settings(max_examples=100, deadline=None)
    def test_finite_dimension_counts_every_normal_word(self, words, length):
        # Every word of this length is or contains an obstruction, so all normal words are shorter.
        obs = minimal_antichain(words | set(itertools.product(range(3), repeat=length)))
        growth = classify_growth(build_automaton(obs, 3))
        assert growth.coarse == "finite"
        assert growth.dimension == sum(normal_word_counts(obs, 3, length))

    def test_long_acyclic_chain_before_a_loop_is_polynomial(self):
        # Avoiding {10, 0^1500} leaves 0^a 1^b with a < 1500: over 1500 components on one path.
        growth = classify_growth(build_automaton({(1, 0), (0,) * 1500}, 2))
        assert growth.coarse == "polynomial" and growth.gk_degree == 1

    def test_single_letter_loop_is_polynomial_degree_one(self):
        aut = build_automaton(set(), 1)
        growth = classify_growth(aut)
        assert growth.coarse == "polynomial" and growth.gk_degree == 1


class TestVerifyFreePair:
    def test_reference_pair_is_free(self):
        res, _, _ = engine_parts(parse_graph("K(5; 1-2,2-3,4-5)"))
        assert verify_free_pair((0, 1, 2, 0, 4, 5), (0, 2, 3, 0, 4, 5), res.obstructions)

    def test_degenerate_prefix_pair_fails(self):
        res, _, _ = engine_parts(parse_graph("K(5; 1-2,2-3,4-5)"))
        violation = find_free_pair_violation((0,), (0, 1), res.obstructions)
        assert violation is not None
        _, word, pos, obstruction = violation
        assert obstruction == (0, 0)
        assert word[pos:pos + 2] == (0, 0)

    def test_linear_growth_blocks_fail(self):
        res, _, _ = engine_parts(parse_graph("K(4; 1-2,3-4)"))
        assert not verify_free_pair((0, 1, 2), (0, 3, 4), res.obstructions)

    def test_rejects_equal_or_empty_blocks(self):
        with pytest.raises(ValueError):
            verify_free_pair((0, 1), (0, 1), frozenset())
        with pytest.raises(ValueError):
            verify_free_pair((), (0, 1), frozenset())

    def test_rejects_letter_outside_code_points(self):
        with pytest.raises(ValueError, match=r"^letter -1 of word \(-1,\) lies outside 0\.\.0x10FFFF$"):
            find_free_pair_violation((0,), (-1,), frozenset({(0, 0)}))

    def test_window_bound(self):
        obs = frozenset({(0, 0, 0, 0, 0, 0, 0, 0)})  # length 8
        assert free_pair_window_bound((1, 2, 3), (1, 2), obs) == 5  # ceil(8/2) + 1
        assert free_pair_window_bound((1, 2, 3), (1, 2, 4), frozenset()) == 1


def _first_violation_by_brute_force(q1, q2, obs):
    """Block sequences in product order, obstructions in deg-lex order, leftmost position."""
    for choice in itertools.product((0, 1), repeat=free_pair_window_bound(q1, q2, obs)):
        word = tuple(x for b in choice for x in (q1, q2)[b])
        for o in sorted(obs, key=word_key):
            if has_factor(word, o):
                end = next(k for k in range(len(o), len(word) + 1) if has_factor(word[:k], o))
                return choice, word, end - len(o), o
    return None


letters = st.integers(min_value=0, max_value=2)
blocks = st.lists(letters, min_size=1, max_size=4).map(tuple)
antichains = st.lists(st.lists(letters, max_size=4).map(tuple), max_size=6).map(minimal_antichain)


class TestFirstViolation:
    @settings(max_examples=300, deadline=None)
    @given(blocks, blocks, antichains)
    def test_matches_brute_force(self, q1, q2, obs):
        assume(q1 != q2)
        assert find_free_pair_violation(q1, q2, obs) == _first_violation_by_brute_force(q1, q2, obs)


class TestSearchFreePair:
    @pytest.mark.parametrize("text", [
        "K(5; 1-2,2-3,4-5)",
        "K(6; 1-6,2-3,4-5)",
        "K(5; 1-2,1-4,1-5,2-3)",
    ])
    def test_found_and_verified_for_exponential_graphs(self, text):
        res, aut, growth = engine_parts(parse_graph(text))
        assert growth.coarse == "exponential"
        cert = search_free_pair(aut)
        assert cert is not None
        assert cert.q1 != cert.q2
        assert cert.q1 + cert.q2 != cert.q2 + cert.q1
        assert verify_free_pair(cert.q1, cert.q2, res.obstructions)

    def test_components_searched_from_the_smallest_state(self):
        # Two exponential components here; the one holding state 0 gives the certificate.
        aut = build_automaton({(1, 1, 0, 0), (1, 0, 1, 0)}, 2)
        cert = search_free_pair(aut)
        assert (cert.q1, cert.q2) == ((0,), (1, 0, 0))

    def test_linear_growth_has_none(self):
        _, aut, growth = engine_parts(parse_graph("K(4; 1-2,3-4)"))
        assert growth.coarse == "polynomial"
        assert search_free_pair(aut) is None

    def test_finite_has_none(self):
        _, aut, growth = engine_parts(parse_graph("K(3; 1-2,1-3,2-3)"))
        assert growth.coarse == "finite"
        assert search_free_pair(aut) is None

    def test_every_complete_exponential_class_up_to_six_leaves(self, engine):
        classes = {prune_isolated_leaves(g)[0] for n in range(1, 7) for g in enumerate_graphs(n)}
        exponential = 0
        for g in classes:
            res, aut, growth = engine.full(g)
            if growth.coarse != "exponential" or not res.complete:
                continue
            exponential += 1
            cert = search_free_pair(aut)
            assert cert is not None, str(g)
            assert verify_free_pair(cert.q1, cert.q2, res.obstructions), str(g)
        assert exponential > 0

    def test_refuted_pair_is_an_engine_fault(self, monkeypatch, capsys):
        monkeypatch.setattr("tlstar.growth.verify_free_pair", lambda q1, q2, obs: False)
        _, aut, _ = engine_parts(parse_graph("K(5; 1-2,2-3,4-5)"))
        with pytest.raises(RuntimeError):
            search_free_pair(aut)
        assert cli.main(["witness", "K(5; 1-2,2-3,4-5)"]) == 2
        captured = capsys.readouterr()
        assert captured.err.startswith("error: ") and "not a free pair" in captured.err


def _assert_edge_deletion_never_increases_growth(engine, n):
    for g in enumerate_graphs(n):
        before = COARSE_ORDER[engine.coarse(g)]
        for pair in g.sorted_dashed():
            after = COARSE_ORDER[engine.coarse(delete_dashed_edge(g, pair))]
            assert after <= before, (str(g), pair)


class TestMonotonicity:
    def test_edge_deletion_never_increases_growth(self, engine):
        for n in (1, 2, 3, 4):
            _assert_edge_deletion_never_increases_growth(engine, n)

    def test_edge_deletion_never_increases_growth_on_six_leaves(self, engine):
        # Growth that only grows with the dashed set is what lets a witness
        # pattern embed without being induced; criterion 6 covers n <= 5.
        _assert_edge_deletion_never_increases_growth(engine, 6)

    def test_pruning_preserves_growth(self, engine):
        for n in (1, 2, 3, 4):
            for g in enumerate_graphs(n):
                pruned, _ = prune_isolated_leaves(g)
                assert engine.coarse(pruned) == engine.coarse(g), str(g)
