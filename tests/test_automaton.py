import pytest
from hypothesis import given, settings, strategies as st

from oracles import is_antichain, is_normal_word, minimal_antichain, normal_word_counts, reference_automaton
from tlstar.automaton import DEAD, build_automaton, hilbert_prefix
from tlstar.graphs import TwoColoredStar, enumerate_graphs
from tlstar.groebner import buchberger
from tlstar.presentation import build_presentation


class TestConstruction:
    def test_single_square_obstruction(self):
        aut = build_automaton({(0, 0)}, 1)
        assert aut.live_state_count() == 2
        assert aut.accepts(()) and aut.accepts((0,))
        assert not aut.accepts((0, 0))
        assert hilbert_prefix(aut, 4) == [1, 1, 0, 0, 0]

    def test_no_obstructions_single_letter(self):
        aut = build_automaton(set(), 1)
        assert aut.live_state_count() == 1
        assert aut.transitions[0][0] == 0
        assert hilbert_prefix(aut, 5) == [1] * 6

    def test_orthogonal_star_is_acyclic_beyond_degree_three(self):
        res = buchberger(build_presentation(TwoColoredStar(2, [])))
        aut = build_automaton(res.obstructions, 3)
        assert hilbert_prefix(aut, 4) == normal_word_counts(res.obstructions, 3, 4)
        assert hilbert_prefix(aut, 4)[4] == 0

    def test_live_state_bound(self):
        obs = {(0, 1, 2), (2, 1), (1, 0, 0, 2)}
        aut = build_automaton(obs, 3)
        assert aut.live_state_count() <= 1 + sum(len(w) - 1 for w in obs)

    def test_rejects_non_antichain(self):
        with pytest.raises(ValueError, match="antichain"):
            build_automaton({(1, 2), (0, 1, 2)}, 3)

    @pytest.mark.parametrize("inner, outer, named", [
        ((0, 1), (0, 1, 2), "(0, 1) is a proper prefix"),           # prefix
        ((1, 2), (0, 1, 2), "(0, 1, 2) ends in another"),           # proper suffix
        ((1,), (0, 1, 2), "(0, 1) is a proper prefix"),             # interior factor
        ((1, 2), (0, 1, 2, 0), "(0, 1, 2) is a proper prefix"),     # interior factor
        ((0, 0), (1, 0, 0, 1, 1), "(1, 0, 0) is a proper prefix"),  # interior factor
    ])
    def test_rejects_obstruction_inside_another(self, inner, outer, named):
        with pytest.raises(ValueError, match="not an antichain") as err:
            build_automaton({inner, outer, (2, 2)}, 3)
        assert named in str(err.value)

    def test_rejects_empty_word(self):
        with pytest.raises(ValueError):
            build_automaton({()}, 2)

    def test_rejects_letters_outside_alphabet(self):
        with pytest.raises(ValueError):
            build_automaton({(5,)}, 3)

    def test_walk_matches_direct_factor_check(self):
        obs = {(0, 0), (1, 0, 1), (2, 2, 2)}
        aut = build_automaton(obs, 3)
        words = [(), (0,), (0, 1), (1, 0, 1), (2, 2, 1, 2, 2), (1, 0, 0, 1)]
        for w in words:
            assert aut.accepts(w) == is_normal_word(w, obs)


class TestHilbertPrefix:
    def test_reference_orthogonal_pair(self):
        res = buchberger(build_presentation(TwoColoredStar(2, [])))
        aut = build_automaton(res.obstructions, 3)
        prefix = hilbert_prefix(aut, 8)
        assert prefix == [1, 3, 4, 2, 0, 0, 0, 0, 0]
        assert sum(prefix) == 10

    def test_free_algebra_counts(self):
        for k in (1, 2, 3):
            aut = build_automaton(set(), k)
            assert hilbert_prefix(aut, 6) == [k ** d for d in range(7)]

    def test_linear_growth_witness_degrees(self):
        g = TwoColoredStar(4, [(1, 2), (3, 4)])
        res = buchberger(build_presentation(g))
        aut = build_automaton(res.obstructions, 5)
        prefix = hilbert_prefix(aut, 36)
        for m in (1, 2, 3, 4, 5, 6):
            assert prefix[6 * m] >= 1
        # the designated normal word itself: (q1 q2)^m with q1 = p0p1p2, q2 = p0p3p4
        block = (0, 1, 2, 0, 3, 4)
        for m in (1, 3, 6):
            assert aut.accepts(block * m)

    def test_negative_degree_rejected(self):
        aut = build_automaton(set(), 2)
        with pytest.raises(ValueError):
            hilbert_prefix(aut, -1)


class TestPathCountOracle:
    def test_all_classes_up_to_four_leaves(self):
        for n in (1, 2, 3, 4):
            for g in enumerate_graphs(n):
                res = buchberger(build_presentation(g))
                aut = build_automaton(res.obstructions, n + 1)
                assert hilbert_prefix(aut, 8) == normal_word_counts(res.obstructions, n + 1, 8), str(g)


obstruction_words = st.lists(
    st.integers(min_value=0, max_value=2), min_size=1, max_size=4
).map(tuple)


@given(st.sets(obstruction_words, max_size=6))
@settings(max_examples=80, deadline=None)
def test_counts_match_brute_force_on_random_obstructions(obs):
    antichain = minimal_antichain(obs)
    aut = build_automaton(antichain, 3)
    assert hilbert_prefix(aut, 6) == normal_word_counts(antichain, 3, 6)


@given(st.sets(obstruction_words, max_size=5), st.lists(st.integers(0, 2), max_size=8).map(tuple))
@settings(max_examples=100, deadline=None)
def test_acceptance_matches_direct_check(obs, word):
    antichain = minimal_antichain(obs)
    aut = build_automaton(antichain, 3)
    assert aut.accepts(word) == is_normal_word(word, antichain)


class TestReferenceAutomaton:
    """The one-pass construction against the suffix-rescanning oracle."""

    def test_every_completion_up_to_five_leaves(self, engine):
        for n in range(1, 6):
            for g in enumerate_graphs(n):
                result, aut, _ = engine.full(g)
                assert (aut.states, aut.transitions) == reference_automaton(result.obstructions, n + 1), str(g)

    def test_empty_obstruction_set_keeps_the_start_state(self):
        aut = build_automaton(set(), 2)
        assert aut.states == ((),) and aut.transitions == ((0, 0),)


@given(st.sets(obstruction_words, max_size=7))
@settings(max_examples=150, deadline=None)
def test_states_and_transitions_match_reference_on_antichains(obs):
    antichain = minimal_antichain(obs)
    aut = build_automaton(antichain, 3)
    assert (aut.states, aut.transitions) == reference_automaton(antichain, 3)


@given(st.sets(obstruction_words, max_size=6))
@settings(max_examples=200, deadline=None)
def test_raises_exactly_on_non_antichains(obs):
    if is_antichain(obs):
        build_automaton(obs, 3)
    else:
        with pytest.raises(ValueError, match="not an antichain"):
            build_automaton(obs, 3)
