import pytest
from hypothesis import example, given, settings

from oracles import delete_dashed_edge, embedding_is_valid, relabel
from test_graphs import stars, stars_with_permutation
from tlstar.classifier import (
    MINIMAL_EXPONENTIAL_GRAPHS,
    check_nu_conditions,
    classify_by_theorem,
)
from tlstar.graphs import (
    TwoColoredStar,
    canonical_form,
    enumerate_graphs,
    parse_graph,
    prune_isolated_leaves,
)


class TestVerdicts:
    def test_star_pattern_finite(self):
        v = classify_by_theorem(parse_graph("K(6; 1-2,1-3,1-4,1-5,1-6)"))
        assert v.coarse == "finite" and v.branch == "(i)-star"
        assert v.witness is None

    def test_path_on_four_leaves_linear(self):
        v = classify_by_theorem(parse_graph("K(4; 1-2,2-3,3-4)"))
        assert v.coarse == "polynomial-linear" and v.branch == "(ii)"

    def test_three_components_exponential_with_self_witness(self):
        g = parse_graph("K(6; 1-6,2-3,4-5)")
        v = classify_by_theorem(g)
        assert v.coarse == "exponential" and v.branch == "(iii)"
        assert v.nu == 3
        assert v.witness is not None and embedding_is_valid(v.witness, g, v.witness_pattern)

    def test_triangle_finite(self):
        v = classify_by_theorem(parse_graph("K(3; 1-2,1-3,2-3)"))
        assert v.coarse == "finite" and v.branch == "(i)-triangle"

    def test_empty_after_pruning(self):
        v = classify_by_theorem(parse_graph("K(5;)"))
        assert v.coarse == "finite" and v.branch == "(i)-empty" and v.nu == 0

    def test_single_edge_is_star_pattern(self):
        v = classify_by_theorem(parse_graph("K(2; 1-2)"))
        assert v.coarse == "finite" and v.branch == "(i)-star"

    def test_pruning_applied_internally(self):
        # K(6; 1-2) prunes to a single dashed edge: finite, not exponential.
        v = classify_by_theorem(parse_graph("K(6; 1-2)"))
        assert v.coarse == "finite" and v.branch == "(i)-star"

    def test_off_center_star_recognised(self):
        v = classify_by_theorem(parse_graph("K(4; 1-3,2-3,3-4)"))
        assert v.coarse == "finite" and v.branch == "(i)-star"

    def test_five_leaf_star_with_extra_edge_exponential(self):
        v = classify_by_theorem(parse_graph("K(5; 1-2,1-3,1-4,1-5,2-3)"))
        assert v.coarse == "exponential" and v.witness is not None


class TestWitnesses:
    def test_every_exponential_class_carries_valid_witness(self):
        for n in (5, 6):
            for g in enumerate_graphs(n):
                v = classify_by_theorem(g)
                if v.coarse == "exponential":
                    assert v.witness_pattern in MINIMAL_EXPONENTIAL_GRAPHS
                    assert embedding_is_valid(v.witness, g, v.witness_pattern)
                else:
                    assert v.witness is None

    def test_witness_uses_original_labels(self):
        # Leaf 1 is pruned away; the witness must avoid it.
        g = parse_graph("K(6; 2-3,3-4,5-6)")
        v = classify_by_theorem(g)
        assert v.coarse == "exponential"
        mapped = set(v.witness.as_dict().values())
        assert 1 not in mapped


class TestNuConditions:
    def test_finite_with_single_component(self):
        g = parse_graph("K(3; 1-2,1-3,2-3)")
        assert check_nu_conditions(g, classify_by_theorem(g)) == []

    def test_linear_with_two_components(self):
        g = parse_graph("K(4; 1-2,3-4)")
        assert check_nu_conditions(g, classify_by_theorem(g)) == []

    def test_exponential_with_three_components(self):
        g = parse_graph("K(6; 1-6,2-3,4-5)")
        assert check_nu_conditions(g, classify_by_theorem(g)) == []

    def test_empty_graph_vacuous(self):
        g = parse_graph("K(4;)")
        assert check_nu_conditions(g, classify_by_theorem(g)) == []

    def test_forged_verdicts_are_flagged(self):
        from tlstar.classifier import TheoremVerdict

        g = parse_graph("K(6; 1-6,2-3,4-5)")  # nu = 3
        forged = TheoremVerdict("finite", "(i)-star", 3)
        violations = check_nu_conditions(g, forged)
        assert len(violations) == 2  # finite needs nu=1; nu>=3 forces exponential
        forged = TheoremVerdict("polynomial-linear", "(ii)", 3)
        assert len(check_nu_conditions(g, forged)) == 2

    def test_no_violations_across_sweep(self):
        for n in range(1, 7):
            for g in enumerate_graphs(n):
                assert check_nu_conditions(g, classify_by_theorem(g)) == []


@given(stars_with_permutation())
@settings(max_examples=60, deadline=None)
def test_isomorphism_invariance(gp):
    g, perm = gp
    v1, v2 = classify_by_theorem(g), classify_by_theorem(relabel(g, perm))
    assert (v1.coarse, v1.branch, v1.nu) == (v2.coarse, v2.branch, v2.nu)


def test_agrees_with_engine_on_small_classes(engine):
    for n in (1, 2, 3, 4):
        for g in enumerate_graphs(n):
            assert classify_by_theorem(g).coarse_growth == engine.coarse(g), str(g)


def test_edge_minimal_exponential_classes_are_the_patterns(engine):
    # From engine verdicts alone: the exponential classes with no isolated
    # leaf in which deleting any one dashed edge leaves a non-exponential
    # graph.  They are the patterns, up to isomorphism.
    minimal = [
        g for n in range(1, 7) for g in enumerate_graphs(n)
        if not prune_isolated_leaves(g)[1] and engine.coarse(g) == "exponential"
        and all(engine.coarse(delete_dashed_edge(g, pair)) != "exponential" for pair in g.sorted_dashed())
    ]
    assert sorted(canonical_form(g).key for g in minimal) == sorted(
        canonical_form(p).key for p in MINIMAL_EXPONENTIAL_GRAPHS)


@given(stars(min_n=5, max_n=10))
@example(TwoColoredStar(7, [(1, 7), (2, 3), (4, 5)]))  # matchings need 3K2, which random draws rarely give
@example(TwoColoredStar(10, [(1, 2), (3, 4), (5, 6), (7, 8), (9, 10)]))
@settings(max_examples=200, deadline=None)
def test_two_patterns_witness_every_exponential_graph(g):
    # The lemma in `classifier`, past the exhaustive sweep: exponential
    # exactly when at least 5 leaves are covered and no leaf lies on every
    # pair, and then one of the two patterns embeds.
    v = classify_by_theorem(g)
    covered = {leaf for pair in g.dashed for leaf in pair}
    star = any(all(leaf in pair for pair in g.dashed) for leaf in covered)
    assert (v.coarse == "exponential") == (len(covered) >= 5 and not star)
    assert (v.witness is not None) == (v.coarse == "exponential")
    if v.witness is not None:
        assert v.witness_pattern in MINIMAL_EXPONENTIAL_GRAPHS
        assert embedding_is_valid(v.witness, g, v.witness_pattern)
