import itertools
import random
import sys

import pytest
from hypothesis import given, settings, strategies as st

from oracles import (
    atlas_classes,
    brute_force_classes,
    brute_force_embedding,
    delete_dashed_edge,
    embedding_is_valid,
    least_relabelling,
    reference_components,
    relabel,
)
from tlstar import graphs
from tlstar.graphs import (
    TwoColoredStar,
    canonical_form,
    canonical_representative,
    contains_subgraph,
    dashed_components,
    enumerate_graphs,
    is_isomorphic,
    parse_graph,
    prune_isolated_leaves,
)


class TestParse:
    def test_basic(self):
        g = parse_graph("K(4; 1-2, 3-4)")
        assert g.n == 4 and g.dashed == frozenset({(1, 2), (3, 4)})

    def test_empty_dashed(self):
        g = parse_graph("K(3;)")
        assert g.n == 3 and not g.dashed

    def test_duplicate_pair_warns_and_dedups(self):
        with pytest.warns(UserWarning, match="duplicate dashed pair 1-2"):
            g = parse_graph("K(5; 2-1, 1-2)")
        assert g.dashed == frozenset({(1, 2)})

    @pytest.mark.parametrize("text", [
        "K(4; 1-2, 3-4",      # unbalanced
        "notagraph",
        "K(4; 0-2)",          # center is not a leaf
        "K(4; 1-5)",          # out of range
        "K(4; 2-2)",          # self pair
        "K(4; 1+2)",          # bad separator
    ])
    def test_malformed(self, text):
        with pytest.raises(ValueError):
            parse_graph(text)

    @pytest.mark.parametrize("n, pair, message", [
        (4, (2, 2), "dashed pair 2-2 joins a leaf to itself"),
        (4, (5, 1), "dashed pair 5-1 outside leaves 1..4"),
        (4, (0, 2), "dashed pair 0-2 outside leaves 1..4"),
    ])
    def test_bad_pair_same_error_parsed_or_built(self, n, pair, message):
        errors = []
        for make in (lambda: parse_graph(f"K({n}; {pair[0]}-{pair[1]})"), lambda: TwoColoredStar(n, [pair])):
            with pytest.raises(ValueError) as exc:
                make()
            errors.append(str(exc.value))
        assert errors == [message, message]

    def test_negative_leaf_count_rejected(self):
        with pytest.raises(ValueError, match="leaf count must be nonnegative, got -1"):
            TwoColoredStar(-1, ())

    def test_roundtrip_text(self):
        g = parse_graph("K(5; 4-5, 1-2, 2-3)")
        assert str(g) == "K(5; 1-2, 2-3, 4-5)"
        assert parse_graph(str(g)) == g

    def test_json_dict(self):
        g = parse_graph("K(4; 3-4, 1-2)")
        assert g.to_json_dict() == {"n": 4, "dashed": [[1, 2], [3, 4]]}


class TestDashedComponents:
    @pytest.mark.parametrize("text,nu", [
        ("K(6; 1-2,1-3,1-5,1-6,2-6)", 1),
        ("K(4; 1-2,3-4)", 2),
        ("K(6; 1-6,2-3,4-5)", 3),
    ])
    def test_reference_values(self, text, nu):
        _, got = dashed_components(parse_graph(text))
        assert got == nu

    def test_partition_covers_exactly_covered_leaves(self):
        g = parse_graph("K(6; 1-2,1-3,1-5,1-6,2-6)")
        partition, nu = dashed_components(g)
        assert nu == 1
        assert sorted(x for part in partition for x in part) == [1, 2, 3, 5, 6]

    def test_nu_zero_iff_no_dashed(self):
        assert dashed_components(parse_graph("K(4;)"))[1] == 0
        assert dashed_components(parse_graph("K(4; 1-2)"))[1] == 1


class TestPrune:
    def test_reference_example(self):
        g = parse_graph("K(6; 1-2,1-3,1-5,1-6,2-6)")
        pruned, removed = prune_isolated_leaves(g)
        assert removed == (4,)
        assert pruned.n == 5
        # order-preserving relabel: 5 -> 4, 6 -> 5
        assert pruned.dashed == frozenset({(1, 2), (1, 3), (1, 4), (1, 5), (2, 5)})

    def test_fully_covered_unchanged(self):
        g = parse_graph("K(4; 1-2,3-4)")
        assert prune_isolated_leaves(g) == (g, ())

    def test_all_removed(self):
        pruned, removed = prune_isolated_leaves(parse_graph("K(3;)"))
        assert pruned == TwoColoredStar(0, []) and removed == (1, 2, 3)


class TestIsomorphism:
    def test_star_centers_swap(self):
        g1 = parse_graph("K(4; 1-2,1-3,1-4)")
        g2 = parse_graph("K(4; 2-1,2-3,2-4)")
        assert is_isomorphic(g1, g2)

    def test_different_shapes(self):
        assert not is_isomorphic(parse_graph("K(4; 1-2,3-4)"), parse_graph("K(4; 1-2,1-3)"))

    def test_identity(self):
        g = parse_graph("K(5; 1-2,2-3,4-5)")
        assert is_isomorphic(g, g)

    def test_different_sizes(self):
        assert not is_isomorphic(parse_graph("K(3;)"), parse_graph("K(4;)"))


@st.composite
def stars(draw, max_n=5, min_n=1):
    n = draw(st.integers(min_value=min_n, max_value=max_n))
    pairs = list(itertools.combinations(range(1, n + 1), 2))
    chosen = draw(st.lists(st.sampled_from(pairs), max_size=len(pairs), unique=True)) if pairs else []
    return TwoColoredStar(n, chosen)


@st.composite
def stars_with_permutation(draw, max_n=5):
    g = draw(stars(max_n))
    leaves = list(range(1, g.n + 1))
    image = draw(st.permutations(leaves))
    return g, dict(zip(leaves, image))


@st.composite
def hosts_and_patterns(draw):
    """A host on at most 7 leaves and a pattern on at most 5: drawn freely, or cut from the host."""
    host = draw(stars(max_n=7))
    if draw(st.booleans()):
        return host, draw(stars(max_n=5))
    leaves = draw(st.lists(st.integers(1, host.n), min_size=1, max_size=min(5, host.n), unique=True))
    label = {v: k + 1 for k, v in enumerate(leaves)}
    inside = [(label[i], label[j]) for i, j in host.sorted_dashed() if i in label and j in label]
    kept = draw(st.lists(st.sampled_from(inside), unique=True)) if inside else []
    return host, TwoColoredStar(len(leaves), kept)


@given(stars(max_n=8))
@settings(deadline=None)
def test_graph_facts_match_the_pairs(g):
    partition = reference_components(g)
    assert dashed_components(g) == (partition, len(partition))
    assert g.covered_leaves() == sorted({v for pair in g.dashed for v in pair})
    assert list(g.neighbours) == list(range(1, g.n + 1))
    for v in range(1, g.n + 1):
        assert len(g.neighbours[v]) == sum(v in pair for pair in g.dashed)


def test_equal_and_hashed_by_leaf_count_and_pairs():
    # Sets and dicts of graphs iterate in the order these hashes give.
    g = TwoColoredStar(3, [(2, 1)])
    assert g == TwoColoredStar(3, [(1, 2)]) and g != TwoColoredStar(4, [(1, 2)])
    assert g != (3, frozenset({(1, 2)})) and hash(g) == hash((3, frozenset({(1, 2)})))


@given(stars_with_permutation())
def test_certificate_invariant_under_relabelling(gp):
    g, perm = gp
    assert canonical_form(relabel(g, perm)) == canonical_form(g)


@given(stars_with_permutation())
def test_isomorphism_detects_relabelling(gp):
    g, perm = gp
    assert is_isomorphic(g, relabel(g, perm))


@given(stars(), stars())
def test_isomorphism_symmetric(g1, g2):
    assert is_isomorphic(g1, g2) == is_isomorphic(g2, g1)


@given(stars())
def test_canonical_representative_is_isomorphic(g):
    rep = canonical_representative(g)
    assert is_isomorphic(g, rep)
    assert canonical_form(rep) == canonical_form(g)


@given(stars(max_n=6))
@settings(deadline=None)
def test_canonical_representative_is_least_relabelling(g):
    assert canonical_representative(g) == least_relabelling(g)


def _named_families(n):
    pairs = list(itertools.combinations(range(1, n + 1), 2))
    return {
        "empty": [],
        "complete": pairs,
        "star": [(i, n) for i in range(1, n)],
        "path": [(i, i + 1) for i in range(1, n)],
    }


# n = 8 scores relabellings with 28-bit masks, as on 8-leaf benchmark inputs.
@pytest.mark.parametrize("n", range(9))
@pytest.mark.parametrize("family", ["empty", "complete", "star", "path"])
def test_named_family_representative_is_least_relabelling(family, n):
    g = TwoColoredStar(n, _named_families(n)[family])
    assert canonical_representative(g) == least_relabelling(g)


def test_isomorphism_equivalence_on_all_small_classes():
    classes = [g for n in (1, 2, 3, 4) for g in enumerate_graphs(n)]
    for g1, g2 in itertools.combinations(classes, 2):
        assert not is_isomorphic(g1, g2)
    rng = random.Random(7)
    for g in classes:
        leaves = list(range(1, g.n + 1))
        image = leaves[:]
        rng.shuffle(image)
        h = relabel(g, dict(zip(leaves, image)))
        assert is_isomorphic(g, h) and is_isomorphic(h, g)


class TestSubgraph:
    def test_reference_positive(self):
        host = parse_graph("K(5; 1-2,2-3,4-5)")
        pattern = parse_graph("K(4; 1-2,3-4)")
        emb = contains_subgraph(host, pattern)
        assert emb is not None and embedding_is_valid(emb, host, pattern)
        assert brute_force_embedding(host, pattern) is not None

    def test_reference_negative(self):
        host = parse_graph("K(4; 1-2,1-3,1-4)")
        pattern = parse_graph("K(4; 1-2,3-4)")
        assert contains_subgraph(host, pattern) is None
        assert brute_force_embedding(host, pattern) is None

    def test_identity_embedding(self):
        g = parse_graph("K(5; 1-2,2-3,4-5)")
        emb = contains_subgraph(g, g)
        assert emb is not None and embedding_is_valid(emb, g, g)

    def test_pattern_larger_than_host(self):
        assert contains_subgraph(parse_graph("K(3;)"), parse_graph("K(4;)")) is None

    @given(hosts_and_patterns())
    @settings(max_examples=150, deadline=None)
    def test_matches_brute_force(self, host_pattern):
        host, pattern = host_pattern
        emb = contains_subgraph(host, pattern)
        brute = brute_force_embedding(host, pattern)
        assert (emb is None) == (brute is None)
        if emb is not None:
            assert embedding_is_valid(emb, host, pattern)


@given(stars())
def test_edge_deletion_and_prune_give_subgraphs(g):
    for pair in g.sorted_dashed():
        assert contains_subgraph(g, delete_dashed_edge(g, pair)) is not None
    pruned, _ = prune_isolated_leaves(g)
    assert contains_subgraph(g, pruned) is not None


class TestEnumeration:
    @pytest.mark.parametrize("n,count", [(1, 1), (2, 2), (3, 4), (4, 11), (5, 34), (6, 156)])
    def test_class_counts(self, n, count):
        assert len(enumerate_graphs(n)) == count

    def test_against_brute_force_classes(self):
        for n in (2, 3, 4):
            mine = enumerate_graphs(n)
            brute = brute_force_classes(n)
            assert len(mine) == len(brute)
            for g in brute:
                assert sum(1 for h in mine if is_isomorphic(g, h)) == 1

    def test_pairwise_nonisomorphic_and_sorted(self):
        graphs = enumerate_graphs(5)
        keys = [canonical_form(g) for g in graphs]
        assert keys == sorted(keys)
        assert len(set(keys)) == len(keys)

    @pytest.mark.parametrize("n", range(1, 7))
    def test_equals_atlas_classes(self, n):
        assert enumerate_graphs(n) == atlas_classes(n)

    def test_needs_no_networkx(self, monkeypatch):
        monkeypatch.setitem(sys.modules, "networkx", None)
        graphs._enumerate_cached.cache_clear()
        assert [len(enumerate_graphs(n)) for n in range(1, 7)] == [1, 2, 4, 11, 34, 156]

    @pytest.mark.parametrize("n", range(1, 7))
    def test_pruned_representative_is_least(self, n):
        # A representative covers leaves 1..k, so pruning only drops leaves
        # k+1..n and leaves a least relabelling: the representative of its class.
        for g in enumerate_graphs(n):
            k = len(g.covered_leaves())
            assert g.covered_leaves() == list(range(1, k + 1)), str(g)
            pruned, _ = prune_isolated_leaves(g)
            assert pruned == least_relabelling(pruned), str(g)

    def test_includes_empty_configuration(self):
        assert TwoColoredStar(3, []) in enumerate_graphs(3)

    def test_cap(self):
        with pytest.raises(ValueError):
            enumerate_graphs(8)
        with pytest.raises(ValueError):
            enumerate_graphs(0)

    @given(stars(max_n=5))
    @settings(max_examples=50, deadline=None)
    def test_every_configuration_has_exactly_one_representative(self, g):
        matches = [h for h in enumerate_graphs(g.n) if is_isomorphic(g, h)]
        assert len(matches) == 1
