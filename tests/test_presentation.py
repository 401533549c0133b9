from fractions import Fraction

import pytest
from hypothesis import given, settings

from oracles import relabel
from test_graphs import stars_with_permutation
from tlstar.graphs import TwoColoredStar, enumerate_graphs, parse_graph
from tlstar.ncpoly import NcPolynomial
from tlstar.presentation import build_presentation, max_relation_degree, render_rules
from tlstar.scalars import RationalFunction


class TestRelationCounts:
    def test_single_dashed_pair(self):
        pres = build_presentation(parse_graph("K(2; 1-2)"))
        assert len(pres.relations) == 8  # 3 idempotents + 4 center links + 1 commutation

    def test_smallest_instance(self):
        pres = build_presentation(parse_graph("K(1;)"))
        assert len(pres.relations) == 4

    def test_orthogonal_pair(self):
        pres = build_presentation(parse_graph("K(2;)"))
        assert len(pres.relations) == 9  # 3 idempotents + 4 center links + 2 zero products

    def test_general_count(self):
        g = parse_graph("K(5; 1-2,2-3,4-5)")
        pres = build_presentation(g)
        pairs = 5 * 4 // 2
        assert len(pres.relations) == (5 + 1) + 2 * 5 + 3 + 2 * (pairs - 3)

    def test_max_relation_degree_from_leaf_count(self):
        graphs = [TwoColoredStar(0, [])] + [g for n in range(1, 8) for g in enumerate_graphs(n)]
        for g in graphs:
            pres = build_presentation(g)
            assert max(len(lead) for lead, _ in pres.rules) == max_relation_degree(g.n), str(g)


class TestRelationContent:
    def test_smallest_instance_exact(self):
        pres = build_presentation(parse_graph("K(1;)"))
        assert [r.format() for r in pres.relations] == [
            "p0 p0 - p0",
            "p1 p1 - p1",
            "p1 p0 p1 - t*p1",
            "p0 p1 p0 - t*p0",
        ]

    def test_format_one_equation_per_line(self):
        pres = build_presentation(parse_graph("K(2; 1-2)"))
        assert pres.format().splitlines() == [f"{r.format()} = 0" for r in pres.relations]
        assert pres.format().endswith("\np2 p1 - p1 p2 = 0")

    def test_commutation_orientation(self):
        pres = build_presentation(parse_graph("K(2; 1-2)"))
        assert pres.relations[-1].format() == "p2 p1 - p1 p2"

    def test_zero_products_both_orders(self):
        pres = build_presentation(parse_graph("K(2;)"))
        leads = {r.leading_word() for r in pres.relations}
        assert (1, 2) in leads and (2, 1) in leads

    def test_generators_in_range(self):
        pres = build_presentation(parse_graph("K(3; 1-2)"))
        for rel in pres.relations:
            for w in rel.terms:
                assert all(0 <= x <= 3 for x in w)

    def test_leading_term_first(self):
        for rel in build_presentation(parse_graph("K(3; 1-3)")).relations:
            terms = rel.sorted_terms()
            assert terms[0][0] == rel.leading_word()

    def test_exactly_one_kind_per_pair(self):
        g = parse_graph("K(4; 1-2,3-4)")
        pres = build_presentation(g)
        for i in range(1, 5):
            for j in range(i + 1, 5):
                comm = [r for r in pres.relations
                        if r.leading_word() == (j, i) and len(r.terms) == 2]
                zeros = [r for r in pres.relations
                         if r.leading_word() in ((i, j), (j, i)) and len(r.terms) == 1]
                if g.is_dashed(i, j):
                    assert len(comm) == 1 and not zeros
                else:
                    assert len(zeros) == 2 and not comm


class TestParameterModes:
    @pytest.mark.parametrize("text", ["K(1;)", "K(3; 1-2)", "K(5; 1-2,2-3,4-5)"])
    def test_rules_do_not_depend_on_t(self, text):
        # The presentation holds no value of t; rendering at a rational t
        # is the Q(t) rendering with t evaluated there, term by term.
        pres = build_presentation(parse_graph(text))
        assert list(vars(pres)) == ["n", "rules"]
        for value in (Fraction(1, 2), Fraction(1, 3)):
            special = render_rules(pres.rules, value)
            assert [p.terms for p in special] == [
                {w: c.evaluate(value) for w, c in p.terms.items()} for p in pres.relations
            ]

    def test_symbolic_default(self):
        pres = build_presentation(parse_graph("K(1;)"))
        assert pres.relations == render_rules(pres.rules, RationalFunction.t())

    def test_specialised(self):
        rules = build_presentation(parse_graph("K(1;)")).rules
        assert [p.format() for p in render_rules(rules, Fraction(1, 2))][2:] == [
            "p1 p0 p1 - 1/2*p1",
            "p0 p1 p0 - 1/2*p0",
        ]


@given(stars_with_permutation(max_n=4))
@settings(max_examples=40, deadline=None)
def test_relabelled_graph_gives_renamed_presentation(gp):
    g, perm = gp
    lift = dict(perm)
    lift[0] = 0
    original = build_presentation(g)
    renamed = build_presentation(relabel(g, perm))
    # Renaming can flip the orientation of a commutation relation, so compare
    # monic normal forms.
    expected = {
        NcPolynomial({tuple(lift[x] for x in w): c for w, c in rel.terms.items()}).monic()
        for rel in original.relations
    }
    assert {rel.monic() for rel in renamed.relations} == expected
