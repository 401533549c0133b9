import json

import pytest

from oracles import least_relabelling
from tlstar import automaton, groebner, presentation, report
from tlstar.automaton import build_automaton
from tlstar.classifier import classify_by_theorem
from tlstar.graphs import MAX_LEAVES, parse_graph
from tlstar.groebner import buchberger
from tlstar.growth import GrowthClass, classify_growth
from tlstar.presentation import build_presentation
from tlstar.report import analyze, cross_validate, run_engine


class TestRunEngine:
    @pytest.mark.parametrize("text", ["K(3; 1-2,1-3,2-3)", "K(4; 1-2,3-4)", "K(5; 1-2,2-3,4-5)"])
    def test_matches_hand_chain(self, text):
        g = parse_graph(text)
        pres = build_presentation(g)
        result = buchberger(pres)
        aut = build_automaton(result.obstructions, pres.alphabet_size())
        growth = classify_growth(aut, complete=result.complete)
        run = run_engine(g)
        assert (run.groebner, run.automaton, run.growth) == (result, aut, growth)
        r = analyze(g, method="both")
        assert (r.groebner, r.automaton, r.growth) == (result, aut, growth)

    def test_results_equal_by_value_alone(self):
        edge, empty = run_engine(parse_graph("K(2; 1-2)")), run_engine(parse_graph("K(2;)"))
        assert edge.groebner != empty.groebner and edge.automaton != empty.automaton
        assert edge.groebner != edge.groebner.rules and edge.automaton != edge.automaton.transitions

    def test_automaton_built_only_when_read(self):
        run = run_engine(parse_graph("K(4; 1-2,3-4)"))
        assert run.groebner.complete
        assert "automaton" not in vars(run) and "growth" not in vars(run)
        assert run.growth.coarse == "polynomial"
        assert "automaton" in vars(run)


class TestNoRendering:
    """The engine path never turns rules into scalar polynomials."""

    @pytest.fixture
    def no_rendering(self, monkeypatch):
        def fail(rules, t):
            raise AssertionError("rules rendered as polynomials")

        for module in (presentation, groebner):
            monkeypatch.setattr(module, "render_rules", fail)
        g = parse_graph("K(1;)")
        with pytest.raises(AssertionError):
            build_presentation(g).relations
        with pytest.raises(AssertionError):
            run_engine(g).groebner.basis

    def test_sweep(self, no_rendering):
        sweep = cross_validate(4)
        assert sweep.all_agree and sweep.all_complete

    def test_analyze(self, no_rendering):
        r = analyze(parse_graph("K(5; 1-2,2-3,4-5)"))
        assert r.growth.coarse == "exponential" and r.free_pair is not None
        assert not r.discrepancy


class TestAnalyze:
    def test_one_component_search_per_automaton(self, monkeypatch):
        # Growth and the free-pair search read one structure off the automaton.
        calls = []
        scc = automaton._strongly_connected_components

        def counted(edges):
            calls.append(len(edges))
            return scc(edges)

        monkeypatch.setattr(automaton, "_strongly_connected_components", counted)
        r = analyze(parse_graph("K(5; 1-2,2-3,4-5)"))
        assert r.growth.coarse == "exponential" and r.free_pair is not None
        assert calls == [r.automaton.live_state_count()]

    def test_both_methods_populate_everything(self):
        r = analyze(parse_graph("K(5; 1-2,2-3,4-5)"))
        assert r.theorem.coarse == "exponential"
        assert r.growth.coarse == "exponential"
        assert r.groebner.complete
        assert r.free_pair is not None
        assert not r.discrepancy
        assert r.hilbert[0] == 1

    def test_theorem_only_skips_engine(self):
        r = analyze(parse_graph("K(4; 1-2,3-4)"), method="theorem")
        assert r.groebner is None and r.growth is None and r.hilbert is None
        assert r.theorem.coarse == "polynomial-linear"
        assert not r.discrepancy

    def test_truncated_completion_flags_discrepancy(self):
        r = analyze(parse_graph("K(5; 1-2,2-3,4-5)"), degree_bound=4)
        assert not r.groebner.complete
        assert r.growth.upper_bound_only
        assert r.discrepancy

    def test_unknown_method_rejected(self):
        with pytest.raises(ValueError):
            analyze(parse_graph("K(2;)"), method="guess")

    def test_json_roundtrip_and_schema(self):
        r = analyze(parse_graph("K(4; 1-2,3-4)"), max_degree=8)
        payload = r.to_json_dict()
        blob = json.dumps(payload, sort_keys=True)
        again = json.loads(blob)
        assert again["graph"] == {"n": 4, "dashed": [[1, 2], [3, 4]]}
        assert again["growth"]["coarse"] == "polynomial"
        assert again["growth"]["gk_degree"] == 1
        assert again["theorem"]["branch"] == "(ii)"
        assert again["discrepancy"] is False
        assert "timings" not in again
        assert "timings" in r.to_json_dict(include_timings=True)

    def test_linear_verdict_against_another_gk_degree(self):
        verdict = classify_by_theorem(parse_graph("K(4; 1-2,3-4)"))
        assert verdict.branch == "(ii)"
        assert report._disagreements(verdict, GrowthClass("polynomial", gk_degree=2)) == [
            "structural verdict asserts linear growth but engine found gk degree 2"
        ]
        assert report._disagreements(verdict, GrowthClass("polynomial", gk_degree=1)) == []

    def test_finite_dimensions_both_conventions(self):
        r = analyze(parse_graph("K(2;)"))
        growth = r.to_json_dict()["growth"]
        assert growth["dimension"] == 10
        assert growth["dimension_nonunital"] == 9


class TestCrossValidate:
    def test_small_sweep_counts(self):
        sweep = cross_validate(3)
        assert len(sweep.rows) == 1 + 2 + 4
        assert sweep.engine_runs == 4  # pruned classes: empty, edge, path, triangle
        assert sweep.all_agree and sweep.all_complete
        matrix = sweep.agreement_matrix()
        assert matrix["finite"]["finite"] == 7
        assert sum(matrix[a][b] for a in matrix for b in matrix[a]) == 7

    def test_four_leaf_sweep_finds_linear_classes(self):
        sweep = cross_validate(4)
        assert sweep.all_agree and sweep.all_complete
        linear = [row for row in sweep.rows if row.theorem.coarse == "polynomial-linear"]
        assert len(linear) == 6
        assert all(row.engine_growth.gk_degree == 1 for row in linear)

    def test_sweeps_compare_by_value(self):
        assert cross_validate(4) == cross_validate(4)

    def test_rows_cover_enumeration_and_dedup_engine_runs(self):
        sweep = cross_validate(4)
        assert len(sweep.rows) == 1 + 2 + 4 + 11
        assert sweep.engine_runs == 1 + 1 + 2 + 7

    @pytest.mark.parametrize("max_leaves", [0, -1])
    def test_empty_sweep_rejected(self, max_leaves):
        with pytest.raises(ValueError, match="at least 1"):
            cross_validate(max_leaves)

    def test_leaf_limit_checked_before_any_stage(self, monkeypatch):
        def no_stage(*args, **kwargs):
            raise AssertionError("a stage ran before the leaf limit was checked")

        monkeypatch.setattr(report, "enumerate_graphs", no_stage)
        monkeypatch.setattr(report, "buchberger", no_stage)
        with pytest.raises(ValueError, match=f"up to {MAX_LEAVES} leaves"):
            cross_validate(MAX_LEAVES + 1)

    def test_engine_runs_once_per_pruned_class_without_canonical_key(self, monkeypatch):
        def no_key(*args, **kwargs):
            raise AssertionError("the sweep computed a canonical key")

        engine_inputs = []

        def recorded(g, degree_bound=None):
            engine_inputs.append(g)
            return run_engine(g, degree_bound)

        monkeypatch.setattr(report, "canonical_form", no_key)
        monkeypatch.setattr(report, "canonical_representative", no_key)
        monkeypatch.setattr(report, "run_engine", recorded)
        sweep = cross_validate(5)
        assert sweep.all_agree and sweep.all_complete
        assert len(engine_inputs) == len(set(engine_inputs)) == sweep.engine_runs == 1 + 1 + 2 + 7 + 23
        assert all(g == least_relabelling(g) for g in engine_inputs)
        assert set(engine_inputs) == {least_relabelling(row.pruned) for row in sweep.rows}

    def test_json_shape(self):
        payload = cross_validate(2).to_json_dict()
        assert payload["class_count"] == 3
        assert payload["all_agree"] is True
        assert {row["text"] for row in payload["rows"]} == {"K(1;)", "K(2;)", "K(2; 1-2)"}
