import json
import os
import runpy
import subprocess
import sys
import warnings
from fractions import Fraction
from pathlib import Path

import pytest

from tlstar import classifier, cli, report
from tlstar.cli import main, parameter
from tlstar.graphs import parse_graph
from tlstar.scalars import RationalFunction

FULLY_DASHED_K7 = "K(7; " + ",".join(f"{i}-{j}" for i in range(1, 8) for j in range(i + 1, 8)) + ")"
UNVERIFIED = "unverified: completion truncated, so the obstruction set is partial and certifies nothing"


def _no_completion(*args):
    raise AssertionError("completion started")


def run_cli(*argv):
    """Invoke the CLI in-process; SystemExit from usage errors is normalised."""
    try:
        code = main(list(argv))
    except SystemExit as exc:
        code = exc.code if isinstance(exc.code, int) else 1
    return code


class TestClassify:
    def test_finite_reference(self, capsys):
        code = run_cli("classify", "K(3; 1-2,1-3,2-3)", "--method", "both")
        out = capsys.readouterr().out
        assert code == 0
        assert "finite" in out and "no discrepancies" in out
        assert "(i)-triangle" in out

    def test_linear_reference(self, capsys):
        code = run_cli("classify", "K(4; 1-2,3-4)")
        out = capsys.readouterr().out
        assert code == 0
        assert "polynomial-linear" in out and "polynomial" in out

    def test_exponential_with_witness(self, capsys):
        code = run_cli("classify", "K(5; 1-2,1-4,1-5,2-3)", "--method", "both")
        out = capsys.readouterr().out
        assert code == 0
        assert "exponential" in out and "branch (iii)" in out

    def test_theorem_only(self, capsys):
        code = run_cli("classify", "K(6; 1-6,2-3,4-5)", "--method", "theorem")
        out = capsys.readouterr().out
        assert code == 0 and "groebner" not in out

    def test_parse_error_exit_one(self, capsys):
        assert run_cli("classify", "K(4; 1-2,") == 1
        assert "error" in capsys.readouterr().err

    def test_usage_error_exit_one(self):
        assert run_cli("classify") == 1
        assert run_cli("classify", "K(2;)", "--method", "psychic") == 1

    @pytest.mark.parametrize("t", ["abc", "2"])
    def test_bad_parameter_exit_one_without_engine(self, capsys, t):
        assert run_cli("classify", "K(2;1-2)", "--method", "theorem", "--t", t) == 1
        captured = capsys.readouterr()
        assert captured.err.startswith("error: ") and len(captured.err.strip().splitlines()) == 1
        assert captured.out == ""

    def test_parameter_label_normalised(self, tmp_path):
        path = tmp_path / "c.json"
        assert run_cli("classify", "K(2;1-2)", "--t", "2/4", "--json", str(path)) == 0
        assert json.loads(path.read_text())["t"] == "t=1/2"

    def test_truncated_bound_exit_two(self, capsys):
        code = run_cli("classify", "K(5; 1-2,2-3,4-5)", "--degree-bound", "4")
        out = capsys.readouterr().out
        assert code == 2 and "DISCREPANCIES" in out

    @pytest.mark.parametrize("method", ["both", "theorem"])
    def test_bad_degree_bound_same_error_for_every_method(self, capsys, method):
        assert run_cli("classify", "K(2; 1-2)", "--method", method, "--degree-bound", "-5") == 1
        captured = capsys.readouterr()
        assert captured.err == "error: degree bound -5 is smaller than the largest relation degree 3\n"
        assert captured.out == ""

    @pytest.mark.parametrize("argv", [
        ["classify", FULLY_DASHED_K7, "--t", "1/2", "--max-degree", "-1"],
        ["classify", FULLY_DASHED_K7, "--method", "theorem", "--max-degree", "-1"],
        ["hilbert", FULLY_DASHED_K7, "-1"],
    ])
    def test_negative_max_degree_rejected_before_engine(self, capsys, monkeypatch, argv):
        def no_completion(*args, **kwargs):
            raise AssertionError("completion ran before max_degree was checked")

        monkeypatch.setattr(report, "buchberger", no_completion)
        assert run_cli(*argv) == 1
        captured = capsys.readouterr()
        assert captured.err == "error: max_degree must be nonnegative\n"
        assert captured.out == ""

    @pytest.mark.parametrize("argv", [
        ["classify", FULLY_DASHED_K7, "--max-degree", "201"],
        ["classify", FULLY_DASHED_K7, "--method", "theorem", "--max-degree", "201"],
        ["hilbert", FULLY_DASHED_K7, "201"],
    ])
    def test_max_degree_over_the_cap_rejected_before_engine(self, capsys, monkeypatch, argv):
        def no_completion(*args, **kwargs):
            raise AssertionError("completion ran before the cap was checked")

        monkeypatch.setattr(report, "buchberger", no_completion)
        assert run_cli(*argv) == 1
        captured = capsys.readouterr()
        assert captured.err == "error: max degree 201 exceeds the cap 200\n"
        assert captured.out == ""

    def test_classification_inconsistency_exit_two(self, capsys, monkeypatch):
        monkeypatch.setattr(classifier, "MINIMAL_EXPONENTIAL_GRAPHS", ())
        assert run_cli("classify", "K(5; 1-2,2-3,4-5)", "--method", "theorem") == 2
        captured = capsys.readouterr()
        assert captured.err.startswith("error: classification inconsistency: K(5; 1-2, 2-3, 4-5)")
        assert len(captured.err.splitlines()) == 1
        assert captured.out == ""

    def test_duplicate_pair_warns_on_one_line(self, capsys):
        assert run_cli("classify", "K(3; 1-2)") == 0
        want = capsys.readouterr().out
        assert run_cli("classify", "K(3; 1-2, 2-1)") == 0
        captured = capsys.readouterr()
        assert captured.err == "warning: duplicate dashed pair 1-2 in 'K(3; 1-2, 2-1)'\n"
        assert captured.out == want

    def test_duplicate_pair_under_warnings_as_errors_is_one_error_line(self, capsys):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert run_cli("classify", "K(3; 1-2, 2-1)") == 1
        captured = capsys.readouterr()
        assert captured.err == "error: duplicate dashed pair 1-2 in 'K(3; 1-2, 2-1)'\n"
        assert captured.out == ""

    def test_json_deterministic(self, tmp_path):
        p1, p2 = tmp_path / "a.json", tmp_path / "b.json"
        assert run_cli("classify", "K(4; 1-2,3-4)", "--json", str(p1)) == 0
        assert run_cli("classify", "K(4; 1-2,3-4)", "--json", str(p2)) == 0
        assert p1.read_bytes() == p2.read_bytes()
        payload = json.loads(p1.read_text())
        assert payload["theorem"]["branch"] == "(ii)"
        assert payload["discrepancy"] is False

    def test_timings_only_behind_the_flag(self, tmp_path):
        plain, timed = tmp_path / "a.json", tmp_path / "b.json"
        assert run_cli("classify", "K(4; 1-2,3-4)", "--json", str(plain)) == 0
        assert run_cli("classify", "K(4; 1-2,3-4)", "--timings", "--json", str(timed)) == 0
        payload = json.loads(timed.read_text())
        timings = payload.pop("timings")
        assert set(timings) == {"groebner_s", "automaton_s", "total_s"}
        assert all(s >= 0 for s in timings.values())
        assert payload == json.loads(plain.read_text())


class TestHilbert:
    def test_reference_table(self, capsys):
        code = run_cli("hilbert", "K(2;)", "6")
        out = capsys.readouterr().out
        assert code == 0
        rows = [line.split() for line in out.splitlines() if line and line[0].isspace()]
        counts = [int(r[1]) for r in rows if r[0].isdigit()]
        assert counts == [1, 3, 4, 2, 0, 0, 0]
        assert out.strip().endswith("10")

    def test_cap_enforced(self, capsys, monkeypatch):
        monkeypatch.setattr(report, "buchberger", _no_completion)
        assert run_cli("hilbert", "K(2;)", "201") == 1
        assert capsys.readouterr().err == "error: max degree 201 exceeds the cap 200\n"
        assert run_cli("hilbert", "K(2;)", "201", "--cap", "300") == 1  # the cap is fixed
        assert "unrecognized arguments: --cap 300" in capsys.readouterr().err

    def test_json_payload(self, tmp_path):
        path = tmp_path / "h.json"
        assert run_cli("hilbert", "K(2;)", "4", "--json", str(path)) == 0
        payload = json.loads(path.read_text())
        assert payload["prefix"] == [1, 3, 4, 2, 0]
        assert payload["cumulative"] == [1, 4, 8, 10, 10]

    def test_parameter_label_normalised(self, tmp_path):
        path = tmp_path / "h.json"
        assert run_cli("hilbert", "K(2;)", "4", "--t", "2/4", "--json", str(path)) == 0
        assert json.loads(path.read_text())["t"] == "t=1/2"

    def test_truncation_warned(self, capsys, tmp_path):
        path = tmp_path / "h.json"
        assert run_cli("hilbert", "K(5; 1-2,2-3,4-5)", "3", "--degree-bound", "6", "--json", str(path)) == 0
        lines = capsys.readouterr().out.splitlines()
        assert lines[:2] == ["graph: K(5; 1-2, 2-3, 4-5)   (complete basis: False)",
                             "warning: completion truncated; every count is an upper bound only"]
        assert json.loads(path.read_text())["complete"] is False


class TestGb:
    def test_obstructions_listed(self, capsys):
        code = run_cli("gb", "K(2; 1-2)")
        out = capsys.readouterr().out
        assert code == 0
        assert "complete: True" in out
        assert "p2 p1" in out and "p2 p0 p1 p2" in out

    def test_dump_prints_polynomials(self, capsys):
        run_cli("gb", "K(1;)", "--dump")
        out = capsys.readouterr().out
        assert "p1 p0 p1 - t*p1" in out

    def test_specialised_parameter(self, capsys):
        code = run_cli("gb", "K(2; 1-2)", "--t", "1/2", "--dump")
        out = capsys.readouterr().out
        assert code == 0 and "1/2*p1" in out

    def test_bad_parameter_exit_one(self):
        assert run_cli("gb", "K(2; 1-2)", "--t", "3/2") == 1

    def test_zero_denominator_parameter_exit_one(self, capsys):
        assert run_cli("classify", "K(2;1-2)", "--t", "1/0") == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and len(err.strip().splitlines()) == 1


class TestCrossvalidate:
    def test_small_sweep_agrees(self, capsys):
        code = run_cli("crossvalidate", "--max-leaves", "3")
        out = capsys.readouterr().out
        assert code == 0
        assert "all complete: True   all agree: True" in out

    def test_large_needs_override(self):
        assert run_cli("crossvalidate", "--max-leaves", "7") == 1
        assert run_cli("crossvalidate", "--max-leaves", "8", "--allow-large") == 1

    def test_degree_bound_is_a_usage_error(self, capsys, monkeypatch):
        monkeypatch.setattr(report, "buchberger", _no_completion)
        assert run_cli("crossvalidate", "--max-leaves", "2", "--degree-bound", "8") == 1
        assert "unrecognized arguments: --degree-bound 8" in capsys.readouterr().err

    @pytest.mark.parametrize("max_leaves", ["0", "-1"])
    def test_empty_sweep_exit_one(self, capsys, max_leaves):
        assert run_cli("crossvalidate", "--max-leaves", max_leaves) == 1
        captured = capsys.readouterr()
        assert captured.err.startswith("error: ") and "all agree" not in captured.out

    def test_parameter_label_normalised(self, tmp_path):
        path = tmp_path / "cv.json"
        assert run_cli("crossvalidate", "--max-leaves", "2", "--t", "2/4", "--json", str(path)) == 0
        assert json.loads(path.read_text())["t"] == "t=1/2"

    def test_json_rows(self, tmp_path):
        path = tmp_path / "cv.json"
        assert run_cli("crossvalidate", "--max-leaves", "2", "--json", str(path)) == 0
        payload = json.loads(path.read_text())
        assert payload["class_count"] == 3 and payload["all_agree"] is True

    def test_disagreement_reported_exit_two(self, capsys, tmp_path, monkeypatch):
        classify_by_theorem, edge = report.classify_by_theorem, parse_graph("K(2; 1-2)")

        def wrong_on_edge(g):
            verdict = classify_by_theorem(g)
            if g != edge:
                return verdict
            return classifier.TheoremVerdict("polynomial-linear", verdict.branch, verdict.nu,
                                             verdict.witness_pattern, verdict.witness)

        monkeypatch.setattr(report, "classify_by_theorem", wrong_on_edge)
        path = tmp_path / "cv.json"
        assert run_cli("crossvalidate", "--max-leaves", "2", "--json", str(path)) == 2
        out = capsys.readouterr().out
        assert "all complete: True   all agree: False" in out
        assert out.splitlines()[-1] == ("DISAGREEMENT: K(2; 1-2) theorem=polynomial-linear engine=finite "
                                        "gk=None complete=True nu_violations=[]")
        assert json.loads(path.read_text())["all_agree"] is False


class TestWitness:
    def test_check_reference_pair(self, capsys):
        code = run_cli("witness", "K(5; 1-2,2-3,4-5)",
                       "--check", "0,1,2,0,4,5", "0,2,3,0,4,5")
        out = capsys.readouterr().out
        assert code == 0 and "verified" in out

    def test_check_failing_pair_prints_window(self, capsys):
        code = run_cli("witness", "K(4; 1-2,3-4)", "--check", "0,1,2", "0,3,4")
        out = capsys.readouterr().out
        assert code == 2
        assert "NOT free" in out and "obstruction" in out

    @pytest.mark.parametrize("q1, q2", [("0,9", "1"), ("1", "0,3"), ("-1", "1")])
    def test_check_letter_outside_alphabet_exit_one(self, capsys, q1, q2):
        assert run_cli("witness", "K(2;1-2)", "--check", q1, q2) == 1
        captured = capsys.readouterr()
        assert "outside the alphabet" in captured.err and "NOT free" not in captured.out

    def test_search_linear_growth_none(self, capsys):
        code = run_cli("witness", "K(4; 1-2,3-4)")
        assert code == 0
        assert capsys.readouterr().out.strip().splitlines()[-1] == "none"

    def test_search_none_json(self, capsys, tmp_path):
        path = tmp_path / "w.json"
        assert run_cli("witness", "K(4; 1-2,3-4)", "--json", str(path)) == 0
        assert capsys.readouterr().out == "none\n"
        graph = {"n": 4, "dashed": [[1, 2], [3, 4]]}
        assert json.loads(path.read_text()) == {"graph": graph, "t": "symbolic", "complete": True, "certificate": None}

    def test_search_truncation_warned(self, capsys, tmp_path):
        path = tmp_path / "w.json"
        assert run_cli("witness", "K(5; 1-2,2-3,4-5)", "--degree-bound", "6", "--json", str(path)) == 2
        lines = capsys.readouterr().out.splitlines()
        assert lines[0] == "warning: completion truncated; obstruction set is partial"
        assert lines[1].startswith("free pair: ")
        assert lines[-1] == UNVERIFIED
        assert json.loads(path.read_text())["complete"] is False

    def test_check_truncation_unverified(self, capsys, tmp_path):
        path = tmp_path / "w.json"
        assert run_cli("witness", "K(5; 1-2,2-3,4-5)", "--degree-bound", "6",
                       "--check", "0,1,2,0,4,5", "0,2,3,0,4,5", "--json", str(path)) == 2
        lines = capsys.readouterr().out.splitlines()
        assert lines[0] == "warning: completion truncated; obstruction set is partial"
        assert lines[1].startswith("verified: ")
        assert lines[-1] == UNVERIFIED
        assert json.loads(path.read_text())["complete"] is False

    def test_search_exponential_finds_pair(self, capsys):
        code = run_cli("witness", "K(6; 1-6,2-3,4-5)")
        out = capsys.readouterr().out
        assert code == 0 and "free pair" in out

    def test_search_finite_none(self, capsys):
        code = run_cli("witness", "K(3; 1-2,1-3,2-3)")
        assert code == 0
        assert capsys.readouterr().out.strip().splitlines()[-1] == "none"

    @pytest.mark.parametrize("flags, message", [
        (["--check", "", "0"], "free-pair blocks must be nonempty"),
        (["--check", "0,1", "0,1"], "free-pair blocks must be distinct"),
    ], ids=["empty-block", "equal-blocks"])
    def test_bad_flags_refused_before_any_stage(self, capsys, monkeypatch, flags, message):
        def no_stage(*args, **kwargs):
            raise AssertionError("an engine stage ran before the witness flags were checked")

        monkeypatch.setattr(report, "build_presentation", no_stage)
        monkeypatch.setattr(report, "buchberger", no_stage)
        assert run_cli("witness", FULLY_DASHED_K7, *flags) == 1
        captured = capsys.readouterr()
        assert captured.err == f"error: {message}\n"
        assert captured.out == ""


class TestParameter:
    @pytest.mark.parametrize("t", ["abc", "1/0", "0", "1", "3/2"])
    @pytest.mark.parametrize("command", [
        ["classify", "K(2; 1-2)", "--method", "both"],
        ["classify", "K(2; 1-2)", "--method", "theorem"],
        ["hilbert", "K(2; 1-2)", "4"],
        ["gb", "K(2; 1-2)", "--dump"],
        ["crossvalidate", "--max-leaves", "2"],
        ["witness", "K(2; 1-2)"],
    ], ids=["classify-both", "classify-theorem", "hilbert", "gb", "crossvalidate", "witness"])
    def test_bad_value_refused_before_any_stage(self, capsys, monkeypatch, command, t):
        def no_stage(*args, **kwargs):
            raise AssertionError("an engine stage ran before --t was checked")

        monkeypatch.setattr(report, "build_presentation", no_stage)
        monkeypatch.setattr(report, "buchberger", no_stage)
        assert run_cli(*command, "--t", t) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert len(captured.err.splitlines()) == 1 and captured.err.startswith("error: ")


class TestParameterModes:
    def test_values(self):
        assert parameter("symbolic") == (RationalFunction.t(), "symbolic")
        assert parameter("1/2") == (Fraction(1, 2), "t=1/2")

    @pytest.mark.parametrize("bad", ["0", "1", "5/4", "-1/2", Fraction(7, 3), "abc"])
    def test_out_of_range_rejected(self, bad):
        with pytest.raises(ValueError):
            parameter(bad)

    @pytest.mark.parametrize("mode, label", [("symbolic", "symbolic"), ("2/4", "t=1/2"), ("0.25", "t=1/4")])
    def test_label_in_lowest_terms(self, mode, label):
        assert parameter(mode)[1] == label


class TestUnwritableJson:
    def test_missing_directory(self, capsys, tmp_path):
        path = tmp_path / "missing" / "x.json"
        assert run_cli("classify", "K(3; 1-2)", "--json", str(path)) == 1
        captured = capsys.readouterr()
        assert captured.err == f"error: cannot write {path}: No such file or directory\n"

    def test_path_is_a_directory(self, capsys, tmp_path):
        assert run_cli("gb", "K(3; 1-2)", "--json", str(tmp_path)) == 1
        captured = capsys.readouterr()
        assert captured.err == f"error: cannot write {tmp_path}: Is a directory\n"

    @pytest.mark.parametrize("command", [["classify", "K(3; 1-2)"], ["gb", "K(3; 1-2)"],
                                         ["crossvalidate", "--max-leaves", "2"]])
    def test_refused_before_completion(self, capsys, tmp_path, monkeypatch, command):
        def no_engine(*args, **kwargs):
            raise AssertionError("completion ran before the --json path was checked")

        monkeypatch.setattr(report, "buchberger", no_engine)
        path = tmp_path / "missing" / "x.json"
        assert run_cli(*command, "--json", str(path)) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: cannot write {path}: No such file or directory\n"

    def test_write_error_after_the_check(self, capsys, tmp_path, monkeypatch):
        # The directory can vanish between the check and the write.
        monkeypatch.setattr(cli, "_check_json_target", lambda path: None)
        path = tmp_path / "missing" / "x.json"
        assert run_cli("gb", "K(3; 1-2)", "--json", str(path)) == 1
        captured = capsys.readouterr()
        assert captured.err == f"error: cannot write {path}: No such file or directory\n"

    def test_parent_is_a_file(self, capsys, tmp_path):
        parent = tmp_path / "file"
        parent.write_text("")
        assert run_cli("enumerate", "2", "--json", str(parent / "x.json")) == 1
        captured = capsys.readouterr()
        assert captured.err == f"error: cannot write {parent / 'x.json'}: Not a directory\n"


class TestEnumerate:
    def test_counts(self, capsys):
        code = run_cli("enumerate", "4")
        out = capsys.readouterr().out
        assert code == 0 and out.startswith("11 isomorphism classes")

    def test_out_of_range_exit_one(self):
        assert run_cli("enumerate", "9") == 1


def test_console_entry_point_subprocess():
    # A child process sees neither pytest's pythonpath setting nor src/; it
    # needs tlstar installed or on PYTHONPATH.
    probe = subprocess.run([sys.executable, "-c", "import tlstar"], capture_output=True)
    if probe.returncode != 0:
        pytest.skip("tlstar is neither installed nor on PYTHONPATH")
    proc = subprocess.run(
        [sys.executable, "-m", "tlstar.cli", "classify", "K(2; 1-2)"],
        capture_output=True, text=True,
    )
    assert proc.returncode == 0
    assert "finite" in proc.stdout


@pytest.mark.parametrize("module", ["tlstar", "tlstar.cli"])
def test_runs_as_main_module(module, capsys, monkeypatch):
    # In-process, unlike the two subprocess tests, so a line tracer sees the `__main__` blocks.
    monkeypatch.setattr(sys, "argv", [module, "classify", "K(2; 1-2)"])
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)  # runpy: tlstar.cli is already imported
        with pytest.raises(SystemExit) as exit_:
            runpy.run_module(module, run_name="__main__")
    assert exit_.value.code == 0
    assert "finite" in capsys.readouterr().out


def test_python_dash_m_tlstar_subprocess():
    # A source checkout runs the CLI as ``python -m tlstar`` with src/ on PYTHONPATH.
    src = str(Path(__file__).resolve().parents[1] / "src")
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    env = dict(os.environ, PYTHONPATH=path)
    proc = subprocess.run(
        [sys.executable, "-m", "tlstar", "classify", "K(2; 1-2)"],
        capture_output=True, text=True, env=env,
    )
    assert proc.returncode == 0
    assert "finite" in proc.stdout
