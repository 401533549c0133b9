"""Command-line front end.

Subcommands: classify, hilbert, gb, crossvalidate, witness, enumerate.
Exit codes: 0 success/agreement, 1 usage or parse error (a warning turned
into an error by ``-W error`` included) or an unwritable --json path, 2
mathematical discrepancy (engine vs structural classifier mismatch,
violated component conditions, truncated completion in a sweep, a failed
witness check, a free pair found or verified on a truncated completion, an
exponential-branch graph in which the theorem finds no witness, or a
searched free pair that the obstructions refute).
JSON output is schema-stable and byte-deterministic for fixed inputs and
flags; wall-clock timings are only emitted behind --timings.  Every
subcommand returns its exit code and its JSON payload, and `main` alone
writes --json.
--t is parsed here and nowhere else, before any stage runs, and `main`
writes its label as the "t" of the payload of every command that takes
it.  It only labels output and sets the value at which gb --dump renders
the basis: one engine run serves every t, and the library takes no value
of t.
"""

from __future__ import annotations

import argparse
import errno
import json
import os
import sys
import warnings
from fractions import Fraction
from itertools import accumulate
from pathlib import Path

# build_automaton, buchberger, build_presentation: not called here, but tracing tools wrap these names.
from .automaton import build_automaton, check_max_degree, hilbert_prefix  # noqa: F401
from .graphs import MAX_LEAVES, enumerate_graphs, parse_graph
from .groebner import buchberger  # noqa: F401
from .growth import (EXPONENTIAL, FINITE, POLYNOMIAL, find_free_pair_violation, free_pair_window_bound,
                     search_free_pair)
from .ncpoly import format_word, parse_word, word_key
from .presentation import build_presentation, render_rules  # noqa: F401
from .report import DEFAULT_HILBERT_DEGREE, analyze, cross_validate, run_engine
from .scalars import RationalFunction

__all__ = ["main"]

OK, USAGE_ERROR, DISCREPANCY = 0, 1, 2
DEFAULT_HILBERT_CAP = 200
SYMBOLIC = "symbolic"


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        self.print_usage(sys.stderr)
        print(f"{self.prog}: error: {message}", file=sys.stderr)
        raise SystemExit(USAGE_ERROR)


def _check_json_target(path: str) -> None:
    """Refuse a --json path that cannot be written, before any work is done.

    `_write_json` still handles the OSError: the target can change meanwhile.
    """
    target = Path(path)
    if target.is_dir():
        code = errno.EISDIR
    elif not target.parent.exists():
        code = errno.ENOENT
    elif not target.parent.is_dir():
        code = errno.ENOTDIR
    else:
        return
    raise ValueError(f"cannot write {path}: {os.strerror(code)}")


def _write_json(path: str, payload: dict) -> None:
    try:
        Path(path).write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n", encoding="utf-8")
    except OSError as exc:
        raise ValueError(f"cannot write {path}: {exc.strerror or exc}") from None


def parameter(mode: str) -> tuple[object, str]:
    """(value, label) of a --t mode, for `render_rules` and output.

    "symbolic" gives Q(t)'s generator and the label "symbolic"; a rational
    p/q strictly between 0 and 1 gives that `Fraction` and the label
    "t=p/q" in lowest terms.  Raises ValueError for anything else.
    """
    if mode == SYMBOLIC:
        return RationalFunction.t(), SYMBOLIC
    try:
        value = Fraction(mode)
    except ZeroDivisionError:
        raise ValueError(f"specialised parameter {mode} has a zero denominator") from None
    if not (0 < value < 1):
        raise ValueError(f"specialised parameter must lie strictly between 0 and 1, got {value}")
    return value, f"t={value}"


def _add_engine_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--degree-bound", type=int, default=None, metavar="N",
                   help="completion degree bound (default 2n + 8)")
    p.add_argument("--t", default=SYMBOLIC, metavar="MODE",
                   help="'symbolic' (default) or a rational in (0,1) such as 1/2; only labels and renders")


def _check_hilbert_degree(max_degree: int, cap: int = DEFAULT_HILBERT_CAP) -> None:
    """Refuse a normal-word count prefix longer than the cap, or negative, before any completion."""
    if max_degree > cap:
        raise ValueError(f"max degree {max_degree} exceeds the cap {cap}")
    check_max_degree(max_degree)


def _cmd_classify(args) -> tuple[int, dict]:
    g = parse_graph(args.graph)
    _check_hilbert_degree(args.max_degree)
    report = analyze(g, method=args.method, degree_bound=args.degree_bound, max_degree=args.max_degree)
    print(f"graph:    {g}")
    print(f"pruned:   {report.pruned}  (removed leaves: {list(report.removed_leaves) or 'none'})")
    print(f"nu:       {report.theorem.nu}")
    v = report.theorem
    print(f"theorem:  {v.coarse}  branch {v.branch}")
    if v.witness is not None:
        print(f"          witness {v.witness_pattern} via {dict(v.witness.mapping)}")
    if report.groebner is not None:
        res = report.groebner
        print(f"groebner: basis {res.basis_size()}, obstructions {len(res.obstructions)}, "
              f"degree bound {res.degree_bound}, complete {res.complete}")
        growth = report.growth
        extra = ""
        if growth.coarse == FINITE:
            extra = f", dimension {growth.dimension} (unital; {growth.dimension - 1} without the empty word)"
        elif growth.coarse == POLYNOMIAL:
            extra = f", gk degree {growth.gk_degree}"
        caveat = " [upper bound only]" if growth.upper_bound_only else ""
        print(f"growth:   {growth.coarse}{extra}{caveat}")
        print(f"hilbert:  {report.hilbert}")
        if report.free_pair is not None:
            fp = report.free_pair
            print(f"free pair: {format_word(fp.q1)} | {format_word(fp.q2)} "
                  f"(window bound {fp.window_bound})")
    if report.discrepancies:
        print("DISCREPANCIES:")
        for d in report.discrepancies:
            print(f"  - {d}")
    else:
        print("no discrepancies")
    return DISCREPANCY if report.discrepancy else OK, report.to_json_dict(include_timings=args.timings)


def _cmd_hilbert(args) -> tuple[int, dict]:
    g = parse_graph(args.graph)
    _check_hilbert_degree(args.max_degree, args.cap)
    run = run_engine(g, args.degree_bound)
    complete = run.groebner.complete
    prefix = hilbert_prefix(run.automaton, args.max_degree)
    cumulative = list(accumulate(prefix))
    print(f"graph: {g}   (complete basis: {complete})")
    if not complete:
        print("warning: completion truncated; every count is an upper bound only")
    print(f"{'degree':>6}  {'words':>12}  {'cumulative':>12}")
    for degree, (count, total) in enumerate(zip(prefix, cumulative)):
        print(f"{degree:>6}  {count:>12}  {total:>12}")
    return OK, {"graph": g.to_json_dict(), "complete": complete,
                "prefix": prefix, "cumulative": cumulative}


def _cmd_gb(args) -> tuple[int, dict]:
    g = parse_graph(args.graph)
    result = run_engine(g, args.degree_bound).groebner
    payload = result.to_json_dict()
    payload["graph"] = g.to_json_dict()
    obs = sorted(result.obstructions, key=word_key)
    print(f"graph: {g}")
    print(f"basis size: {result.basis_size()}   complete: {result.complete}   "
          f"degree bound: {result.degree_bound}")
    print(f"obstructions ({len(obs)}):")
    for w in obs:
        print(f"  {format_word(w)}")
    if args.dump:
        basis = payload["basis"] = [p.format() for p in render_rules(result.rules, args.t_value)]
        print("basis elements:")
        for p in basis:
            print(f"  {p}")
    return OK, payload


def _cmd_crossvalidate(args) -> tuple[int, dict]:
    if args.max_leaves > 6 and not args.allow_large:
        raise ValueError(f"max leaves {args.max_leaves} needs --allow-large (sweeps beyond 6 are expensive)")
    sweep = cross_validate(args.max_leaves, degree_bound=args.degree_bound)
    print(f"classes up to {args.max_leaves} leaves: {len(sweep.rows)} "
          f"({sweep.engine_runs} distinct pruned classes run through the engine)")
    matrix = sweep.agreement_matrix()
    labels = (FINITE, POLYNOMIAL, EXPONENTIAL)
    corner = "theorem / engine"
    print(f"{corner:>18}  " + "  ".join(f"{l:>12}" for l in labels))
    for a in labels:
        print(f"{a:>18}  " + "  ".join(f"{matrix[a][b]:>12}" for b in labels))
    print(f"all complete: {sweep.all_complete}   all agree: {sweep.all_agree}")
    for row in sweep.disagreements():
        print(f"DISAGREEMENT: {row.graph} theorem={row.theorem.coarse} "
              f"engine={row.engine_growth.coarse} gk={row.engine_growth.gk_degree} "
              f"complete={row.complete} nu_violations={row.nu_violations}")
    return OK if sweep.all_agree and sweep.all_complete else DISCREPANCY, sweep.to_json_dict()


def _cmd_witness(args) -> tuple[int, dict]:
    g = parse_graph(args.graph)
    if args.check:
        q1, q2 = (parse_word(w) for w in args.check)
        for q in (q1, q2):
            outside = [a for a in q if not 0 <= a <= g.n]
            if outside:
                raise ValueError(f"letter {outside[0]} in block {','.join(map(str, q))} "
                                 f"is outside the alphabet 0..{g.n}")
        find_free_pair_violation(q1, q2, frozenset())  # refuses empty or equal blocks before completion
    run = run_engine(g, args.degree_bound)
    result = run.groebner
    if not result.complete:
        print("warning: completion truncated; obstruction set is partial")
    if args.check:
        violation = find_free_pair_violation(q1, q2, result.obstructions)
        payload = {"graph": g.to_json_dict(), "complete": result.complete, "verified": violation is None,
                   "q1": list(q1), "q2": list(q2)}
        if violation is None:
            bound = payload["window_bound"] = free_pair_window_bound(q1, q2, result.obstructions)
            print(f"verified: all block concatenations of {format_word(q1)} and "
                  f"{format_word(q2)} are normal (window bound {bound})")
            return _free_pair_exit(result.complete), payload
        choice, word, pos, obstruction = violation
        seq = " ".join("q1" if c == 0 else "q2" for c in choice)
        print(f"NOT free: block sequence [{seq}] spells {format_word(word)}")
        print(f"  obstruction {format_word(obstruction)} occurs at position {pos}")
        payload.update(violating_blocks=list(choice), violating_word=list(word), position=pos,
                       obstruction=list(obstruction))
        return DISCREPANCY, payload
    cert = search_free_pair(run.automaton)
    payload = {"graph": g.to_json_dict(), "complete": result.complete,
               "certificate": None if cert is None else cert.to_json_dict()}
    if cert is None:
        print("none")
        return OK, payload
    q1_ix = ",".join(map(str, cert.q1))
    q2_ix = ",".join(map(str, cert.q2))
    print(f"free pair: q1 = {format_word(cert.q1)}   q2 = {format_word(cert.q2)} "
          f"(window bound {cert.window_bound})")
    print(f"  as index sequences: {q1_ix}   {q2_ix}")
    return _free_pair_exit(result.complete), payload


def _free_pair_exit(complete: bool) -> int:
    """Exit code of a free pair found or verified: only a complete obstruction set certifies it.

    A truncated completion misses obstructions, so a pair free of the
    partial set may still be cut by the missing ones.
    """
    if complete:
        return OK
    print("unverified: completion truncated, so the obstruction set is partial and certifies nothing")
    return DISCREPANCY


def _cmd_enumerate(args) -> tuple[int, dict]:
    graphs = enumerate_graphs(args.n)
    print(f"{len(graphs)} isomorphism classes on {args.n} leaves:")
    for g in graphs:
        print(f"  {g}")
    return OK, {"n": args.n, "class_count": len(graphs), "classes": [g.to_json_dict() for g in graphs]}


def _build_parser() -> _Parser:
    parser = _Parser(prog="tlstar", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)
    json_flag = argparse.ArgumentParser(add_help=False)
    json_flag.add_argument("--json", metavar="PATH", help="also write the result as JSON to PATH")

    p = sub.add_parser("classify", parents=[json_flag], help="classify growth by both methods and reconcile")
    p.add_argument("graph", help="graph text, e.g. \"K(5; 1-2,2-3,4-5)\"")
    p.add_argument("--method", choices=("both", "theorem"), default="both")
    p.add_argument("--max-degree", type=int, default=DEFAULT_HILBERT_DEGREE, metavar="N",
                   help=f"length of the reported normal-word count prefix (at most {DEFAULT_HILBERT_CAP})")
    p.add_argument("--timings", action="store_true", help="include wall-clock timings in JSON")
    _add_engine_flags(p)
    p.set_defaults(func=_cmd_classify)

    p = sub.add_parser("hilbert", parents=[json_flag], help="normal-word counts per degree")
    p.add_argument("graph")
    p.add_argument("max_degree", type=int)
    p.add_argument("--cap", type=int, default=DEFAULT_HILBERT_CAP,
                   help=f"safety cap on max_degree (default {DEFAULT_HILBERT_CAP})")
    _add_engine_flags(p)
    p.set_defaults(func=_cmd_hilbert)

    p = sub.add_parser("gb", parents=[json_flag], help="compute the Groebner basis and obstruction set")
    p.add_argument("graph")
    p.add_argument("--dump", action="store_true", help="print every basis element")
    _add_engine_flags(p)
    p.set_defaults(func=_cmd_gb)

    p = sub.add_parser("crossvalidate", parents=[json_flag], help="sweep all classes and compare classifiers")
    p.add_argument("--max-leaves", type=int, default=6)
    p.add_argument("--allow-large", action="store_true",
                   help=f"permit sweeps beyond 6 leaves (up to {MAX_LEAVES})")
    _add_engine_flags(p)
    p.set_defaults(func=_cmd_crossvalidate)

    p = sub.add_parser("witness", parents=[json_flag], help="search for or verify a free pair of words")
    p.add_argument("graph")
    p.add_argument("--check", nargs=2, metavar=("Q1", "Q2"),
                   help="verify this pair (comma-separated indices, e.g. 0,1,2,0,4,5)")
    _add_engine_flags(p)
    p.set_defaults(func=_cmd_witness)

    p = sub.add_parser("enumerate", parents=[json_flag],
                       help="list isomorphism classes of dashed configurations")
    p.add_argument("n", type=int)
    p.set_defaults(func=_cmd_enumerate)

    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    with warnings.catch_warnings():  # each warning as one line, without Python's source location
        warnings.showwarning = lambda message, *_: print(f"warning: {message}", file=sys.stderr)
        try:
            if args.json:
                _check_json_target(args.json)
            if "t" in args:
                args.t_value, args.t_label = parameter(args.t)
            code, payload = args.func(args)
            if "t" in args:
                payload["t"] = args.t_label
            if args.json:
                _write_json(args.json, payload)
        except (ValueError, Warning) as exc:  # a warning that the filters (`-W error`) turn into an error
            print(f"error: {exc}", file=sys.stderr)
            return USAGE_ERROR
        except RuntimeError as exc:  # no theorem witness in the exponential branch, or a refuted free pair
            print(f"error: {exc}", file=sys.stderr)
            return DISCREPANCY
    return code


if __name__ == "__main__":
    sys.exit(main())
