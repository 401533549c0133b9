"""Record the reference outputs that checks.py compares against.

Usage: python3 benchmarks/record_expected.py

Run once, at the commit whose outputs are taken as correct; it rewrites
``expected.json``.  For ``sweep6-symbolic`` it stores the obstruction-set
digest of every engine run, keyed by the engine's input graph; for
``star7-half`` the digest of the one obstruction set.
"""

import json
import os
import tempfile

import checks
import run


def _parse_key(key: str):
    n, _, body = key.partition(":")
    return int(n), [tuple(map(int, pair.split("-"))) for pair in body.split(",") if pair]


def main() -> None:
    os.makedirs(run.WORK, exist_ok=True)
    with tempfile.TemporaryDirectory(dir=run.WORK) as tmp:
        sweep = run.Workload("sweep6-symbolic", 0, tmp, {})
        rep = run.spawn(dict(sweep.spec, trace=False), tmp)
        table = {}
        for key, words in run.engine_runs(rep["spans"]):
            if checks.lexmin_representative(*_parse_key(key)) != key:
                raise SystemExit(f"engine input {key} is not the lexicographically least relabelling")
            table[key] = checks.obstruction_digest(words)
        star = run.Workload("star7-half", 0, tmp, {})
        run.spawn(dict(star.spec, trace=False), tmp)
        with open(star.json_out, encoding="utf-8") as f:
            report = json.load(f)
    expected = {
        "sweep6-symbolic": table,
        "star7-half": {
            "obstruction_digest": checks.obstruction_digest(report["groebner"]["obstructions"]),
            "exponential": report["growth"]["coarse"] == "exponential",
        },
    }
    with open(run.EXPECTED, "w", encoding="utf-8") as f:
        json.dump(expected, f, indent=1, sort_keys=True)
        f.write("\n")
    print(f"recorded {len(table)} sweep classes and the star7-half obstruction digest")


if __name__ == "__main__":
    main()
