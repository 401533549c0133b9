"""Output checks for the benchmark workloads, run outside the timed region.

Each check stands on data recorded once at the seed commit, on a published
sequence, or on a few lines of its own code; none calls into tlstar, so a
defect in the code under test cannot also hide itself in the check.

Every function returns ``(items, failures)``: the number of items the
workload attempted and one message per failed item.
"""

from __future__ import annotations

import hashlib
import itertools
import json
import math
from collections import Counter, defaultdict

# Graphs on n unlabelled vertices, OEIS A000088: the number of isomorphism
# classes of dashed configurations on n leaves.
A000088 = {1: 1, 2: 2, 3: 4, 4: 11, 5: 34, 6: 156, 7: 1044, 8: 12346}

HILBERT_CHECK_DEGREE = 8


def graph_key(n: int, edges) -> str:
    """Text key of a labelled graph: ``"n:i-j,..."`` with sorted pairs."""
    return f"{n}:" + ",".join(f"{i}-{j}" for i, j in sorted(edges))


def obstruction_digest(words) -> str:
    """Order-free digest of an obstruction set (lists or tuples of letters)."""
    canon = json.dumps(sorted(list(w) for w in words), separators=(",", ":"))
    return hashlib.sha256(canon.encode()).hexdigest()[:16]


def _prune(n: int, edges):
    covered = sorted({v for e in edges for v in e})
    label = {old: k + 1 for k, old in enumerate(covered)}
    return len(covered), [(label[i], label[j]) for i, j in edges]


def lexmin_representative(n: int, edges) -> str:
    """Key of the lexicographically least relabelling (brute force over n!)."""
    best = None
    for perm in itertools.permutations(range(1, n + 1)):
        relabelled = sorted((min(perm[i - 1], perm[j - 1]), max(perm[i - 1], perm[j - 1]))
                            for i, j in edges)
        if best is None or relabelled < best:
            best = relabelled
    return graph_key(n, best or [])


def check_sweep(sweep: dict, engine_runs: list, expected: dict, max_leaves: int):
    """``crossvalidate`` JSON against A000088, row flags and recorded obstruction digests.

    ``engine_runs`` pairs each engine input graph key with its obstruction
    words, captured at the calls ``cross_validate`` makes.  Each row's
    pruned graph is mapped to its class independently of tlstar, so a row
    attached to the wrong engine run fails too.
    """
    rows = sweep.get("rows", [])
    items = max(len(rows), sum(A000088[n] for n in range(1, max_leaves + 1)))
    counts = Counter(row["graph"]["n"] for row in rows)
    wanted = {n: A000088[n] for n in range(1, max_leaves + 1)}
    if dict(counts) != wanted:
        return items, [f"class counts per n {dict(sorted(counts.items()))} != A000088 {wanted}"] * items
    digests = {key: obstruction_digest(words) for key, words in engine_runs}
    memo = {}
    failures = []
    for row in rows:
        text = row["text"]
        if not (row["agree"] and row["engine"]["complete"]):
            failures.append(f"{text}: agree={row['agree']} complete={row['engine']['complete']}")
            continue
        pruned = _prune(row["graph"]["n"], [tuple(e) for e in row["graph"]["dashed"]])
        cls = memo.get(graph_key(*pruned))
        if cls is None:
            cls = memo[graph_key(*pruned)] = lexmin_representative(*pruned)
        want = expected.get(cls)
        got = digests.get(cls)
        if want is None or got != want:
            failures.append(f"{text}: class {cls} obstruction digest {got} != recorded {want}")
    failures.extend(["missing row"] * (items - len(rows)))
    return items, failures


def _normal_word_counts(obstructions, alphabet_size: int, max_degree: int) -> list[int]:
    """Count words avoiding every obstruction as a factor, by depth-first extension."""
    obs = {tuple(w) for w in obstructions}
    longest = max((len(w) for w in obs), default=0)
    counts = [0] * (max_degree + 1)
    stack = [()]
    while stack:
        word = stack.pop()
        counts[len(word)] += 1
        if len(word) == max_degree:
            continue
        for letter in range(alphabet_size):
            ext = word + (letter,)
            # A new occurrence can only end at the appended letter.
            if not any(ext[-k:] in obs for k in range(1, min(longest, len(ext)) + 1)):
                stack.append(ext)
    return counts


def _free_pair_failure(q1, q2, obstructions):
    """Why ``{q1, q2}`` is not a verified free pair, or None if it is."""
    q1, q2 = tuple(q1), tuple(q2)
    if not q1 or not q2 or q1[0] == q2[0]:
        return f"blocks {q1}, {q2} are empty or share a first letter (not a prefix code)"
    obs = {tuple(w) for w in obstructions}
    longest = max((len(w) for w in obs), default=0)
    # An occurrence of length L meets at most ceil(L / shortest block) + 1
    # consecutive blocks; one spare block makes the window safely large.
    window = math.ceil(longest / min(len(q1), len(q2))) + 2
    for choice in itertools.product((q1, q2), repeat=window):
        word = sum(choice, ())
        for start in range(len(word)):
            for k in range(1, min(longest, len(word) - start) + 1):
                if word[start:start + k] in obs:
                    return f"block word {word} contains obstruction {word[start:start + k]}"
    return None


def check_classify(report: dict, expected: dict):
    """``classify --json`` of one graph: digest, Hilbert prefix by DFS, free pair."""
    failures = []
    gb = report.get("groebner") or {}
    obs = gb.get("obstructions", [])
    if report.get("discrepancy") or not gb.get("complete"):
        failures.append(f"discrepancy={report.get('discrepancy')} complete={gb.get('complete')}")
    if obstruction_digest(obs) != expected["obstruction_digest"]:
        failures.append(f"obstruction digest {obstruction_digest(obs)} != recorded "
                        f"{expected['obstruction_digest']}")
    prefix = (report.get("hilbert") or {}).get("prefix", [])[:HILBERT_CHECK_DEGREE + 1]
    dfs = _normal_word_counts(obs, report["graph"]["n"] + 1, HILBERT_CHECK_DEGREE)
    if prefix != dfs:
        failures.append(f"hilbert prefix {prefix} != direct count {dfs}")
    pair = report.get("free_pair")
    if expected["exponential"]:
        why = "no free pair reported" if pair is None else _free_pair_failure(pair["q1"], pair["q2"], obs)
        if why:
            failures.append(why)
    return 1, failures[:1]


def check_batch(inputs: list, groups: list, outputs: list):
    """Isomorphism-class batch: invariants per input, agreement within each base graph.

    A representative must keep the input's leaf count, edge count and
    degree sequence; all relabellings of one base graph must share the
    canonical form and the theorem verdict (branch, nu).
    """
    failures = []
    by_group = defaultdict(list)
    for k, out in enumerate(outputs):
        by_group[groups[k]].append(k)
    consensus = {}
    for group, members in by_group.items():
        votes = Counter((tuple(map(tuple, outputs[k]["class"])), outputs[k]["branch"], outputs[k]["nu"])
                        for k in members)
        consensus[group] = votes.most_common(1)[0][0]
    for k, out in enumerate(outputs):
        n, edges = inputs[k]
        rep = [tuple(e) for e in out["class"]]
        degree = Counter(v for e in edges for v in e)
        rep_degree = Counter(v for e in rep for v in e)
        if out["n"] != n or len(rep) != len(edges) or sorted(degree.values()) != sorted(rep_degree.values()):
            failures.append(f"input {k}: representative {rep} changes n, edge count or degrees")
        elif (tuple(rep), out["branch"], out["nu"]) != consensus[groups[k]]:
            failures.append(f"input {k}: canonical form or verdict differs from its relabellings")
        elif out["violations"]:
            failures.append(f"input {k}: nu conditions violated: {out['violations']}")
    failures.extend(["no output"] * (len(inputs) - len(outputs)))
    return len(inputs), failures
