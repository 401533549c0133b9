"""Certifying exponential growth with a free pair of words.

Two words q1, q2 certify exponential growth when every concatenation of
blocks from {q1, q2} is a normal word: the subalgebra they generate is then
free on two generators.  The check is finite because an obstruction of
length L spans at most ceil(L / min block length) + 1 consecutive blocks.
"""

from tlstar import (
    build_automaton,
    buchberger,
    build_presentation,
    find_free_pair_violation,
    format_word,
    parse_graph,
    search_free_pair,
    verify_free_pair,
)

g = parse_graph("K(5; 1-2,2-3,4-5)")
pres = build_presentation(g)
result = buchberger(pres)
aut = build_automaton(result.obstructions, pres.alphabet_size())

# A hand-picked pair for this graph verifies as free.
q1, q2 = (0, 1, 2, 0, 4, 5), (0, 2, 3, 0, 4, 5)
print(f"{format_word(q1)} | {format_word(q2)} free:",
      verify_free_pair(q1, q2, result.obstructions))

# The search reads its own pair off the first branching automaton state:
# two cycles through it whose labels start with different letters.
cert = search_free_pair(aut)
print("searched pair:", format_word(cert.q1), "|", format_word(cert.q2),
      f"(window bound {cert.window_bound})")

# On a linear-growth graph no pair exists; a failing pair is refuted by an
# explicit window.
g4 = parse_graph("K(4; 1-2,3-4)")
res4 = buchberger(build_presentation(g4))
aut4 = build_automaton(res4.obstructions, 5)
print("\nsearch on", g4, "->", search_free_pair(aut4))
violation = find_free_pair_violation((0, 1, 2), (0, 3, 4), res4.obstructions)
blocks, word, pos, obstruction = violation
print(f"pair p0p1p2 / p0p3p4 fails: blocks {blocks} spell {format_word(word)}")
print(f"  containing obstruction {format_word(obstruction)} at position {pos}")
