"""From a star graph to a finished rewriting system.

The algebra on generators p_0..p_n has idempotent relations, center links
p_i p_0 p_i = t p_i and p_0 p_i p_0 = t p_0, commutation for dashed pairs,
and zero products for all other leaf pairs.  Completion resolves every
overlap between leading words and returns the obstruction set: the words
that no basis element of the quotient may contain.  The rules carry no
value of t, so one completion serves every t; polynomials are printed over
Q(t), and `render_rules` specialises them to a rational t.
"""

from fractions import Fraction

from tlstar import (
    NcPolynomial,
    RationalFunction,
    buchberger,
    build_presentation,
    format_word,
    parse_graph,
    reduce,
    render_rules,
)

g = parse_graph("K(2; 1-2)")
pres = build_presentation(g)
print(f"defining relations of the algebra of {g}:")
print(pres.format())

result = buchberger(pres)
print(f"\ncompletion: {result.basis_size()} basis elements, "
      f"complete={result.complete}, bound={result.degree_bound}")
print("obstructions (forbidden words):")
for w in sorted(result.obstructions, key=lambda w: (len(w), w)):
    print("  ", format_word(w))

# The two length-4 obstructions are derived: they are not defining relations
# but consequences the completion uncovered.
print("\nderived basis elements:")
for p in result.basis:
    if len(p.leading_word()) > 3:
        print("  ", p.format())

# Reduction computes normal forms modulo the basis.
t = RationalFunction.t()
one = t / t
p = NcPolynomial({(1, 0, 1): one})       # p1 p0 p1
print("\nreduce(p1 p0 p1) =", reduce(p, result.basis).format())
q = NcPolynomial({(1, 2, 1): one})       # p1 p2 p1 -> commute, absorb square
print("reduce(p1 p2 p1) =", reduce(q, result.basis).format())

# Specialising t to a rational in (0,1) only renders the same rules at
# that value, so the leading words, and the obstruction set, are unchanged.
special = render_rules(result.rules, Fraction(1, 2))
print("\nobstructions at t=1/2 equal symbolic ones:",
      {p.leading_word() for p in special} == result.obstructions)
