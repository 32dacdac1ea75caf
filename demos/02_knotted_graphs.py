"""Invariants of knotted rigid-edge trivalent graphs.

A graph diagram mixes crossings with trivalent vertices; each vertex meets
exactly one rigid "wide" edge.  Resolving every crossing into the two
smoothings plus a wide gadget expresses the diagram as a sum of planar
trivalent graphs, and the graph polynomial of each state is computed by
local skein reductions.
"""

from dubrovnik import (constants, kauffman_state_sum, mirror, parse_regraph,
                       so_n, qlaurent_text, to_canonical_text)
from dubrovnik.corpus import clasped_handcuff, regraph_from_word

C = constants()

# The theta graph: two vertices, one wide edge, two parallel strands.
theta = parse_regraph("W(1,2;2,1)")
r = kauffman_state_sum(theta)
print("theta graph:", to_canonical_text(r.value))
print("  equals the curl constant beta:", r.value == C.beta)

# A wide edge with a loop at each end (the flat handcuff) has the same
# value: both collapse to the same 4-valent pattern.
handcuff = parse_regraph("W(1,1;2,2)")
print("flat handcuff equals theta:",
      kauffman_state_sum(handcuff).value == r.value)

# Clasping the two cuffs through two crossings makes the graph knotted.
# Written as records: the wide edge plus two positive crossings.
hc2 = parse_regraph("W(2,1;3,4) X(4,3,5,6) X(6,5,1,2)")
v = kauffman_state_sum(hc2)
print(f"\nclasped handcuff ({v.states_evaluated} states):")
print(" ", to_canonical_text(v.value))
print("  at N=2:", qlaurent_text(so_n(v, 2)), "  [= q^-2 (-q - q^-1)]")
assert so_n(v, 2) == so_n(kauffman_state_sum(clasped_handcuff()), 2)

# Chirality detection: switching every crossing applies A <-> B, a <-> a^-1.
mirrored = kauffman_state_sum(mirror(hc2))
print("\nmirror changes the polynomial:", mirrored.value != v.value)
print("by exactly the mirror substitution:",
      mirrored.value == v.value.swap_AB_invert_a())

# Product laws: disjoint unions multiply with one extra alpha.
theta2 = parse_regraph("W(1,2;2,1) W(3,4;4,3)")
print("\n[theta u theta] = alpha [theta]^2:",
      kauffman_state_sum(theta2).value == C.alpha * r.value * r.value)
