"""A look inside the reduction engine and its cross-checks.

Evaluation repeatedly rewrites small faces: curls contribute beta, wide
digons expand into three terms, and when no face is small enough (every
face a pentagon or larger) a search over wide-edge rotations and square
flips manufactures a reducible face first.  An independently written
4-valent calculus recomputes every value after contracting the wide edges.
"""

import random

from dubrovnik import (EvalContext, alternating_walk_reduce, collapse,
                       evaluate, evaluate4, h_rotate, kauffman_via_4valent,
                       kauffman_state_sum, parse_braid, braid_to_link,
                       reducible_face, square_flip, to_canonical_text)
from dubrovnik.corpus import dodecahedral_graphs, random_trivalent_graph

# Reduction traces: which rule fired on which face.
from dubrovnik import parse_regraph, PlanarTrivalentGraph
th = parse_regraph("W(1,2;2,1)")
g = PlanarTrivalentGraph(th.twin, th.nxt, th.wide, frozenset(), 0)
ctx = EvalContext(trace=[])
evaluate(g, ctx)
print("theta reduction trace:", ctx.trace)

# The dodecahedron with wide edges along a perfect matching has no face of
# length below five: nothing is directly reducible.
dodeca = dodecahedral_graphs(1)[0]
print("\ndodecahedral graph, face lengths:",
      sorted(len(f) for f in dodeca.faces()))
print("directly reducible face:", reducible_face(dodeca))
# The move search returns the first move of a shortest script; the engine
# applies it as a rule and looks again.
g, kinds = dodeca, []
while (move := alternating_walk_reduce(g)) is not None:
    kind, face = move
    kinds.append(kind)
    g = h_rotate(g, *face)[0] if kind == "rotate" else square_flip(g, face)[0]
print("moves applied:", kinds, "-> reducible face:", reducible_face(g))

# Confluence: randomized rule order cannot change the value.
rng = random.Random(0)
g = random_trivalent_graph(rng, max_vertices=12)
values = {evaluate(g, EvalContext(rng=random.Random(s))) for s in range(6)}
print("\nrandomized strategies on a random graph give",
      len(values), "distinct value(s)")

# The 4-valent oracle: contract wide edges, evaluate in the collapsed
# calculus, compare, and run whole link diagrams through both paths.
agree = True
for i in range(5):
    g = random_trivalent_graph(random.Random(i))
    agree = agree and evaluate4(collapse(g)) == evaluate(g)
print("\noracle agreement on 5 random graphs:", agree)
d = braid_to_link(parse_braid("n=3; 1 2 1 2"))
print("oracle agreement on a 4-crossing link:",
      kauffman_via_4valent(d) == kauffman_state_sum(d).value)
