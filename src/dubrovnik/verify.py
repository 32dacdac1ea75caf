"""Self-verification suites: the one place each property check is stated.

Each suite returns (name, passed, detail).  They restate the defining
properties of the invariant as executable checks: the ring identities
behind Reidemeister invariance, the Reidemeister/Markov battery for the
bracket, the Dubrovnik skein relation, order-independence of the
reduction, the mirror and product laws, the N = 2 closed form, agreement
with the 4-valent oracle, and the z = A - B dependence of link values.

A suite takes its inputs (an iterable of braids, diagrams, graphs or
diagram pairs), the `random.Random` for any choice it makes inside its
loop, and an optional `EvalContext`.  With no arguments it draws the
inputs that `dubrovnik verify` runs.  The inputs may be a lazy generator
drawing from the same `rng` as the suite, so braids and in-loop choices
are drawn interleaved.

The acceptance criteria in tests/test_acceptance.py call these suites on
their own fixed corpora:

    criterion 1   check_ring_identities
    criterion 2   check_normalization
    criterion 3   check_hopf
    criterion 4   check_markov
    criterion 5   check_dubrovnik_axioms
    criterion 6   check_path_agreement, check_oracle (link part) and
                  check_link_z_dependence
    criterion 7   check_mirror
    criterion 8   check_products
    criterion 9   check_confluence
    criterion 10  check_n2
"""

from __future__ import annotations

import random

from .corpus import (alternating_braid, clasped_handcuff, dodecahedral_graphs,
                     n2_vanishing_diagrams, random_braid, random_regraph,
                     random_trivalent_graph)
from .diagrams import (BraidWord, braid_to_link, connected_sum,
                       disjoint_union, mirror, parse_braid, smooth_crossing,
                       switch_crossing)
from .fourvalent import OracleContext, collapse, evaluate4, kauffman_via_4valent
from .invariants import (bracket, eval_braid, kauffman_state_sum,
                         n2_closed_form)
from .ring import (R_A, R_B, R_ONE, R_a, R_a_inv, RingElem, constants,
                   depends_on_z_only, specialize_soN, to_canonical_text)
from .skein import EvalContext, InternalError, evaluate, reducible_face


def check_ring_identities() -> tuple[str, bool, str]:
    C = constants()
    checks = [
        ("A*alpha + B + beta - a", R_A * C.alpha + R_B + C.beta - R_a),
        ("A*a^-1 + B^2 + B*beta + gamma",
         R_A * R_a_inv + R_B * R_B + R_B * C.beta + C.gamma),
        ("A^2 + B^2 + (A+B)*beta + AB*alpha + gamma",
         R_A * R_A + R_B * R_B + (R_A + R_B) * C.beta
         + R_A * R_B * C.alpha + C.gamma),
        ("AB*beta + (A+B)*gamma - delta",
         R_A * R_B * C.beta + (R_A + R_B) * C.gamma - C.delta),
    ]
    bad = [name for name, v in checks if not v.is_zero()]
    return ("ring identities", not bad, "failed: " + ", ".join(bad) if bad else "4 identities exact")


def check_normalization(kmax: int = 5, ctx: EvalContext | None = None
                        ) -> tuple[str, bool, str]:
    from .maps import PlanarMap
    ctx = ctx or EvalContext()
    alpha = constants().alpha
    ok = eval_braid(parse_braid("n=1;"), ctx).value == R_ONE
    for k in range(1, kmax + 1):
        g = PlanarMap([], [], [], frozenset(), k)
        ok = ok and evaluate(g, ctx) == alpha ** (k - 1)
    return ("circle normalization", ok,
            f"unknot is 1, k circles alpha^(k-1) for k <= {kmax}")


def check_hopf(ctx: EvalContext | None = None) -> tuple[str, bool, str]:
    aa = R_a - R_a_inv
    expected = aa * (R_A - R_B) + RingElem(aa.num, 1) + R_ONE
    got = eval_braid(parse_braid("1 1"), ctx or EvalContext()).value
    return ("Hopf link", got == expected, to_canonical_text(got))


def check_markov(braids=None, rng: random.Random | None = None,
                 ctx: EvalContext | None = None) -> tuple[str, bool, str]:
    rng = rng or random.Random(11)
    if braids is None:
        braids = (random_braid(rng, max_strands=4, max_letters=8)
                  for _ in range(100))
    ctx = ctx or EvalContext()
    n = 0
    for n, b in enumerate(braids, 1):
        base = bracket(b, ctx)
        k = rng.randint(0, len(b.letters))
        i = rng.randint(1, b.strands - 1)
        inserted = BraidWord(b.strands,
                             b.letters[:k] + (i, -i) + b.letters[k:])
        for v in [inserted, b.conjugated_by(rng.randint(1, b.strands - 1)),
                  b.stabilized(1), b.stabilized(-1)]:
            if bracket(v, ctx) != base:
                return ("Reidemeister/Markov battery", False,
                        f"{b.letters} vs {v.letters}")
        if b.strands >= 3:
            i = rng.randint(1, b.strands - 2)
            left = BraidWord(b.strands, (i, i + 1, i) + b.letters)
            right = BraidWord(b.strands, (i + 1, i, i + 1) + b.letters)
            if bracket(left, ctx) != bracket(right, ctx):
                return ("Reidemeister/Markov battery", False,
                        f"braid relation failed: {b.letters}")
    return ("Reidemeister/Markov battery", True, f"{n} random braids")


def check_dubrovnik_axioms(braids=None, rng: random.Random | None = None,
                           ctx: EvalContext | None = None
                           ) -> tuple[str, bool, str]:
    rng = rng or random.Random(23)
    if braids is None:
        braids = (random_braid(rng, max_strands=4, max_letters=6,
                               min_letters=1) for _ in range(50))
    ctx = ctx or EvalContext()

    def value(d):
        return kauffman_state_sum(d, ctx).value

    z = R_A - R_B
    n = 0
    for n, b in enumerate(braids, 1):
        d = braid_to_link(b)
        node = rng.choice(d.crossing_nodes())
        p_pos, p_neg = value(d), value(switch_crossing(d, node))
        if p_pos - p_neg != z * (value(smooth_crossing(d, node, "A"))
                                 - value(smooth_crossing(d, node, "B"))):
            return ("Dubrovnik skein axiom", False, f"{b.letters}")
        # kink factors via Markov stabilization
        if value(braid_to_link(b.stabilized(1))) != R_a * p_pos \
                or value(braid_to_link(b.stabilized(-1))) != R_a_inv * p_pos:
            return ("Dubrovnik skein axiom", False, f"kink factor: {b.letters}")
    return ("Dubrovnik skein axiom", True, f"{n} marked diagrams")


def check_confluence(graphs=None, min_fallback: int = 4
                     ) -> tuple[str, bool, str]:
    """Five randomized reduction strategies per graph give one value, and at
    least `min_fallback` graphs have no directly reducible face.

    Each strategy runs in a context of its own, and every value its `memo`
    ends with is compared with one table that spans all runs.  The memo
    holds each graph and each closed piece that fell away while a graph
    was reduced, keyed by canonical signature, so a piece reached again by
    another strategy, or by another graph, must come out equal."""
    if graphs is None:
        rng = random.Random(5)
        graphs = [random_trivalent_graph(rng, max_vertices=12)
                  for _ in range(36)] + dodecahedral_graphs(4)
    graphs = list(graphs)
    seen: dict = {}
    fallback_used = 0
    for i, g in enumerate(graphs):
        fallback_used += reducible_face(g) is None
        for s in range(5):
            ctx = EvalContext(rng=random.Random(1000 * i + s))
            try:
                evaluate(g, ctx)
            except InternalError as e:      # a self-check failed in one run
                return ("confluence", False, f"graph {i}: {e}")
            if any(seen.setdefault(sig, v) != v
                   for sig, v in ctx.memo.items()):
                return ("confluence", False,
                        f"graph {i}: a piece differs across strategies")
    return ("confluence", fallback_used >= min_fallback,
            f"{len(graphs)} graphs x 5 strategies, {fallback_used} had no "
            f"directly reducible face (at least {min_fallback})")


def check_mirror(diagrams=None, ctx: EvalContext | None = None
                 ) -> tuple[str, bool, str]:
    if diagrams is None:
        rng = random.Random(31)
        diagrams = (random_regraph(rng, max_crossings=6, max_wide=4)
                    for _ in range(30))
    diagrams = list(diagrams)
    ctx = ctx or EvalContext()
    for i, d in enumerate(diagrams):
        v = kauffman_state_sum(d, ctx).value
        if kauffman_state_sum(mirror(d), ctx).value != v.swap_AB_invert_a():
            return ("mirror law", False, f"diagram {i}")
    return ("mirror law", True, f"{len(diagrams)} random graph diagrams")


def check_products(pairs=None, ctx: EvalContext | None = None
                   ) -> tuple[str, bool, str]:
    if pairs is None:
        rng = random.Random(41)
        pairs = ((random_regraph(rng, max_crossings=3, max_wide=2),
                  random_regraph(rng, max_crossings=3, max_wide=2))
                 for _ in range(20))
    pairs = list(pairs)
    ctx = ctx or EvalContext()
    alpha = constants().alpha
    for i, (d1, d2) in enumerate(pairs):
        v1 = kauffman_state_sum(d1, ctx).value
        v2 = kauffman_state_sum(d2, ctx).value
        union = disjoint_union(d1, d2)
        if kauffman_state_sum(union, ctx).value != alpha * v1 * v2:
            return ("product laws", False, f"union, pair {i}")
        e1 = next(h for h in range(d1.n_half) if not d1.wide[h])
        e2 = next(h for h in range(d2.n_half) if not d2.wide[h])
        summed = connected_sum(d1, e1, d2, e2)
        if kauffman_state_sum(summed, ctx).value != v1 * v2:
            return ("product laws", False, f"connected sum, pair {i}")
    return ("product laws", True, f"{len(pairs)} random pairs")


def check_n2(graphs=None, vanishing=None, ctx: EvalContext | None = None
             ) -> tuple[str, bool, str]:
    """The N = 2 specialization of each graph equals its closed form, the
    clasped handcuff gives q^-2 (-q - q^-1), and each diagram in
    `vanishing` (see `corpus.n2_vanishing_diagrams`) gives 0."""
    rng = random.Random(53)
    if graphs is None:
        graphs = [random_trivalent_graph(rng, max_vertices=12)
                  for _ in range(58)] + dodecahedral_graphs(2)
    graphs = list(graphs)
    if vanishing is None:
        vanishing = n2_vanishing_diagrams(rng, 10)
    vanishing = list(vanishing)
    ctx = ctx or EvalContext()
    for i, g in enumerate(graphs):
        if specialize_soN(evaluate(g, ctx), 2) != n2_closed_form(g):
            return ("N=2 closed form", False, f"graph {i}")
    got = specialize_soN(kauffman_state_sum(clasped_handcuff(), ctx).value, 2)
    if got != {-1: -1, -3: -1}:
        return ("N=2 closed form", False, "clasped handcuff example")
    for i, d in enumerate(vanishing):
        if specialize_soN(kauffman_state_sum(d, ctx).value, 2) != {}:
            return ("N=2 closed form", False, f"vanishing diagram {i}")
    return ("N=2 closed form", True, f"{len(graphs)} graphs + handcuff "
            f"example + {len(vanishing)} vanishing diagrams")


def check_oracle(graphs=None, braids=None, diagrams=None,
                 ctx: EvalContext | None = None) -> tuple[str, bool, str]:
    """Graphs against `evaluate4(collapse(g))`, and braid closures and
    knotted-graph diagrams against `kauffman_via_4valent`.  The default
    diagrams are the clasped handcuff and random diagrams drawn from a
    generator of their own."""
    rng = random.Random(61)
    if graphs is None:
        graphs = [random_trivalent_graph(rng, max_vertices=12)
                  for _ in range(25)]
    if braids is None:
        braids = [random_braid(rng, max_strands=3, max_letters=6)
                  for _ in range(8)]
    if diagrams is None:
        drng = random.Random(5)
        diagrams = [clasped_handcuff()] + [
            random_regraph(drng, max_crossings=4, max_wide=3)
            for _ in range(30)]
    graphs, braids, diagrams = list(graphs), list(braids), list(diagrams)
    ctx = ctx or EvalContext()
    octx = OracleContext()
    for i, g in enumerate(graphs):
        if evaluate4(collapse(g), octx) != evaluate(g, ctx):
            return ("4-valent oracle", False, f"collapse mismatch, graph {i}")
    named = [(f"link {b.letters}", braid_to_link(b)) for b in braids]
    named += [(f"knotted graph {i}", d) for i, d in enumerate(diagrams)]
    for name, d in named:
        if kauffman_via_4valent(d, octx) != kauffman_state_sum(d, ctx).value:
            return ("4-valent oracle", False, f"path mismatch: {name}")
    return ("4-valent oracle", True,
            f"{len(graphs)} collapses + {len(braids)} link diagrams + "
            f"{len(diagrams)} knotted-graph diagrams")


def check_path_agreement(braids=None, ctx: EvalContext | None = None
                         ) -> tuple[str, bool, str]:
    if braids is None:
        rng = random.Random(71)
        braids = [random_braid(rng, max_strands=4, max_letters=6)
                  for _ in range(25)]
        # long alternating chains, where the sweep flips squares
        braids += [alternating_braid(rng, 8, runs) for runs in (4, 8, 4)]
    braids = list(braids)
    ctx = ctx or EvalContext()
    for b in braids:
        lhs = RingElem.mono(b.writhe(), 0, 0) * bracket(b, ctx)
        if lhs != eval_braid(b, ctx).value:
            return ("bracket/state-sum agreement", False, f"{b.letters}")
    return ("bracket/state-sum agreement", True, f"{len(braids)} braids")


def check_link_z_dependence(diagrams=None, ctx: EvalContext | None = None
                            ) -> tuple[str, bool, str]:
    """A link value depends on A and B only through z = A - B.

    Each value must pass `ring.depends_on_z_only`: equal exact values at
    (a, A, B) and (a, A + t, B + t).  Knotted-graph values in general fail
    this.
    """
    if diagrams is None:
        rng = random.Random(83)
        diagrams = (braid_to_link(random_braid(rng, max_strands=4,
                                               max_letters=6))
                    for _ in range(25))
    diagrams = list(diagrams)
    ctx = ctx or EvalContext()
    for i, d in enumerate(diagrams):
        if not depends_on_z_only(kauffman_state_sum(d, ctx).value):
            return ("links depend on z = A - B", False, f"diagram {i}")
    return ("links depend on z = A - B", True, f"{len(diagrams)} link diagrams")


ALL_SUITES = [
    check_ring_identities,
    check_normalization,
    check_hopf,
    check_markov,
    check_dubrovnik_axioms,
    check_path_agreement,
    check_confluence,
    check_mirror,
    check_products,
    check_n2,
    check_oracle,
    check_link_z_dependence,
]


def run_all(suites=None):
    """Run each suite (all of `ALL_SUITES` when `suites` is None) on its
    default inputs, yielding each result as soon as that suite finishes."""
    for suite in ALL_SUITES if suites is None else suites:
        yield suite()
