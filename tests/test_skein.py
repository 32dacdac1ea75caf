import hashlib
import json
import random
import sys

import networkx as nx
import pytest

from dubrovnik.corpus import (dodecahedral_graphs, matching_graphs,
                              random_trivalent_graph, regraph_from_word)
from dubrovnik.diagrams import (PlanarTrivalentGraph, braid_to_link,
                                c_tangle, close_tangle, disjoint_union,
                                parse_braid, parse_pd, parse_regraph, stack)
from dubrovnik.fourvalent import collapse, evaluate4
from dubrovnik.invariants import n2_closed_form
from dubrovnik.maps import (InvalidMap, MapBuilder, NonPlanar, PlanarMap,
                            canonical_signature)
from dubrovnik.ring import (R_A, R_B, R_ONE, RingElem, constants,
                            specialize_soN, to_canonical_text)
import dubrovnik.skein as skein
from dubrovnik.skein import (EvalContext, InternalError,
                             alternating_walk_reduce, apply_lollipop,
                             apply_rule, apply_wide_digon, evaluate, h_rotate,
                             reducible_face, square_flip, square_move)
from dubrovnik.verify import check_confluence

C = constants()


def as_graph(d) -> PlanarTrivalentGraph:
    return PlanarTrivalentGraph(d.twin, d.nxt, d.wide, frozenset(),
                                d.free_loops)


def theta() -> PlanarTrivalentGraph:
    return as_graph(parse_regraph("W(1,2;2,1)"))


def necklace() -> PlanarTrivalentGraph:
    return close_tangle(stack(c_tangle(2, 1), c_tangle(2, 1)))


def circles(k: int) -> PlanarMap:
    return PlanarMap([], [], [], frozenset(), k)


def square_faces(g: PlanarMap) -> list:
    """The six-vertex square faces of g, in `g.faces()` order."""
    return [f for f in g.faces() if skein._match_square(g, f) is not None]


def test_base_cases():
    assert evaluate(circles(1)) == R_ONE
    assert evaluate(circles(2)) == C.alpha
    for k in range(1, 6):
        assert evaluate(circles(k)) == C.alpha ** (k - 1)
    assert evaluate(circles(0)) == R_ONE     # empty graph, by convention


def test_theta_and_dumbbell_are_beta():
    # forced by the kink computation: A alpha + B + P(theta) = a
    assert evaluate(theta()) == C.beta
    dumbbell = as_graph(parse_regraph("W(1,1;2,2)"))
    assert evaluate(dumbbell) == C.beta


def test_necklace_value():
    AB = R_A * R_B
    expected = (R_ONE - AB) * C.alpha + C.gamma - (R_A + R_B) * C.beta
    assert evaluate(necklace()) == expected


def test_circle_factor():
    g = disjoint_union(theta(), circles(1))
    assert evaluate(g) == C.alpha * C.beta


def test_reducible_face():
    # theta's reducible faces run through the wide edge
    assert reducible_face(theta())[0] == "curl2"
    assert reducible_face(necklace())[0] == "digon"
    for g in dodecahedral_graphs(2):
        assert reducible_face(g) is None


@pytest.mark.parametrize("bad", [
    lambda: braid_to_link(parse_braid("n=2; 1 1")),     # crossings
    lambda: collapse(dodecahedral_graphs(1)[0]),         # 4-valent nodes
    lambda: parse_pd("X(1,2,2,1)"),                      # a kinked crossing
])
def test_evaluate_rejects_a_map_that_is_not_a_trivalent_graph(bad):
    with pytest.raises(ValueError, match="kauffman_state_sum"):
        evaluate(bad())


def test_evaluate_refuses_a_map_that_is_not_a_state():
    # a state's vertices each carry one wide half-edge; flipping the kind
    # of one edge leaves two vertices with none or two, though the map is
    # still planar and trivalent
    rng = random.Random(5)
    for _ in range(300):
        g = random_trivalent_graph(rng, max_vertices=10)
        h = rng.randrange(g.n_half)
        wide = list(g.wide)
        wide[h] = wide[g.twin[h]] = not wide[h]
        with pytest.raises(InvalidMap):
            PlanarTrivalentGraph(g.twin, g.nxt, wide, g.over, g.free_loops)
        bad = PlanarMap(g.twin, g.nxt, wide, g.over, g.free_loops)
        with pytest.raises(ValueError, match="one wide half-edge at every "
                                             "vertex"):
            evaluate(bad, EvalContext())


def test_lollipop_one_gon():
    # dumbbell has two 1-gon faces
    g = as_graph(parse_regraph("W(1,1;2,2)"))
    face = [f for f in g.faces() if len(f) == 1][0]
    reduced, _ = apply_lollipop(g, face)
    assert reduced.vertex_count() == 0
    assert reduced.free_loops == 1


def test_curl_removes_one_rigid_vertex_and_refuses_other_faces():
    # the dumbbell's 1-gon and theta's 2-gon are the two guises of a curl
    dumbbell = as_graph(parse_regraph("W(1,1;2,2)"))
    curl = ("lollipop", "curl2")
    curls = [(g, f) for g in (dumbbell, theta()) for f in g.faces()
             if skein._classify_face(g, f) in curl]
    assert {len(f) for _, f in curls} == {1, 2}
    for g, f in curls:
        reduced, _ = apply_lollipop(g, f)
        assert sum(reduced.wide) == sum(g.wide) - 2
        assert reduced.vertex_count() == g.vertex_count() - 2
    rng = random.Random(3)
    refused = 0
    for _ in range(200):
        g = random_trivalent_graph(rng, 14)
        for f in g.faces():
            if len(f) <= 4 and skein._classify_face(g, f) not in curl:
                with pytest.raises(ValueError, match="not a curl"):
                    apply_lollipop(g, f)
                refused += 1
    assert refused == 499


def test_degenerate_squares_are_refused():
    # a 4-gon with one wide half-edge Q is a square when the wide edges P
    # and R next to its standard half-edges just before Q and two after it
    # are distinct from each other and from Q; P and R are one wide edge on
    # 73 of these faces, and the 53 squares give 477 terms, pinned as
    # numbered
    rng = random.Random(3)
    graphs = [random_trivalent_graph(rng, 14) for _ in range(400)]
    degenerate, outs = 0, []
    for g in graphs:
        for f in g.faces():
            wides = [i for i, h in enumerate(f) if g.wide[h]]
            if len(f) != 4 or len(wides) != 1:
                continue
            i = wides[0]
            p, r = g.nxt[f[i - 1]], g.nxt[f[(i + 2) % 4]]
            if r in (p, g.twin[p]):
                degenerate += 1
                assert skein._match_square(g, f) is None
                with pytest.raises(ValueError,
                                   match="does not match the square"):
                    square_flip(g, f)
                with pytest.raises(ValueError,
                                   match="does not match the square"):
                    square_move(g, f)
            else:
                outs += square_move(g, f)
    assert degenerate == 73 and len(outs) == 477
    digest = hashlib.sha256()
    for c, m, ids in outs:
        digest.update(repr((to_canonical_text(c), m.twin, m.nxt, m.wide,
                            m.free_loops, ids)).encode())
    assert digest.hexdigest() == ("ad6e70c00c25920c6e9efc8558646613"
                                  "6aff3b97da635c9cd51e37f34d911bff")


def _square_c1_c2_c1(welds):
    """The six-vertex square of c1 c2 c1 on three strands, built alone: its
    strands T1..B3 are welded in the pairs `welds`, the rest end alone on
    their nodes.  Returns the builder and the endpoints."""
    b = MapBuilder()
    p1, p2 = b.edge(wide=True)
    q1, q2 = b.edge(wide=True)
    r1, r2 = b.edge(wide=True)
    pr1, pr2 = b.edge()
    pq1, pq2 = b.edge()
    qr1, qr2 = b.edge()
    s = {k: b.half() for k in ("T1", "T2", "T3", "B1", "B2", "B3")}
    b.node([p1, s["T2"], s["T1"]])          # P's far node
    b.node([p2, pr1, pq1])
    b.node([q1, s["T3"], pq2])
    b.node([q2, qr1, s["B3"]])
    b.node([r1, qr2, pr2])
    b.node([r2, s["B1"], s["B2"]])          # R's far node
    for x, y in welds:
        b.weld(s[x], s[y])
    ends = []
    for k, h in s.items():
        if not any(k in pair for pair in welds):
            ends.append(b.half())
            b.node([ends[-1]])
            b.weld(h, ends[-1])
    return b, ends


def test_a_square_flip_never_meets_its_own_square():
    # the only two ways a flipped gadget on (T2, T3) or (B3, B2) meets one of
    # the square's own rigid vertices (R's and P's far nodes); the two
    # strands left lie on different faces and cannot be joined
    face = (8, 2, 10, 7)
    b, _ = _square_c1_c2_c1([])
    assert skein._match_square(b.finish(), face) == (
        (12, 13, 14, 15, 16, 17), (1, 2, 4))
    for welds, loose, (x, y), w in (
            ([("T2", "B1"), ("T3", "B2")], ("T1", "B3"), (13, 14), 4),
            ([("B3", "T2"), ("B2", "T1")], ("T3", "B1"), (17, 16), 1)):
        b, _ = _square_c1_c2_c1(welds + [loose])
        with pytest.raises(NonPlanar, match="V-E\\+F = 0"):
            b.finish()
        b, ends = _square_c1_c2_c1(welds)
        g = b.finish()
        twin, nxt = g.twin, g.nxt
        assert nxt[twin[x]] == twin[y] and nxt[twin[y]] == twin[w]
        face_of = {h: i for i, f in enumerate(g.faces()) for h in f}
        assert face_of[ends[0]] != face_of[ends[1]]


def test_digon_vertex_counts():
    g = necklace()
    face = [f for f in g.faces()
            if len(f) == 2 and not any(g.wide[h] for h in f)][0]
    terms = apply_wide_digon(g, face)
    assert len(terms) == 3
    drops = sorted(g.vertex_count() - piece.vertex_count()
                   for _, piece, _ in terms)
    assert drops == [2, 4, 4]       # gadget term keeps one wide edge


def test_degenerate_wide_digons_are_not_rewritten():
    # two standard half-edges make a wide digon only on two distinct wide
    # edges: theta's standard 2-gon has both corners on its one wide edge,
    # and a 4-gon whose two wide halves are one edge (the dumbbell's outer
    # face, and 23 faces of these random graphs) closes on itself
    g = theta()
    cases = [(g, f) for f in g.faces()
             if len(f) == 2 and not any(g.wide[h] for h in f)]
    rng = random.Random(3)
    graphs = [as_graph(parse_regraph("W(1,1;2,2)"))]        # the dumbbell
    graphs += [random_trivalent_graph(rng, 14) for _ in range(400)]
    for g in graphs:
        for f in g.faces():
            wides = [h for h in f if g.wide[h]]
            if (len(f) == 4 and len(wides) == 2
                    and g.twin[wides[0]] == wides[1]):
                cases.append((g, f))
    assert len(cases) == 1 + 1 + 23
    for g, f in cases:
        assert skein._classify_face(g, f) is None
        with pytest.raises(ValueError, match="not a wide-digon face"):
            apply_wide_digon(g, f)
    # the necklace's standard 2-gon joins two distinct wide edges
    g = necklace()
    assert {skein._classify_face(g, f) for f in g.faces()
            if not any(g.wide[h] for h in f)} == {"digon"}


def test_h_rotate_involution_and_invariance():
    rng = random.Random(2)
    for _ in range(25):
        g = random_trivalent_graph(rng, max_vertices=10)
        wides = [h for h in range(g.n_half) if g.wide[h] and h < g.twin[h]]
        w = rng.choice(wides)
        r1, m1 = h_rotate(g, w)
        assert evaluate(r1, EvalContext()) == evaluate(g, EvalContext())
        assert len(m1) == g.n_half and m1[w] == m1[g.twin[w]] == -1
        # rotating the same edge again restores the graph
        new_w = [h for h in range(r1.n_half)
                 if r1.wide[h] and h not in m1]
        r2, _ = h_rotate(r1, new_w[0])
        assert canonical_signature(r2) == canonical_signature(g)


def test_square_move_telescopes():
    g = close_tangle(stack(stack(c_tangle(3, 1), c_tangle(3, 2)), c_tangle(3, 1)))
    face = square_faces(g)[0]
    combo = square_move(g, face)
    assert len(combo) == 9
    ref = evaluate(g, EvalContext())
    total = RingElem.zero()
    for coeff, piece, _ in combo:
        total = total + coeff * evaluate(piece, EvalContext())
    assert total == ref
    # the first term is the flip alone, with the same id map
    flipped, idmap = square_flip(g, face)
    assert canonical_signature(flipped) == canonical_signature(combo[0][1])
    assert idmap == combo[0][2]
    # applying the move to the flipped term telescopes back
    face2 = square_faces(flipped)[0]
    back = square_move(flipped, face2)
    assert canonical_signature(back[0][1]) == canonical_signature(g)


def test_square_move_n2_coefficients():
    # with A = q, B = q^-1, a = q the nine coefficients are 1, +-1 and -+(q+q^-1)
    g = close_tangle(stack(stack(c_tangle(3, 1), c_tangle(3, 2)), c_tangle(3, 1)))
    face = square_faces(g)[0]
    coeffs = [specialize_soN(c, 2) for c, _, _ in square_move(g, face)]
    assert coeffs[0] == {0: 1}
    assert coeffs[1:7] == [{0: -1}, {0: 1}, {0: -1}, {0: 1}, {0: -1}, {0: 1}]
    assert coeffs[7] == {1: 1, -1: 1}
    assert coeffs[8] == {1: -1, -1: -1}


def _walk_script(g):
    """Apply the moves of the move search's script by their rules, keeping
    the moved term, and check that only the last graph has a local rule,
    the script's last step; return the kinds of the script's steps and
    that graph."""
    script = alternating_walk_reduce(g)
    for kind, face in script[:-1]:
        assert skein._local_rule(g) is None
        g = apply_rule(g, kind, face)[0][1]
    assert skein._local_rule(g) == script[-1]
    return [kind for kind, _ in script], g


def test_fallback_script():
    g = dodecahedral_graphs(1)[0]
    kinds, moved = _walk_script(g)
    # two rotations reach a square whose flip opens a wide digon
    assert kinds == ["rotate", "rotate", "square"]
    assert reducible_face(moved) is None
    # rotations preserve the value, squares are rewritten by their relation
    assert specialize_soN(evaluate(g, EvalContext()), 2) == n2_closed_form(g)


def test_fallback_searches_deeper_than_two_moves():
    # the truncated cube with wide edges on its first perfect matching has
    # no local rule, and no script of one or two moves reaches one: the
    # search returns three moves, then the rule
    g = matching_graphs(nx.truncated_cube_graph(), 1)[0]
    assert reducible_face(g) is None
    kinds, moved = _walk_script(g)
    assert kinds == ["rotate", "rotate", "square", "square"]
    value = evaluate(g, EvalContext())
    assert value == evaluate4(collapse(g))
    assert specialize_soN(value, 2) == n2_closed_form(g)
    for s in range(3):
        assert evaluate(g, EvalContext(rng=random.Random(s))) == value


def test_fallback_not_called_when_reducible():
    assert alternating_walk_reduce(theta()) is None
    # nor when a square flip opens a wide digon, as on the dodecahedral
    # graph after the two rotations of its script
    g = _walk_script(dodecahedral_graphs(1)[0])[1]
    assert reducible_face(g) is None and skein._local_rule(g)[0] == "square"
    assert alternating_walk_reduce(g) is None


def test_dodecahedral_graphs_take_few_move_searches(monkeypatch):
    # each search returns a whole script, applied in one expansion; its
    # goal, like the engine's step, is a reducible face or a square flip
    # that opens a wide digon
    calls = []
    real = skein.alternating_walk_reduce

    def counting(*args, **kw):
        calls.append(1)
        return real(*args, **kw)

    monkeypatch.setattr(skein, "alternating_walk_reduce", counting)
    for g in dodecahedral_graphs(10):
        evaluate(g, EvalContext())
    assert 0 < len(calls) <= 64


def test_crossingless_values_are_mirror_symmetric():
    # a crossingless graph is its own mirror, so its value is fixed by the
    # mirror substitution A <-> B, a <-> 1/a; the last three graphs take
    # the move search
    rng = random.Random(17)
    graphs = [random_trivalent_graph(rng) for _ in range(40)]
    graphs += dodecahedral_graphs(2)
    graphs += matching_graphs(nx.truncated_cube_graph(), 1)
    ctx = EvalContext()
    for g in graphs:
        value = evaluate(g, ctx)
        assert value.swap_AB_invert_a() == value


def test_confluence_small():
    rng = random.Random(9)
    graphs = [random_trivalent_graph(rng, max_vertices=12) for _ in range(30)]
    name, ok, detail = check_confluence(graphs, min_fallback=0)
    assert ok, f"{name}: {detail}"


def test_disjoint_union_law():
    rng = random.Random(13)
    for _ in range(10):
        g1 = random_trivalent_graph(rng, max_vertices=8)
        g2 = random_trivalent_graph(rng, max_vertices=8)
        u = disjoint_union(g1, g2)
        assert evaluate(u) == C.alpha * evaluate(g1) * evaluate(g2)


def test_memo_collision_guard():
    ctx = EvalContext()
    g = theta()
    sig = canonical_signature(g)
    ctx.memo[sig] = C.alpha        # wrong on purpose
    assert evaluate(g, ctx) == C.alpha   # memo wins: lookup path


def test_open_terms_are_split_only_when_something_falls_away(monkeypatch):
    # e e holds a free loop, and e c e a dumbbell (value beta) away from
    # the boundary; e alone drops nothing, so it is signed and not split.
    # A free loop alone folds into the coefficient, as a closed piece's
    # does: only a piece the boundary walk does not reach is split
    from dubrovnik.diagrams import t_tangle
    e, c = t_tangle(3, 2), c_tangle(3, 2)
    loop, dumbbell = stack(e, e), stack(stack(e, c), e)
    terms = [(R_ONE, e), (R_ONE, loop), (R_ONE, dumbbell)]
    split = []
    real = skein._split
    monkeypatch.setattr(skein, "_split",
                        lambda t, ctx: split.append(t) or real(t, ctx))
    value, row = skein.reduce_terms(terms, EvalContext())
    assert value.is_zero()
    assert [(coeff, sig) for coeff, sig, _ in row] == \
        [(R_ONE + C.alpha + C.alpha * C.beta, e.signature())]
    assert [t for t in split if t.ends] == [dumbbell]
    # a lone input term is signed like any other
    split.clear()
    skein.reduce_terms([(R_ONE, e)], EvalContext())
    assert split == []


def test_context_signs_each_literal_array_once(monkeypatch):
    monkeypatch.delenv("DUBROVNIK_DEBUG", raising=False)
    calls = []
    real = skein.signature_of_arrays
    monkeypatch.setattr(skein, "signature_of_arrays",
                        lambda *arrays: calls.append(1) or real(*arrays))
    g = necklace()
    ctx = EvalContext()
    assert ctx.signature(g.twin, g.nxt, g.wide, 2) == \
        canonical_signature(PlanarMap(g.twin, g.nxt, g.wide, frozenset(), 2))
    # equal arrays in new lists, with another free-loop count
    again = ctx.signature(list(g.twin), list(g.nxt), list(g.wide))
    assert again == canonical_signature(g) and len(calls) == 1
    # a second context keeps its own table
    EvalContext().signature(g.twin, g.nxt, g.wide)
    assert len(calls) == 2


def test_debug_mode_recomputes_a_signature_from_the_table(monkeypatch):
    g, wrong = necklace(), canonical_signature(theta())[1]
    ctx = EvalContext()
    ctx.signature(g.twin, g.nxt, g.wide)
    (key,) = ctx.signatures
    ctx.signatures[key] = wrong
    monkeypatch.delenv("DUBROVNIK_DEBUG", raising=False)
    assert ctx.signature(g.twin, g.nxt, g.wide) == (0, wrong)
    monkeypatch.setenv("DUBROVNIK_DEBUG", "1")
    with pytest.raises(InternalError):
        evaluate(g, ctx)


def test_connected_closed_pieces_are_signed_not_split(monkeypatch):
    from dubrovnik.diagrams import Tangle
    split = []
    real = skein._split
    monkeypatch.setattr(skein, "_split",
                        lambda t, ctx: split.append(t.g) or real(t, ctx))
    g = necklace()
    looped = PlanarTrivalentGraph(g.twin, g.nxt, g.wide, frozenset(), 2)
    pair = disjoint_union(g, theta())
    value, _ = skein.reduce_terms(
        [(R_ONE, Tangle(x, [])) for x in (g, looped, pair)], EvalContext())
    assert value == (R_ONE + C.alpha ** 2) * evaluate(g) \
        + C.alpha * evaluate(g) * evaluate(theta())
    # one component: free loops fold into the coefficient; two: split
    assert not any(x is g or x is looped for x in split)
    assert any(x is pair for x in split)


def test_reduction_trace():
    ctx = EvalContext(trace=[])
    evaluate(necklace(), ctx)
    assert ctx.trace
    assert all("rule" in entry and "face" in entry for entry in ctx.trace)


def test_trace_of_a_move_search_is_json():
    # the truncated-cube state's move search rotates wide edges and flips
    # squares; every step is recorded with a list of half-edges
    ctx = EvalContext(trace=[])
    evaluate(matching_graphs(nx.truncated_cube_graph(), 1)[0], ctx)
    rules = {entry["rule"] for entry in json.loads(json.dumps(ctx.trace))}
    assert {"rotate", "square"} <= rules
    assert all(isinstance(entry["face"], list) for entry in ctx.trace)


def _frames() -> int:
    f, n = sys._getframe(), 0
    while f is not None:
        f, n = f.f_back, n + 1
    return n


def test_deep_graph_needs_no_deep_recursion():
    # a ring of 40 curls takes 40 reductions in a row; the engine is a
    # worklist, so they do not nest
    k = 40
    text = " ".join(f"W(s{i},s{(i + 1) % k};c{i},c{i})" for i in range(k))
    ring = as_graph(parse_regraph(text))
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(_frames() + 80)
    try:
        value = evaluate(ring, EvalContext())
    finally:
        sys.setrecursionlimit(limit)
    assert value == C.beta ** k


def test_rewrite_numbering_is_pinned():
    """Every rule applied at every site of a fixed corpus numbers its
    outputs as pinned here, whatever order an engine strategy takes."""
    from dubrovnik.fourvalent import (_apply_curl4, _apply_digon4,
                                      _face_kind4, triangle_flip4)
    from dubrovnik.skein import _reducible_faces
    rng = random.Random(7)
    corpus = [random_trivalent_graph(rng, 12) for _ in range(20)]
    corpus += dodecahedral_graphs(2)
    corpus += matching_graphs(nx.truncated_cube_graph(), 1)
    outs = []
    for g in corpus:
        for kind, face in _reducible_faces(g):
            outs += [m for _, m, _ in apply_rule(g, kind, face)]
        for w in range(g.n_half):
            if g.wide[w] and w < g.twin[w]:
                outs.append(h_rotate(g, w)[0])
        for face in square_faces(g):
            outs += [m for _, m, _ in square_move(g, face)]
        g4 = collapse(g)
        for face in g4.faces():
            kind = _face_kind4(g4, face)
            if kind == "curl":
                outs.append(_apply_curl4(g4, face))
            elif kind == "digon":
                outs += [m for _, m in _apply_digon4(g4, face)]
            elif kind == "triangle":
                outs += [m for _, m in triangle_flip4(g4, face)]
    digest = hashlib.sha256()
    for m in outs:
        digest.update(repr((type(m).__name__, m.twin, m.nxt, m.wide,
                            sorted(m.over), m.free_loops)).encode())
    assert len(outs) == 681
    assert digest.hexdigest() == ("beaaeb8c8d4bd6b3e852b686b84d78bd"
                                  "1ad650cdaf5e08abce096ef950dba9c5")
