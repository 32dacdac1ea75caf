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
from dubrovnik.maps import PlanarMap, canonical_signature
from dubrovnik.ring import R_A, R_B, R_ONE, RingElem, constants, specialize_soN
import dubrovnik.skein as skein
from dubrovnik.skein import (EvalContext, InternalError,
                             alternating_walk_reduce, apply_lollipop,
                             apply_rule, apply_wide_digon, evaluate, h_rotate,
                             is_square_face, reducible_face, square_flip,
                             square_move)
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


def test_lollipop_one_gon():
    # dumbbell has two 1-gon faces
    g = as_graph(parse_regraph("W(1,1;2,2)"))
    face = [f for f in g.faces() if len(f) == 1][0]
    reduced, _ = apply_lollipop(g, face)
    assert reduced.vertex_count() == 0
    assert reduced.free_loops == 1


def test_digon_vertex_counts():
    g = necklace()
    face = [f for f in g.faces()
            if len(f) == 2 and not any(g.wide[h] for h in f)][0]
    terms = apply_wide_digon(g, face)
    assert len(terms) == 3
    drops = sorted(g.vertex_count() - piece.vertex_count()
                   for _, piece, _ in terms)
    assert drops == [2, 4, 4]       # gadget term keeps one wide edge


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
    face = [f for f in g.faces() if is_square_face(g, f)][0]
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
    face2 = [f for f in flipped.faces() if is_square_face(flipped, f)][0]
    back = square_move(flipped, face2)
    assert canonical_signature(back[0][1]) == canonical_signature(g)


def test_square_move_n2_coefficients():
    # with A = q, B = q^-1, a = q the nine coefficients are 1, +-1 and -+(q+q^-1)
    g = close_tangle(stack(stack(c_tangle(3, 1), c_tangle(3, 2)), c_tangle(3, 1)))
    face = [f for f in g.faces() if is_square_face(g, f)][0]
    coeffs = [specialize_soN(c, 2) for c, _, _ in square_move(g, face)]
    assert coeffs[0] == {0: 1}
    assert coeffs[1:7] == [{0: -1}, {0: 1}, {0: -1}, {0: 1}, {0: -1}, {0: 1}]
    assert coeffs[7] == {1: 1, -1: 1}
    assert coeffs[8] == {1: -1, -1: -1}


def _first_moves(g):
    """Apply the move search's first move by its rule, keeping the moved
    term, until g has a reducible face; return the kinds applied and the
    final graph."""
    kinds = []
    while (move := alternating_walk_reduce(g)) is not None:
        kinds.append(move[0])
        g = apply_rule(g, *move)[0][1]
    return kinds, g


def test_fallback_script():
    g = dodecahedral_graphs(1)[0]
    kinds, moved = _first_moves(g)
    assert kinds == ["rotate", "square"]
    assert reducible_face(moved) is not None
    # rotations preserve the value, squares are rewritten by their relation
    assert specialize_soN(evaluate(g, EvalContext()), 2) == n2_closed_form(g)


def test_fallback_searches_deeper_than_two_moves():
    # the truncated cube with wide edges on its first perfect matching has
    # no reducible face, and no script of one or two moves gives it one
    g = matching_graphs(nx.truncated_cube_graph(), 1)[0]
    assert reducible_face(g) is None
    kinds, moved = _first_moves(g)
    assert kinds == ["rotate", "rotate", "square", "square"]
    assert reducible_face(moved) is not None
    value = evaluate(g, EvalContext())
    assert value == evaluate4(collapse(g))
    assert specialize_soN(value, 2) == n2_closed_form(g)
    for s in range(3):
        assert evaluate(g, EvalContext(rng=random.Random(s))) == value


def test_fallback_not_called_when_reducible():
    assert alternating_walk_reduce(theta()) is None


def test_dodecahedral_graphs_take_few_move_searches(monkeypatch):
    # each search returns one move, applied as a rule; a closed piece tries
    # a digon-opening square flip before it searches
    calls = []
    real = skein.alternating_walk_reduce

    def counting(*args, **kw):
        calls.append(1)
        return real(*args, **kw)

    monkeypatch.setattr(skein, "alternating_walk_reduce", counting)
    for g in dodecahedral_graphs(10):
        evaluate(g, EvalContext())
    assert 0 < len(calls) <= 64


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
        for face in g.faces():
            if is_square_face(g, face):
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
