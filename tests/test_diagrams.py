import itertools
import random

import pytest

import dubrovnik.invariants as inv
from dubrovnik.corpus import random_regraph
from dubrovnik.diagrams import (BadEdge, BadIncidence, BraidWord, LinkDiagram,
                                OddVertexCount, ParseError,
                                PlanarTrivalentGraph, RangeError,
                                REGraphDiagram, StateResolver, Tangle,
                                braid_to_link, c_tangle, close_tangle,
                                closure_diagram, connected_sum,
                                disjoint_union,
                                identity_tangle, mirror, parse_braid,
                                link_components, parse_pd, parse_regraph,
                                smooth_crossing, stack, switch_crossing,
                                t_tangle)
from dubrovnik.maps import (InvalidMap, NonPlanar, Surgery,
                            canonical_signature, signature_of_arrays)


def test_parse_braid():
    b = parse_braid("1 1")
    assert (b.strands, b.letters) == (2, (1, 1))
    assert parse_braid("") == BraidWord(1, ())
    assert parse_braid("n=4; 1 -2 3") == BraidWord(4, (1, -2, 3))
    with pytest.raises(ParseError):
        parse_braid("1 x")
    with pytest.raises(ParseError):
        parse_braid("0")
    with pytest.raises(RangeError):
        parse_braid("n=2; 2")
    # letters and the strand count are ASCII digits with an optional sign
    for text in ("1_0", "\u0663", "n=\u0663; 1"):
        with pytest.raises(ParseError):
            parse_braid(text)
    assert parse_braid("+1 -1") == BraidWord(2, (1, -1))


def test_writhe():
    assert parse_braid("1 1").writhe() == 2
    assert parse_braid("").writhe() == 0
    assert parse_braid("1 -1").writhe() == 0
    b = parse_braid("n=3; 1 -2 2 1")
    assert b.writhe() == -b.mirror().writhe()


def test_braid_to_link():
    assert braid_to_link(parse_braid("n=1;")).free_loops == 1
    d = braid_to_link(parse_braid("1 1"))
    assert d.n_nodes() == 2 and d.free_loops == 0
    d2 = braid_to_link(parse_braid("1 -1"))
    assert d2.n_nodes() == 2


def test_closure_numbering_is_pinned():
    # diagram_job_key names literal diagrams in cache files, so the closure
    # builder must keep numbering half-edges as it always has
    from dubrovnik.corpus import regraph_from_word
    from dubrovnik.cli import diagram_job_key
    assert diagram_job_key(braid_to_link(parse_braid("n=3; 1 -2 1 2"))) \
        == "749b1fc980467d5ea8c80fc0"
    assert diagram_job_key(regraph_from_word(
        3, [1, ("W", 2), -2, ("W", 1), 2])) == "58c0d10e39fdf2c20f16004e"


def test_closure_component_count():
    rng = random.Random(1)
    for _ in range(30):
        n = rng.randint(2, 4)
        letters = tuple(rng.choice([i for i in range(-(n - 1), n) if i])
                        for _ in range(rng.randint(0, 6)))
        b = BraidWord(n, letters)
        d = braid_to_link(b)
        perm = b.permutation()
        cycles = 0
        seen = set()
        for i in range(n):
            if i not in seen:
                cycles += 1
                j = i
                while j not in seen:
                    seen.add(j)
                    j = perm[j]
        assert link_components(d) == cycles


def test_parse_pd():
    d = parse_pd("X(1,3,2,4) X(3,1,4,2)")
    assert d.n_nodes() == 2
    assert link_components(d) == 2
    assert parse_pd("").free_loops == 0
    with pytest.raises(BadIncidence):
        parse_pd("X(1,2,3,4)")
    with pytest.raises(NonPlanar):
        # both crossings see the same labels in an order with no planar match
        parse_pd("X(1,2,3,4) X(1,3,2,4)")
    with pytest.raises(ParseError):
        parse_pd("X(1,2,3)")
    with pytest.raises(ParseError):
        parse_pd("W(1,2;2,1)")


def test_parse_regraph():
    th = parse_regraph("W(1,2;2,1)")
    assert th.n_nodes() == 2 and th.n_half == 6
    assert sum(th.wide) == 2
    with pytest.raises(ParseError):
        parse_regraph("W(1,2,3,4)")
    with pytest.raises(NonPlanar):
        parse_regraph("W(1,2;1,2)")


def test_vertex_count_always_even():
    # trivalent vertices pair up along their wide edges, so every valid
    # diagram has an even count; a kinked unknot PD is planar and accepted
    rng = random.Random(5)
    from dubrovnik.corpus import random_regraph
    for _ in range(20):
        d = random_regraph(rng)
        assert sum(1 for cyc in d.nodes() if len(cyc) == 3) % 2 == 0
    assert parse_pd("X(1,1,2,2)").n_nodes() == 1


def test_mirror_involution():
    d = braid_to_link(parse_braid("n=3; 1 -2 1"))
    assert mirror(mirror(d)).over == d.over
    d0 = braid_to_link(parse_braid("n=2;"))
    assert mirror(d0).over == d0.over


def test_switch_crossing():
    d = braid_to_link(parse_braid("1 1"))
    rot = d.crossings()[0]
    ds = switch_crossing(d, rot[0])
    assert ds.over != d.over
    assert switch_crossing(ds, rot[0]).over == d.over


def test_crossings_start_at_the_least_over_half_edge():
    rng = random.Random(31)
    for _ in range(30):
        d = random_regraph(rng, max_crossings=4, max_wide=3)
        rots = d.crossings()
        assert {frozenset(r) for r in rots} == {
            frozenset(cyc) for cyc in d.nodes() if not d.over.isdisjoint(cyc)}
        for r in rots:
            assert r[0] == min(h for h in r if h in d.over)
            assert [d.nxt[h] for h in r] == list(r[1:] + r[:1])
        # in node order: nodes are ordered by their least half-edges
        assert [min(r) for r in rots] == sorted(min(r) for r in rots)


def test_crossing_moves_take_a_half_edge_of_the_crossing():
    rng = random.Random(37)
    seen = 0
    for _ in range(20):
        d = random_regraph(rng, max_crossings=4, max_wide=3)
        for r in d.crossings():
            switched = [switch_crossing(d, h) for h in r]
            assert all(x.over == switched[0].over != d.over for x in switched)
            for kind in "AB":
                a, b = (smooth_crossing(d, h, kind) for h in (r[0], r[2]))
                assert (a.twin, a.nxt, a.wide, a.over, a.free_loops) == \
                    (b.twin, b.nxt, b.wide, b.over, b.free_loops)
                for h in (r[1], r[3]):
                    with pytest.raises(ValueError):
                        smooth_crossing(d, h, kind)
        for h in range(d.n_half):
            if d.wide[h]:               # on a trivalent vertex
                seen += 1
                with pytest.raises(ValueError):
                    switch_crossing(d, h)
                with pytest.raises(ValueError):
                    smooth_crossing(d, h, "A")
    assert seen


def _states(d):
    """{choices: (state graph, na, nb)} over all 3^c resolutions of d."""
    resolver = StateResolver(d)
    out = {}
    for choices in itertools.product("ABW", repeat=len(resolver.rots)):
        twin, nxt, wide, loops, na, nb = resolver.resolve_arrays(choices)
        g = PlanarTrivalentGraph._build(twin, nxt, wide, frozenset(), loops)
        out["".join(choices)] = g, na, nb
    return out


def test_states_count_and_partition():
    d = braid_to_link(parse_braid("1 1"))
    sts = _states(d)
    assert len(sts) == 9 == 3 ** d.n_nodes()
    for g, na, nb in sts.values():
        wide_edges = sum(g.wide) // 2
        assert na + nb + wide_edges == d.n_nodes()
        assert g.vertex_count() % 2 == 0


def test_states_empty_diagram():
    d = braid_to_link(parse_braid("n=1;"))
    sts = list(_states(d).values())
    assert len(sts) == 1
    g, na, nb = sts[0]
    assert g.free_loops == 1
    assert (na, nb) == (0, 0)


def test_kink_states():
    d = braid_to_link(parse_braid("1"))
    recs = _states(d)
    assert recs["A"][0].free_loops == 2
    assert recs["B"][0].free_loops == 1
    assert recs["W"][0].vertex_count() == 2
    assert recs["A"][1:] == (1, 0)
    assert recs["B"][1:] == (0, 1)
    assert recs["W"][1:] == (0, 0)


def _rotation(g, h):
    """The crossing of h, read counterclockwise from h."""
    return [h, g.nxt[h], g.nxt[g.nxt[h]], g.nxt[g.nxt[g.nxt[h]]]]


def _widen(g, h):
    """Replace the crossing of h by a wide edge whose ends carry the strands
    in the crossing's rotation order, read from h, an over half-edge."""
    slots = _rotation(g, h)
    s = Surgery(g)
    s.kill(h)
    w1, w2 = s.edge(wide=True)
    s.node([w1, slots[0], slots[1]])
    s.node([w2, slots[2], slots[3]])
    return s.finish()


def _resolve_one_by_one(d, choices):
    """The state of d for choices, one crossing at a time: smooth_crossing
    for A and B, `_widen` for W."""
    g = REGraphDiagram(d.twin, d.nxt, d.wide, d.over, d.free_loops)
    marks = [rot[0] for rot in d.crossings()]        # over half-edges
    for ch in choices:
        mark = marks.pop(0)
        if ch == "W":
            g, ids = _widen(g, mark)
        else:
            dead = set(_rotation(g, mark))
            ids = {h: j for j, h in enumerate(
                h for h in range(g.n_half) if h not in dead)}
            g = smooth_crossing(g, mark, ch)
        marks = [ids[h] for h in marks]
    return g


def test_resolve_arrays_matches_crossing_by_crossing_resolution(monkeypatch):
    rng = random.Random(71)
    diagrams = [braid_to_link(parse_braid("n=3; 1 -2 1 2"))]
    while len(diagrams) < 10:
        d = random_regraph(rng, max_crossings=4, max_wide=3)
        if d.crossings():
            diagrams.append(d)
    resolvers = []

    class Recording(StateResolver):
        def __init__(self, d):
            super().__init__(d)
            resolvers.append(self)

    monkeypatch.setattr(inv, "StateResolver", Recording)
    for d in diagrams:
        resolver = StateResolver(d)
        for choices in itertools.product("ABW", repeat=len(resolver.rots)):
            twin, nxt, wide, loops, na, nb = resolver.resolve_arrays(choices)
            g = _resolve_one_by_one(d, choices)
            assert signature_of_arrays(twin, nxt, wide, loops) \
                == canonical_signature(g)
            assert loops == g.free_loops
            assert (na, nb) == (choices.count("A"), choices.count("B"))
        # states share their shapes; a state sum writes none of them
        inv.kauffman_state_sum(d)
        shared = resolvers[-1].shapes
        assert shared
        assert all(shape == resolver.shape(n_w)
                   for n_w, shape in shared.items())


def test_disjoint_union_and_connected_sum():
    a = braid_to_link(parse_braid("n=1;"))
    b = braid_to_link(parse_braid("n=1;"))
    assert disjoint_union(a, b).free_loops == 2
    th = parse_regraph("W(1,2;2,1)")
    e1 = next(h for h in range(th.n_half) if not th.wide[h])
    w = next(h for h in range(th.n_half) if th.wide[h])
    with pytest.raises(BadEdge):
        connected_sum(th, w, th, e1)
    both = connected_sum(th, e1, th, e1)
    assert both.n_nodes() == 4


def test_tangles():
    assert close_tangle(identity_tangle(3)).free_loops == 3
    assert close_tangle(t_tangle(2, 1)).free_loops == 1
    th = parse_regraph("W(1,2;2,1)")
    got = close_tangle(c_tangle(2, 1))
    assert canonical_signature(got) == canonical_signature(th)
    tt = stack(t_tangle(2, 1), t_tangle(2, 1))
    assert tt.g.free_loops == 1
    big = stack(c_tangle(3, 1), c_tangle(3, 2))
    assert close_tangle(big).vertex_count() == 4
    with pytest.raises(Exception):
        stack(identity_tangle(2), identity_tangle(3))


def _surgery_stack(upper, lower):
    """The stack as a surgery on the disjoint union, which removes the
    joined endpoint nodes and pairs them: `stack` must number it alike."""
    n, off = upper.n, upper.g.n_half
    g = disjoint_union(upper.g, lower.g)
    s = Surgery(g)
    for hb, ht in zip(upper.ends[n:], lower.ends[:n]):
        s.kill(hb)
        s.kill(ht + off)
        s.pair(hb, ht + off)
    out, idmap = s.finish()
    return Tangle(out, [idmap[h] for h in upper.ends[:n]]
                  + [idmap[h + off] for h in lower.ends[n:]])


def _arrays(t):
    g = t.g
    return (type(g), g.twin, g.nxt, g.wide, g.over, g.free_loops, t.ends)


def test_stack_welds_like_a_surgery():
    rng = random.Random(15)
    makers = (lambda n, i: identity_tangle(n), t_tangle, c_tangle)

    def word(n):
        t = rng.choice(makers)(n, rng.randint(1, n - 1))
        for _ in range(rng.randint(0, 3)):
            t = _surgery_stack(t, rng.choice(makers)(n, rng.randint(1, n - 1)))
        return t

    # a cup under a cap closes into a free loop
    cup_cap = (t_tangle(3, 2), t_tangle(3, 2))
    assert stack(*cup_cap).g.free_loops == 1
    cases = [cup_cap, (t_tangle(2, 1), c_tangle(2, 1)),
             (c_tangle(4, 2), identity_tangle(4))]
    for _ in range(300):
        n = rng.randint(2, 4)
        cases.append((word(n), word(n)))
    loops = 0
    for upper, lower in cases:
        got = stack(upper, lower)
        assert _arrays(got) == _arrays(_surgery_stack(upper, lower))
        loops += got.g.free_loops
    assert loops


def test_stacked_closures_match_resolved_braid_states():
    # An identity letter on strands (i, i+1) is a positive crossing resolved
    # 'A', a cup-cap letter one resolved 'B', and a gadget the wide
    # insertion ('W', i): the state resolver chases its own strands, so
    # this checks stack and close_tangle against code they do not share.
    rng = random.Random(5)
    makers = {"A": lambda n, i: identity_tangle(n), "B": t_tangle,
              "W": c_tangle}
    loops = 0
    for _ in range(300):
        n = rng.randint(2, 4)
        letters = [(rng.choice("ABW"), rng.randint(1, n - 1))
                   for _ in range(rng.randint(1, 6))]
        t = None
        for kind, i in letters:
            gen = makers[kind](n, i)
            t = gen if t is None else stack(t, gen)
        closed = close_tangle(t)
        word = [("W", i) if kind == "W" else i for kind, i in letters]
        choices = [kind for kind, _ in letters if kind != "W"]
        d = closure_diagram(n, word, REGraphDiagram)
        twin, nxt, wide, free, _, _ = \
            StateResolver(d).resolve_arrays(choices)
        assert canonical_signature(closed) == \
            signature_of_arrays(twin, nxt, wide, free)
        loops += closed.free_loops
    assert loops > 300


def test_joined_endpoints_must_be_alone_on_their_nodes():
    # the first top endpoint moved onto the gadget's upper vertex
    t = c_tangle(2, 1)
    g, ends = t.g, t.ends
    bad = Tangle(g, [g.twin[ends[0]]] + ends[1:])
    with pytest.raises(InvalidMap):
        close_tangle(bad)
    with pytest.raises(InvalidMap):
        stack(identity_tangle(2), bad)


def test_tangle_signature_pins_boundary():
    # cup-cap on strands (1,2) differs from (2,3) even though the closed
    # graphs agree
    a = t_tangle(3, 1)
    b = t_tangle(3, 2)
    assert a.signature() != b.signature()
    assert canonical_signature(close_tangle(a)) == canonical_signature(close_tangle(b))


def test_tangle_signature_keys_closed_pieces():
    # a cup-cap above and below a wide gadget closes it into a dumbbell that
    # the walk from the boundary never reaches
    a = stack(stack(t_tangle(2, 1), c_tangle(2, 1)), t_tangle(2, 1))
    tt = stack(t_tangle(2, 1), t_tangle(2, 1))
    b = Tangle(type(tt.g)._build(tt.g.twin, tt.g.nxt, tt.g.wide, tt.g.over, 0),
               tt.ends)
    assert a.g.n_half == b.g.n_half + 6 and a.g.free_loops == 0
    assert a.signature() != b.signature()
    # the closed piece's key is canonical: reversing the half-edge numbers
    # keeps the signature
    g, last = a.g, a.g.n_half - 1
    rev = [0] * g.n_half
    for h in range(g.n_half):
        rev[last - h] = (last - g.twin[h], last - g.nxt[h], g.wide[h])
    twin, nxt, wide = (list(col) for col in zip(*rev))
    again = Tangle(type(g)._build(twin, nxt, wide, g.over, 0),
                   [last - h for h in a.ends])
    assert again.signature() == a.signature()


def test_generator_numbering_is_pinned():
    # one builder makes all three generators: the identity, the cup-cap and
    # the wide gadget keep the half-edge numbers and endpoint order they
    # have always had (the wide gadget's half-edges first, then the strands
    # and cup-cap arcs left to right)
    import hashlib
    import json
    rows = []
    for n in range(1, 7):
        for kind, make in (("1", lambda n, i: identity_tangle(n)),
                           ("t", t_tangle), ("c", c_tangle)):
            for i in [0] if kind == "1" else range(1, n):
                t = make(n, i)
                rows.append([kind, n, i, t.g.twin, t.g.nxt, t.g.wide, t.ends])
    assert hashlib.sha256(json.dumps(rows).encode()).hexdigest() == \
        "d6844b74c6442c8602657fe625c2fa316aa40472961a01d75e328803266f1790"


def _walk(g, roots):
    """The (twin position, successor position, wide) triples of a
    dict-indexed walk from `roots`, and the positions it gave."""
    idx = {h: i for i, h in enumerate(roots)}
    order = list(roots)
    out = []
    for h in order:                       # order grows while walked
        for x in (g.twin[h], g.nxt[h]):
            if x not in idx:
                idx[x] = len(order)
                order.append(x)
        out.append((idx[g.twin[h]], idx[g.nxt[h]], g.wide[h]))
    return tuple(out), idx


def _walk_key(t):
    """A tangle's key as triples walked from its endpoints, plus each closed
    piece the walk leaves out as its least walk over every root: the form
    `Tangle.signature` replaces, with a brute-force key for closed pieces
    that shares no code with `maps`; an oracle for `Tangle.signature`."""
    g = t.g
    boundary, reached = _walk(g, t.ends)
    rest = set(range(g.n_half)) - set(reached)
    closed = []
    while rest:
        piece = _walk(g, [min(rest)])[1]
        closed.append(min(_walk(g, [r])[0] for r in piece))
        rest -= set(piece)
    return (t.n, g.free_loops, boundary, tuple(sorted(closed)))


def _relabel_tangle(t, rng):
    """t with its half-edges renumbered at random, endpoints kept in order."""
    g = t.g
    perm = list(range(g.n_half))
    rng.shuffle(perm)
    twin, nxt, wide = [0] * g.n_half, [0] * g.n_half, [False] * g.n_half
    for h in range(g.n_half):
        twin[perm[h]] = perm[g.twin[h]]
        nxt[perm[h]] = perm[g.nxt[h]]
        wide[perm[h]] = g.wide[h]
    return Tangle(type(g)._build(twin, nxt, wide, frozenset(), g.free_loops),
                  [perm[h] for h in t.ends])


def test_tangle_signature_classes_match_the_boundary_walk():
    from dubrovnik.ring import R_ONE
    from dubrovnik.skein import EvalContext, reduce_terms
    rng = random.Random(22)
    makers = (lambda n, i: identity_tangle(n), t_tangle, c_tangle)
    e, c = t_tangle(3, 2), c_tangle(3, 2)
    dumbbell = stack(stack(e, c), e)
    base = [e, stack(e, e), dumbbell, stack(dumbbell, e),
            stack(dumbbell, dumbbell)]
    while len(base) < 180:
        n = rng.randint(2, 4)
        t = rng.choice(makers)(n, rng.randint(1, n - 1))
        for _ in range(rng.randint(0, 4)):
            t = stack(t, rng.choice(makers)(n, rng.randint(1, n - 1)))
        # a cup-cap above and below often closes off loops and pieces
        cap = t_tangle(n, rng.randint(1, n - 1))
        base += [t, stack(stack(cap, t), cap)]
        base += [t2 for _, _, t2 in reduce_terms([(R_ONE, t)],
                                                 EvalContext())[1]]
    tangles = []
    for t in base:
        tangles += [t, _relabel_tangle(t, rng)]
    assert len(tangles) >= 300
    sigs = [t.signature() for t in tangles]
    walks = [_walk_key(t) for t in tangles]
    # the corpus holds free loops and closed pieces away from the boundary
    assert sum(bool(w[1]) for w in walks) > 50
    assert sum(bool(w[3]) for w in walks) > 20
    for i in range(0, len(tangles), 2):
        assert sigs[i] == sigs[i + 1]           # relabeling changes nothing
    # equal under one key exactly when equal under the other, for every
    # pair: each key class of one is a key class of the other
    pairs = set(zip(sigs, walks))
    assert len(pairs) == len(set(sigs)) == len(set(walks))
    # and distinct tangles do share keys
    assert len(set(sigs)) < len(base)
