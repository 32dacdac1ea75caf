import random

import pytest

from dubrovnik.diagrams import (BadEdge, BadIncidence, BraidWord, LinkDiagram,
                                OddVertexCount, ParseError,
                                PlanarTrivalentGraph, RangeError, Tangle,
                                braid_to_link, c_tangle, close_tangle,
                                connected_sum, disjoint_union,
                                identity_tangle, mirror, parse_braid,
                                link_components, parse_pd, parse_regraph,
                                resolve_state, stack, states, switch_crossing,
                                t_tangle, writhe)
from dubrovnik.maps import NonPlanar, canonical_signature


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


def test_writhe():
    assert writhe(parse_braid("1 1")) == 2
    assert writhe(parse_braid("")) == 0
    assert writhe(parse_braid("1 -1")) == 0
    b = parse_braid("n=3; 1 -2 2 1")
    assert writhe(b) == -writhe(b.mirror())


def test_braid_to_link():
    assert braid_to_link(parse_braid("n=1;")).free_loops == 1
    d = braid_to_link(parse_braid("1 1"))
    assert d.crossings() == 2 and d.free_loops == 0
    d2 = braid_to_link(parse_braid("1 -1"))
    assert d2.crossings() == 2


def test_closure_numbering_is_pinned():
    # diagram_job_key names literal diagrams in cache files, so the closure
    # builder must keep numbering half-edges as it always has
    from dubrovnik.corpus import regraph_from_word
    from dubrovnik.invariants import diagram_job_key
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
    assert d.crossings() == 2
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
    assert parse_pd("X(1,1,2,2)").crossings() == 1


def test_mirror_involution():
    d = braid_to_link(parse_braid("n=3; 1 -2 1"))
    assert mirror(mirror(d)).over == d.over
    d0 = braid_to_link(parse_braid("n=2;"))
    assert mirror(d0).over == d0.over


def test_switch_crossing():
    d = braid_to_link(parse_braid("1 1"))
    node = d.crossing_nodes()[0]
    ds = switch_crossing(d, node)
    assert ds.over != d.over
    assert switch_crossing(ds, node).over == d.over


def test_states_count_and_partition():
    d = braid_to_link(parse_braid("1 1"))
    sts = list(states(d))
    assert len(sts) == 9
    # weights at A = B = 1 are all 1, so they add up to 3^crossings
    assert sum(1 for _ in sts) == 3 ** d.crossings()
    for st in sts:
        wide_edges = sum(st.graph.wide) // 2
        assert st.na + st.nb + wide_edges == d.crossings()
        assert st.graph.vertex_count() % 2 == 0


def test_states_empty_diagram():
    d = braid_to_link(parse_braid("n=1;"))
    sts = list(states(d))
    assert len(sts) == 1
    assert sts[0].graph.free_loops == 1
    assert (sts[0].na, sts[0].nb) == (0, 0)


def test_kink_states():
    d = braid_to_link(parse_braid("1"))
    recs = {st.choices[0]: st for st in states(d)}
    assert recs["A"].graph.free_loops == 2
    assert recs["B"].graph.free_loops == 1
    assert recs["W"].graph.vertex_count() == 2
    assert (recs["A"].na, recs["A"].nb) == (1, 0)
    assert (recs["B"].na, recs["B"].nb) == (0, 1)
    assert (recs["W"].na, recs["W"].nb) == (0, 0)


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


def test_tangle_signature_pins_boundary():
    # cup-cap on strands (1,2) differs from (2,3) even though the closed
    # graphs agree
    a = t_tangle(3, 1)
    b = t_tangle(3, 2)
    assert a.signature() != b.signature()
    assert canonical_signature(close_tangle(a)) == canonical_signature(close_tangle(b))


def test_resolve_state_validates():
    d = braid_to_link(parse_braid("1 1"))
    with pytest.raises(ValueError):
        resolve_state(d, "A")
    with pytest.raises(ValueError):
        resolve_state(d, "AZ")
