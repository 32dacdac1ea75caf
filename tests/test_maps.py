import random

import pytest

from dubrovnik import maps
from dubrovnik.maps import (InvalidMap, MapBuilder, NonPlanar, PlanarMap,
                            Surgery, canonical_signature, signature_of_arrays)


def _theta(b: MapBuilder, torus: bool = False) -> None:
    """A theta graph on `b`, planar or embedded in the torus."""
    w1, w2 = b.edge(wide=True)
    a1, b1 = b.edge()
    a2, b2 = b.edge()
    b.node([w1, a1, a2])
    b.node([w2, b1, b2] if torus else [w2, b2, b1])


def build_theta():
    b = MapBuilder()
    _theta(b)
    return b.finish()


def test_theta_faces():
    th = build_theta()
    kinds = sorted(tuple(sorted(th.wide[h] for h in f)) for f in th.faces())
    assert kinds == [(False, False), (False, True), (False, True)]


def test_torus_embedding_rejected():
    # alone, and beside a planar theta in either order: V - E + F sums to
    # 2 over the two, but is checked per component
    for tori in ([True], [False, True], [True, False]):
        b = MapBuilder()
        for torus in tori:
            _theta(b, torus)
        with pytest.raises(NonPlanar, match="V-E\\+F = 0"):
            b.finish()


def test_twin_validation():
    with pytest.raises(InvalidMap):
        PlanarMap([0, 1], [1, 0], [False, False])   # fixed points


def test_rotation_must_be_a_permutation():
    # a successor given to two half-edges leaves a third with none, which
    # no node rotation allows, whatever the Euler count
    from dubrovnik.corpus import random_trivalent_graph
    from dubrovnik.diagrams import PlanarTrivalentGraph
    rng = random.Random(3)
    tried = 0
    for _ in range(300):
        g = random_trivalent_graph(rng, max_vertices=8)
        a, b = rng.randrange(g.n_half), rng.randrange(g.n_half)
        if g.nxt[a] == g.nxt[b]:
            continue
        nxt = list(g.nxt)
        nxt[a] = nxt[b]
        for cls in (PlanarMap, PlanarTrivalentGraph):
            with pytest.raises(InvalidMap, match="not a permutation"):
                cls(g.twin, nxt, g.wide, g.over, g.free_loops)
        tried += 1
    assert tried > 200


def test_kill_names_a_node_by_any_half_edge():
    from dubrovnik.corpus import random_regraph
    rng = random.Random(9)
    for _ in range(20):
        d = random_regraph(rng, max_crossings=4, max_wide=3)
        for cyc in d.nodes():
            for h in cyc:
                s = Surgery(d)
                s.kill(h)
                s.kill(cyc[-1])         # killing a node again changes nothing
                assert s.dead_slots == set(cyc)


def relabel(g: PlanarMap, rng: random.Random) -> PlanarMap:
    perm = list(range(g.n_half))
    rng.shuffle(perm)
    twin = [0] * g.n_half
    nxt = [0] * g.n_half
    wide = [False] * g.n_half
    for h in range(g.n_half):
        twin[perm[h]] = perm[g.twin[h]]
        nxt[perm[h]] = perm[g.nxt[h]]
        wide[perm[h]] = g.wide[h]
    return PlanarMap(twin, nxt, wide, frozenset(), g.free_loops)


def test_signature_relabeling_invariance():
    rng = random.Random(0)
    th = build_theta()
    sig = canonical_signature(th)
    for _ in range(1000):
        assert canonical_signature(relabel(th, rng)) == sig


def oracle_encoding(g: PlanarMap) -> tuple:
    """Brute force: least breadth-first encoding over every root, per component."""
    comps = []
    left = set(range(g.n_half))
    while left:
        comp, todo = set(), [min(left)]
        while todo:
            h = todo.pop()
            if h not in comp:
                comp.add(h)
                todo += [g.twin[h], g.nxt[h]]
        left -= comp
        codes = []
        for root in comp:
            label, queue = {root: 0}, [root]
            for h in queue:                   # queue grows while walked
                for x in (g.twin[h], g.nxt[h]):
                    if x not in label:
                        label[x] = len(label)
                        queue.append(x)
            codes.append(tuple((label[g.twin[h]], label[g.nxt[h]], g.wide[h])
                               for h in queue))
        comps.append(min(codes))
    return (g.free_loops, tuple(sorted(comps)))


def reflect(g: PlanarMap) -> PlanarMap:
    """Mirror image: every rotation reversed."""
    prev = [0] * g.n_half
    for h in range(g.n_half):
        prev[g.nxt[h]] = h
    return PlanarMap(g.twin, prev, g.wide, frozenset(), g.free_loops)


def test_signature_classes_match_the_brute_force_oracle():
    from dubrovnik.corpus import dodecahedral_graphs, random_trivalent_graph
    rng = random.Random(5)
    base = ([random_trivalent_graph(rng) for _ in range(40)]
            + dodecahedral_graphs())
    maps = []
    for g in base:
        maps += [g, relabel(g, rng), reflect(g), relabel(reflect(g), rng)]
    sigs = [canonical_signature(g) for g in maps]
    oracle = [oracle_encoding(g) for g in maps]
    for i in range(0, len(maps), 2):
        assert sigs[i] == sigs[i + 1]           # relabeling changes nothing
    for i in range(len(maps)):
        for j in range(i):
            assert (sigs[i] == sigs[j]) == (oracle[i] == oracle[j])
    # the corpus holds chiral graphs, whose reflections are told apart
    chiral = [i for i in range(0, len(maps), 4) if oracle[i] != oracle[i + 2]]
    assert chiral
    assert all(sigs[i] != sigs[i + 2] for i in chiral)
    # and pairs isomorphic otherwise than by relabeling (achiral, repeated)
    assert len(set(oracle)) < len(maps) // 2


def _tuple_encode_from(twin, nxt, wide, roots, best=None):
    """The rooted encoding as (a, b, wide) triples, the form the packed
    integers replace: an oracle for them."""
    order = list(roots)
    label = {h: i for i, h in enumerate(order)}
    for h in order:                       # order grows while walked
        for x in (twin[h], nxt[h]):
            if x not in label:
                label[x] = len(label)
                order.append(x)
    enc = tuple((label[twin[h]], label[nxt[h]], wide[h]) for h in order)
    return None if best is not None and enc > best else enc


def test_packed_signatures_agree_with_tuple_encodings(monkeypatch):
    import networkx as nx
    from dubrovnik.corpus import (dodecahedral_graphs, matching_graphs,
                                  random_trivalent_graph)
    from dubrovnik.diagrams import c_tangle, close_tangle, stack
    rng = random.Random(17)
    base = ([random_trivalent_graph(rng) for _ in range(40)]
            + dodecahedral_graphs(4)
            + matching_graphs(nx.truncated_cube_graph(), 3))
    for k in (6, 7, 40, 41):              # gadget chains c1 c2 c1 ...
        t = c_tangle(3, 1)
        for i in range(1, k):
            t = stack(t, c_tangle(3, 1 + i % 2))
        base.append(close_tangle(t))
    maps_ = []
    for g in base:
        maps_ += [g, relabel(g, rng)]
    assert len({g.n_half for g in maps_}) >= 10
    packed = [canonical_signature(g) for g in maps_]
    monkeypatch.setattr(maps, "_encode_from", _tuple_encode_from)
    tupled = [canonical_signature(g) for g in maps_]
    for i in range(len(maps_)):
        for j in range(i + 1):
            assert (packed[i] == packed[j]) == (tupled[i] == tupled[j])
    # each integer is a << 21 | b << 1 | wide, whatever the map's size
    mask = (1 << 20) - 1
    for p, t in zip(packed, tupled):
        assert p[0] == t[0]
        assert [[(c >> 21, c >> 1 & mask, bool(c & 1)) for c in enc]
                for enc in p[1]] == [list(enc) for enc in t[1]]


def test_signature_refuses_maps_beyond_its_field_width():
    # the width check comes first: nothing of the arrays is read
    n = 1 << 20
    with pytest.raises(ValueError):
        signature_of_arrays(range(n), range(n), None, 0)


def test_signature_distinguishes():
    th = build_theta()
    loop = PlanarMap([], [], [], frozenset(), 1)
    two_loops = PlanarMap([], [], [], frozenset(), 2)
    sigs = {canonical_signature(g) for g in (th, loop, two_loops)}
    assert len(sigs) == 3


def test_surgery_free_loop():
    th = build_theta()
    # removing both vertices while splicing one edge pair into a circle
    f = [f for f in th.faces()
         if len(f) == 2 and sorted(th.wide[h] for h in f) == [False, True]][0]
    hs = [h for h in f if not th.wide[h]][0]
    hw = [h for h in f if th.wide[h]][0]
    s = Surgery(th)
    s.kill(hw)
    s.kill(th.twin[hw])
    s.pair(th.nxt[hw], th.nxt[hs])
    g, _ = s.finish()
    assert g.n_half == 0 and g.free_loops == 1


def test_surgery_rejects_double_use():
    """A slot (half-edge of a removed node) is used once, only slots and
    fresh half-edges go on new nodes, and every fresh one goes on one."""
    misuses = [
        (lambda s: (s.pair(0, 2), s.pair(0, 4)), "used twice"),
        (lambda s: (s.node([2]), s.node([2])), "used twice"),
        (lambda s: (s.pair(0, 2), s.node([0])), "used twice"),
        (lambda s: (s.node([2]), s.pair(2, 4)), "used twice"),
        (lambda s: s.node([1]), "neither fresh nor a slot"),
        (lambda s: (s.edge(), s.node([0, 2, 4]), s.finish()), "on no node"),
    ]
    for misuse, message in misuses:
        s = Surgery(build_theta())
        s.kill(0)               # slots 0, 2, 4; node 1 keeps 1, 3, 5
        with pytest.raises(InvalidMap, match=message):
            misuse(s)
