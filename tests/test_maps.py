import random

import pytest

from dubrovnik.maps import (InvalidMap, MapBuilder, NonPlanar, PlanarMap,
                            Surgery, canonical_signature)


def build_theta():
    b = MapBuilder()
    w1, w2 = b.edge(wide=True)
    a1, b1 = b.edge()
    a2, b2 = b.edge()
    b.node([w1, a1, a2])
    b.node([w2, b2, b1])
    return b.finish()


def test_theta_faces():
    th = build_theta()
    kinds = sorted(tuple(sorted(th.wide[h] for h in f)) for f in th.faces())
    assert kinds == [(False, False), (False, True), (False, True)]


def test_torus_embedding_rejected():
    b = MapBuilder()
    w1, w2 = b.edge(wide=True)
    a1, b1 = b.edge()
    a2, b2 = b.edge()
    b.node([w1, a1, a2])
    b.node([w2, b1, b2])
    with pytest.raises(NonPlanar):
        b.finish()


def test_twin_validation():
    with pytest.raises(InvalidMap):
        PlanarMap([0, 1], [1, 0], [False, False])   # fixed points


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
    from dubrovnik.corpus import dodecahedral_graphs, trivalent_corpus
    rng = random.Random(5)
    base = trivalent_corpus(rng, 40) + dodecahedral_graphs()
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
    s.kill(th.node_of(hw))
    s.kill(th.node_of(th.twin[hw]))
    s.pair(th.nxt[hw], th.nxt[hs])
    g, _ = s.finish()
    assert g.n_half == 0 and g.free_loops == 1


def test_surgery_rejects_double_use():
    th = build_theta()
    s = Surgery(th)
    s.kill(0)
    s.kill(1)
    s.pair(0, 1)
    with pytest.raises(InvalidMap):
        s.pair(0, 2)
