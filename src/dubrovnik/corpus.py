"""Corpus generators for the verification suites and tests.

Random planar trivalent graphs come from resolving random braid closures
(every state of a planar diagram is planar by construction); knotted-graph
diagrams come from closing words mixing braid letters with wide-gadget
insertions.  The girth-5 corpus consists of dodecahedral graphs whose wide
edges run over distinct perfect matchings; all their faces are pentagons,
so no local rule applies and evaluation must go through the move search.
"""

from __future__ import annotations

import random

import networkx as nx

from .diagrams import (BraidWord, MapBuilder, PlanarTrivalentGraph,
                       REGraphDiagram, StateResolver, closure_diagram)


def random_braid(rng: random.Random, max_strands: int = 4,
                 max_letters: int = 8, min_letters: int = 0) -> BraidWord:
    n = rng.randint(2, max_strands)
    k = rng.randint(min_letters, max_letters)
    letters = []
    for _ in range(k):
        i = rng.randint(1, n - 1)
        letters.append(i if rng.random() < 0.5 else -i)
    return BraidWord(n, tuple(letters))


def alternating_braid(rng: random.Random, letters: int, runs: int
                      ) -> BraidWord:
    """A 3-strand word of `letters` letters in `runs` runs of one generator
    each, alternating 1 and 2, one random sign per run, run lengths as even
    as possible.  Its expansion holds long alternating gadget chains."""
    word = []
    for j in range(runs):
        length = letters // runs + (j < letters % runs)
        word += [(1 + j % 2) * rng.choice((1, -1))] * length
    return BraidWord(3, tuple(word))


# -- graph-braid words ----------------------------------------------------------

def regraph_from_word(n: int, word) -> REGraphDiagram:
    """Close a word of braid letters (ints) and wide insertions ('W', i).

    Crossings never touch the wide edges, so the result is always a valid
    knotted-graph diagram (see `diagrams.closure_diagram`).
    """
    return closure_diagram(n, word, REGraphDiagram)


def random_regraph(rng: random.Random, max_strands: int = 4,
                   max_crossings: int = 6, max_wide: int = 4,
                   min_wide: int = 1) -> REGraphDiagram:
    n = rng.randint(2, max_strands)
    n_cross = rng.randint(0, max_crossings)
    n_wide = rng.randint(min_wide, max_wide)
    word = []
    for _ in range(n_cross):
        i = rng.randint(1, n - 1)
        word.append(i if rng.random() < 0.5 else -i)
    for _ in range(n_wide):
        word.append(("W", rng.randint(1, n - 1)))
    rng.shuffle(word)
    return regraph_from_word(n, word)


def clasped_handcuff() -> REGraphDiagram:
    """Two loops joined by a wide edge, clasped by two positive crossings."""
    return regraph_from_word(2, [("W", 1), 1, 1])


def _state(resolver: StateResolver, choices) -> PlanarTrivalentGraph:
    """The state graph of the resolver's diagram for `choices`."""
    twin, nxt, wide, loops, _, _ = resolver.resolve_arrays(choices)
    return PlanarTrivalentGraph._build(twin, nxt, wide, frozenset(), loops)


def n2_vanishing_diagrams(rng: random.Random, count: int):
    """Yield `count` one-crossing knotted-graph diagrams whose three
    resolutions at the crossing have equal numbers of components (free loops
    included); their N = 2 value vanishes.  Lazy, so it may share `rng`."""
    found = 0
    while found < count:
        n = rng.randint(2, 3)
        word = [("W", rng.randint(1, n - 1)) for _ in range(rng.randint(1, 2))]
        word.insert(rng.randrange(len(word) + 1),
                    rng.choice([i for i in range(-(n - 1), n) if i]))
        d = regraph_from_word(n, word)
        if len(d.crossing_nodes()) != 1:
            continue
        resolver = StateResolver(d)
        pieces = set()
        for ch in "ABW":
            g = _state(resolver, ch)
            pieces.add(len(g.components()) + g.free_loops)
        if len(pieces) == 1:
            found += 1
            yield d


# -- random planar trivalent graphs ------------------------------------------------

def random_trivalent_graph(rng: random.Random, max_vertices: int = 12
                           ) -> PlanarTrivalentGraph:
    """A random state of a random knotted-graph diagram."""
    while True:
        d = random_regraph(rng, max_strands=4,
                           max_crossings=rng.randint(0, 4), max_wide=3)
        cross = len(d.crossing_nodes())
        choices = [rng.choice("ABW") for _ in range(cross)]
        g = _state(StateResolver(d), choices)
        if 0 < g.vertex_count() <= max_vertices:
            return g


def trivalent_corpus(rng: random.Random, count: int,
                     max_vertices: int = 12) -> list[PlanarTrivalentGraph]:
    return [random_trivalent_graph(rng, max_vertices) for _ in range(count)]


# -- girth-5 graphs -------------------------------------------------------------------

def _perfect_matchings(g: nx.Graph, limit: int):
    """First `limit` perfect matchings, by backtracking on sorted vertices."""
    nodes = sorted(g.nodes())
    out = []

    def rec(unmatched: list[int], acc: list[tuple[int, int]]):
        if len(out) >= limit:
            return
        if not unmatched:
            out.append(tuple(acc))
            return
        u = unmatched[0]
        for v in sorted(g.neighbors(u)):
            if v in unmatched and v != u:
                rest = [x for x in unmatched if x not in (u, v)]
                rec(rest, acc + [(u, v)])
                if len(out) >= limit:
                    return

    rec(nodes, [])
    return out


def dodecahedral_graphs(count: int = 10) -> list[PlanarTrivalentGraph]:
    """Dodecahedron with wide edges along distinct perfect matchings.

    Every face is a pentagon, so none of the local reduction rules applies
    and evaluation is forced through the move search.
    """
    return matching_graphs(nx.dodecahedral_graph(), count)


def matching_graphs(G: nx.Graph, count: int) -> list[PlanarTrivalentGraph]:
    """A planar cubic graph with wide edges along each of its first `count`
    perfect matchings, embedded by `networkx.check_planarity`."""
    ok, emb = nx.check_planarity(G)
    assert ok
    rotation = {v: list(emb.neighbors_cw_order(v)) for v in G.nodes()}
    out = []
    for matching in _perfect_matchings(G, count):
        wide_pairs = {frozenset(e) for e in matching}
        builder = MapBuilder()
        halves: dict[tuple[int, int], int] = {}
        for u, v in G.edges():
            w = frozenset((u, v)) in wide_pairs
            h1, h2 = builder.edge(wide=w)
            halves[(u, v)] = h1
            halves[(v, u)] = h2
        for v in G.nodes():
            builder.node([halves[(v, u)] for u in rotation[v]])
        out.append(builder.finish(cls=PlanarTrivalentGraph))
    return out
