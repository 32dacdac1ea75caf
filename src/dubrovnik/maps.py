"""Combinatorial-map substrate for diagrams, graphs and tangles.

A planar object is stored as a rotation system on half-edges:

    twin[h]  -- the other half of h's edge (fixed-point-free involution)
    nxt[h]   -- the next half-edge counterclockwise around h's node
    wide[h]  -- edge kind flag (both halves of an edge agree)
    over     -- set of half-edges lying on the over-strand at their crossing
    free_loops -- number of closed curves that meet no node at all

Faces are the orbits of h -> nxt[twin[h]]; a component is planar exactly when
V - E + F = 2.  Circles carry no half-edges, so they are held in the
free_loops counter.

A map is validated (`validate`) where it enters the program: a class
constructor or `MapBuilder.finish`.  A map the program builds itself
(`PlanarMap._build`: surgery results, states, components, tangle
generators) is validated only when `debug_mode()` is true.  The engine's
entry points read DUBROVNIK_DEBUG once per call (`reads_debug_once`), not
once per map built.

No map is changed in place.  Every rewrite is one `splice`: it removes a
set of half-edges, follows each kept strand across the arcs that join
removed ones, folds cycles of arcs alone into free_loops, and returns a
new map with the new id of each old half-edge.  :class:`Surgery` builds
the local rules on it in `MapBuilder`'s terms: it removes nodes, pairs
their loose slots by arcs, and puts slots straight onto new nodes joined
by fresh edges.  `diagrams.stack` and `diagrams.close_tangle` splice
tangle endpoints.  Rewrites are therefore pure functions from maps to
maps.

One encoder signs closed graphs and open tangles alike
(`signature_of_arrays`): a closed component is walked from canonically
chosen roots, a tangle's boundary from its endpoints in order, and both
give a key (free loops, encodings).
"""

from __future__ import annotations

import functools
import os
from contextvars import ContextVar

# DUBROVNIK_DEBUG as read on entry to the outermost `reads_debug_once`
# call still running, or None outside every such call.
_debug_in_call: ContextVar[bool | None] = ContextVar("_debug_in_call",
                                                      default=None)


def debug_mode() -> bool:
    """Whether DUBROVNIK_DEBUG is set; the `cli` module docstring lists what
    debug mode turns on.  Inside a `reads_debug_once` call this is the
    value read when that call began."""
    scoped = _debug_in_call.get()
    if scoped is None:
        return bool(os.environ.get("DUBROVNIK_DEBUG"))
    return scoped


def reads_debug_once(fn):
    """Make `fn` read DUBROVNIK_DEBUG once per call: every `debug_mode()`
    inside it (each map built, each rule applied, each nested entry point)
    sees the value read when the outermost such call began.  Nothing is
    kept once it returns, so a change of the variable between calls takes
    effect."""
    @functools.wraps(fn)
    def wrapper(*args, **kw):
        if _debug_in_call.get() is not None:
            return fn(*args, **kw)
        token = _debug_in_call.set(bool(os.environ.get("DUBROVNIK_DEBUG")))
        try:
            return fn(*args, **kw)
        finally:
            _debug_in_call.reset(token)
    return wrapper


class NonPlanar(ValueError):
    """A component fails the Euler relation V - E + F = 2."""


class InvalidMap(ValueError):
    """Structural defect: bad twin/rotation data or degree constraints."""


class PlanarMap:
    __slots__ = ("twin", "nxt", "wide", "over", "free_loops",
                 "_node_of", "_nodes")

    def __init__(self, twin: list[int], nxt: list[int], wide: list[bool],
                 over: frozenset[int] = frozenset(), free_loops: int = 0):
        self._adopt(list(twin), list(nxt), list(wide), frozenset(over),
                    free_loops)
        self.validate()

    @classmethod
    def _build(cls, *arrays):
        """A map the program builds itself, validated in debug mode only.
        It keeps the lists given, which other maps may share: no map's
        arrays are written in place."""
        g = cls.__new__(cls)
        g._adopt(*arrays)
        if debug_mode():
            g.validate()
        return g

    def _adopt(self, twin, nxt, wide, over, free_loops) -> None:
        self.twin, self.nxt, self.wide = twin, nxt, wide
        self.over, self.free_loops = over, free_loops
        self._nodes = self._node_of = None

    # -- basic structure -----------------------------------------------------

    @property
    def n_half(self) -> int:
        return len(self.twin)

    def nodes(self) -> list[tuple[int, ...]]:
        """Rotation cycles; each node is its half-edges in CCW order."""
        if self._nodes is None:
            seen = [False] * self.n_half
            out = []
            for h0 in range(self.n_half):
                if seen[h0]:
                    continue
                cyc = []
                h = h0
                while not seen[h]:
                    seen[h] = True
                    cyc.append(h)
                    h = self.nxt[h]
                out.append(tuple(cyc))
            self._nodes = out
        return self._nodes

    def node_of(self, h: int) -> int:
        if self._node_of is None:
            no = [0] * self.n_half
            for i, cyc in enumerate(self.nodes()):
                for h2 in cyc:
                    no[h2] = i
            self._node_of = no
        return self._node_of[h]

    def n_nodes(self) -> int:
        return len(self.nodes())

    def faces(self) -> list[tuple[int, ...]]:
        """Orbits of h -> nxt[twin[h]]."""
        seen = [False] * self.n_half
        out = []
        for h0 in range(self.n_half):
            if seen[h0]:
                continue
            cyc = []
            h = h0
            while not seen[h]:
                seen[h] = True
                cyc.append(h)
                h = self.nxt[self.twin[h]]
            out.append(tuple(cyc))
        return out

    def components(self) -> list[list[int]]:
        """Half-edge classes closed under twin and nxt (free loops excluded)."""
        seen = [False] * self.n_half
        return [_reach(self.twin, self.nxt, seen, [h])
                for h in range(self.n_half) if not seen[h]]

    def validate(self) -> None:
        """Raise InvalidMap or NonPlanar unless the map is well formed."""
        n = self.n_half
        if not (len(self.nxt) == len(self.wide) == n):
            raise InvalidMap("array length mismatch")
        for h in range(n):
            t = self.twin[h]
            if t == h or not (0 <= t < n) or self.twin[t] != h:
                raise InvalidMap(f"twin is not a fixed-point-free involution at {h}")
            if self.wide[t] != self.wide[h]:
                raise InvalidMap(f"edge kind mismatch on edge {h}-{t}")
            if not (0 <= self.nxt[h] < n):
                raise InvalidMap(f"bad rotation successor at {h}")
        self.euler_check()

    def euler_check(self) -> None:
        """Raise NonPlanar unless every component satisfies V - E + F = 2."""
        face_of = {}
        for i, f in enumerate(self.faces()):
            for h in f:
                face_of[h] = i
        for comp in self.components():
            nodes = {self.node_of(h) for h in comp}
            faces = {face_of[h] for h in comp}
            v, e, f = len(nodes), len(comp) // 2, len(faces)
            if v - e + f != 2:
                raise NonPlanar(f"component has V-E+F = {v - e + f}")

    # -- derived data ----------------------------------------------------------

    def node_wide_slot(self, node_idx: int) -> int | None:
        for h in self.nodes()[node_idx]:
            if self.wide[h]:
                return h
        return None

    def crossing_nodes(self) -> list[int]:
        return [i for i, cyc in enumerate(self.nodes())
                if any(h in self.over for h in cyc)]

    def vertex_count(self) -> int:
        """Trivalent vertices (degree-3 nodes)."""
        return sum(1 for cyc in self.nodes() if len(cyc) == 3)

    def __repr__(self) -> str:
        return (f"<{type(self).__name__} nodes={self.n_nodes()} "
                f"edges={self.n_half // 2} loops={self.free_loops}>")


# -- canonical signatures ------------------------------------------------------

# Bits of each walk position in an encoding entry; a map has fewer
# half-edges than 2**_POS_BITS.
_POS_BITS = 20


def _encode_from(twin: list[int], nxt: list[int], wide: list[bool],
                 roots, best: tuple | None = None) -> tuple | None:
    """Deterministic encoding of the half-edges reachable from `roots`,
    which take walk positions 0, 1, ... in their order: one root for a
    closed component, a tangle's endpoints for its boundary.

    The encoding holds one integer per half-edge in walk order,
    a << 21 | b << 1 | wide, where a and b are the walk positions of its
    twin and its rotation successor.  The fields have a fixed width,
    whatever the map's size, so an integer determines its triple, and
    integers compare as the (a, b, wide) triples would.

    Given `best`, an encoding from other roots of the same half-edges, the
    walk returns None as soon as its prefix exceeds best's, so only an
    encoding no larger than `best` is ever completed.
    """
    shift = _POS_BITS + 1
    pos = [-1] * len(twin)
    order = list(roots)
    for i, r in enumerate(order):
        pos[r] = i
    out = []
    tied = best is not None
    # `order` grows while it is walked: a list iterator reads its length
    # at every step
    for i, h in enumerate(order):
        t, n = twin[h], nxt[h]
        a = pos[t]
        if a < 0:
            a = pos[t] = len(order)
            order.append(t)
        b = pos[n]
        if b < 0:
            b = pos[n] = len(order)
            order.append(n)
        code = a << shift | b << 1 | wide[h]
        if tied and code != best[i]:
            if code > best[i]:
                return None
            tied = False
        out.append(code)
    return tuple(out)


def _reach(twin: list[int], nxt: list[int], seen: list[bool], roots
           ) -> list[int]:
    """The half-edges reachable from `roots` by twin and nxt, roots first,
    that `seen` did not yet mark; marks them."""
    comp = list(roots)
    for h in comp:
        seen[h] = True
    for h in comp:                      # comp grows while it is walked
        t, x = twin[h], nxt[h]
        if not seen[t]:
            seen[t] = True
            comp.append(t)
        if not seen[x]:
            seen[x] = True
            comp.append(x)
    return comp


def _face_lengths(twin: list[int], nxt: list[int]) -> list[int]:
    """Length of the face (orbit of h -> nxt[twin[h]]) through each half-edge."""
    flen = [0] * len(twin)
    for h0 in range(len(twin)):
        if flen[h0]:
            continue
        face = [h0]
        h = nxt[twin[h0]]
        while h != h0:
            face.append(h)
            h = nxt[twin[h]]
        k = len(face)
        for h in face:
            flen[h] = k
    return flen


def signature_of_arrays(twin: list[int], nxt: list[int], wide: list[bool],
                        free_loops: int, ends=()) -> tuple:
    """Canonical signature computed straight from the map arrays: the pair
    (free-loop count, encodings), one encoding per component.

    A component is encoded by the least of its rooted encodings over a set
    of candidate roots.  The signature is canonical when every
    orientation-preserving isomorphism carries the candidates onto the
    candidates of its image: then isomorphic maps have equal minima, while
    a rooted encoding determines its component, so non-isomorphic maps
    differ.  The candidates are the wide half-edges when a component has
    any (isomorphisms keep the edge kind).  When there are more than two
    (one wide edge is cheaper to encode twice than to colour), only those
    of the least colour

        (flen[h], flen[nxt h], flen[nxt nxt h], flen[twin h])

    remain, flen being the length of the face through a half-edge.
    Isomorphisms carry faces to faces of the same length, so they keep
    colours, and the least class is again such a set.  Reflections are not
    identified.  The component encodings are sorted.

    `ends`, a tangle's endpoints in boundary order, pins the walk of the
    half-edges reachable from them: those get one encoding, walked from
    `ends` in order with no choice of root, and it comes first, before the
    sorted encodings of the closed pieces.  An endpoint is alone on its
    node, which no half-edge of a closed trivalent piece is, so a boundary
    encoding never equals a closed piece's, and its entries for the
    endpoints fix len(ends).  So open tangles and closed graphs share one
    key shape, and the engine reads from the number of encodings whether
    anything falls away.

    The free-loop count is kept apart because the state sum signs states
    that differ only in free loops once.  Each encoding is a tuple of one
    integer per half-edge (`_encode_from`), whose fixed fields bound the
    map below 2**20 half-edges; a larger map raises ValueError.  Signatures
    are keys of in-process memo tables only; nothing persists them, so the
    choice of roots and the encoding may change freely.
    """
    n = len(twin)
    if n >= 1 << _POS_BITS:
        raise ValueError(f"a signature takes fewer than 2**{_POS_BITS} "
                         f"half-edges, not {n}")
    boundary = ()
    seen = [False] * n
    if ends:
        boundary = (_encode_from(twin, nxt, wide, ends),)
        if len(boundary[0]) == n:
            return (free_loops, boundary)
        _reach(twin, nxt, seen, ends)
    flen = None
    encs = []
    for h0 in range(n):
        if seen[h0]:
            continue
        comp = _reach(twin, nxt, seen, (h0,))
        roots = [h for h in comp if wide[h]] or comp
        if len(roots) > 2:
            if flen is None:
                flen = _face_lengths(twin, nxt)
            colours = [(flen[r], flen[nxt[r]], flen[nxt[nxt[r]]],
                        flen[twin[r]]) for r in roots]
            least = min(colours)
            roots = [r for r, c in zip(roots, colours) if c == least]
        best = None
        for r in roots:
            enc = _encode_from(twin, nxt, wide, (r,), best)
            if enc is not None:
                best = enc
        encs.append(best)
    encs.sort()
    return (free_loops, boundary + tuple(encs))


def canonical_signature(g: PlanarMap) -> tuple:
    """Isomorphism invariant of the map (relabeling, component order, loops).

    Preserves rotation orientation: reflections are *not* identified.
    """
    return signature_of_arrays(g.twin, g.nxt, g.wide, g.free_loops)


# -- construction ---------------------------------------------------------------

class MapBuilder:
    """Incremental construction: create edges, then declare node rotations."""

    def __init__(self):
        self._wide: list[bool] = []
        self._twin: list[int] = []
        self._rotations: list[list[int]] = []
        self._over: set[int] = set()
        self.free_loops = 0

    def edge(self, wide: bool = False) -> tuple[int, int]:
        h1 = len(self._twin)
        h2 = h1 + 1
        self._twin += [h2, h1]
        self._wide += [wide, wide]
        return h1, h2

    def half(self, wide: bool = False) -> int:
        """A single half-edge to be twinned later with `weld`."""
        h = len(self._twin)
        self._twin.append(-1)
        self._wide.append(wide)
        return h

    def weld(self, h1: int, h2: int) -> None:
        if self._twin[h1] != -1 or self._twin[h2] != -1:
            raise InvalidMap("half-edge already twinned")
        self._twin[h1] = h2
        self._twin[h2] = h1

    def node(self, halfedges: list[int]) -> None:
        self._rotations.append(list(halfedges))

    def mark_over(self, halfedges) -> None:
        self._over.update(halfedges)

    def finish(self, cls=PlanarMap) -> PlanarMap:
        """The built map, validated as input."""
        return cls(*self._arrays())

    def _arrays(self) -> tuple:
        """Unvalidated (twin, nxt, wide, over, free_loops) of the built map."""
        n = len(self._twin)
        nxt = [-1] * n
        for cyc in self._rotations:
            for i, h in enumerate(cyc):
                nxt[h] = cyc[(i + 1) % len(cyc)]
        if any(x == -1 for x in nxt):
            raise InvalidMap("half-edge missing from every node rotation")
        if any(t == -1 for t in self._twin):
            raise InvalidMap("unwelded half-edge")
        return (self._twin, nxt, self._wide, frozenset(self._over),
                self.free_loops)


# -- surgery ----------------------------------------------------------------------

class Surgery:
    """Remove nodes and write what replaces them, in `MapBuilder`'s terms.

    A slot is a half-edge of a removed node.  Each slot is used at most
    once: paired with another slot (an arc through the removed region, by
    `pair`), put on a new node (by `node`, where it keeps its edge), or
    left void (its edge disappears entirely).  `edge` makes fresh twinned
    half-edges, and every one of them must go on exactly one new node.
    """

    def __init__(self, g: PlanarMap):
        self.g = g
        self.dead_slots: set[int] = set()
        self.used: set[int] = set()
        self.pairs: dict[int, int] = {}
        self.wide: list[bool] = []           # of fresh half-edge n_half + i
        self.new_nodes: list[list[int]] = []

    def kill(self, node_idx: int) -> None:
        self.dead_slots.update(self.g.nodes()[node_idx])

    def _use(self, h: int) -> None:
        if h in self.used:
            raise InvalidMap(f"half-edge {h} used twice")
        if h not in self.dead_slots and not (
                0 <= h - self.g.n_half < len(self.wide)):
            raise InvalidMap(f"half-edge {h} is neither fresh nor a slot "
                             f"of a removed node")
        self.used.add(h)

    def pair(self, s1: int, s2: int) -> None:
        if max(s1, s2) >= self.g.n_half:
            raise InvalidMap("only slots are paired")
        self._use(s1)
        self._use(s2)
        self.pairs[s1] = s2
        self.pairs[s2] = s1

    def edge(self, wide: bool = False) -> tuple[int, int]:
        """A fresh twinned pair of half-edges."""
        h = self.g.n_half + len(self.wide)
        self.wide += [wide, wide]
        return h, h + 1

    def node(self, halves: list[int]) -> None:
        """A new node with rotation `halves`: fresh half-edges and slots."""
        for h in halves:
            self._use(h)
        self.new_nodes.append(list(halves))

    # --------------------------------------------------------------------------

    def finish(self, cls=None) -> tuple[PlanarMap, list[int]]:
        """Build the new map, of g's class unless `cls` is given.  Returns
        (map, new id of each half-edge of g, -1 where dropped).  Survivors
        are numbered first, in their order, then the fresh half-edges in the
        order `edge` made them, then the placed slots in the order the
        `node` calls list them; each placed slot hands its place on its
        edge to its new id."""
        g = self.g
        n = g.n_half
        k = n + len(self.wide)
        placed = [h for cyc in self.new_nodes for h in cyc if h < n]
        ids = list(range(k))
        for i, h in enumerate(placed):
            ids[h] = k + i
        twin = g.twin + [n + (i ^ 1) for i in range(k - n)]
        for h in placed:
            t = twin[h]
            twin.append(t)
            twin[t] = ids[h]
        nxt = g.nxt + [-1] * (len(twin) - n)
        for cyc in self.new_nodes:
            for h, h2 in zip(cyc, cyc[1:] + cyc[:1]):
                nxt[ids[h]] = ids[h2]
        if -1 in nxt:
            raise InvalidMap("a fresh half-edge is on no node")
        out, new = splice(twin, nxt, g.wide + self.wide
                          + [g.wide[h] for h in placed], g.over, g.free_loops,
                          self.dead_slots, self.pairs, cls or type(g))
        return out, new[:n]


def splice(twin: list[int], nxt: list[int], wide: list[bool], over,
           free_loops: int, drop, link: dict[int, int], cls=PlanarMap
           ) -> tuple[PlanarMap, list[int]]:
    """The map left when the half-edges in `drop` are removed and each kept
    strand is followed across the arcs of `link`.

    `link` pairs dropped half-edges (an involution on its keys).  A strand
    leaves a kept half-edge h for twin[h]; while that is dropped, the arc to
    its `link` partner carries the strand on to the partner's twin, and the
    first kept half-edge reached is h's new twin.  A dropped half-edge in
    no arc is void: a strand that reaches one raises InvalidMap.  Cycles
    made of arcs alone become free loops.  The kept half-edges are
    renumbered in their order; no kept half-edge's rotation may meet a
    dropped one.  Returns (map, new id of each old half-edge, -1 where
    dropped).
    """
    keep = [h for h in range(len(twin)) if h not in drop]
    new = [-1] * len(twin)
    for i, h in enumerate(keep):
        new[h] = i
    crossed: set[int] = set()          # dropped half-edges a strand entered
    tw = []
    try:
        for h in keep:
            t = twin[h]
            while t in drop:
                crossed.add(t)
                t = twin[link[t]]
            tw.append(new[t])
    except KeyError:
        raise InvalidMap("strand dies at a void slot") from None
    # each strand is walked from both ends, so every arc it crosses is
    # entered at both halves; an arc no strand entered lies on a cycle of
    # arcs, or on a chain of them between void slots
    loops = free_loops
    for s in link:
        if s in crossed:
            continue
        t = s
        while t in link and t not in crossed:
            crossed.add(t)
            crossed.add(link[t])
            t = twin[link[t]]
        loops += t == s
    return (cls._build(tw, [new[nxt[h]] for h in keep], [wide[h] for h in keep],
                       frozenset([new[h] for h in over if new[h] >= 0]), loops),
            new)


def disjoint_union(g1: PlanarMap, g2: PlanarMap) -> PlanarMap:
    """g1 beside g2, of g1's class, g2's half-edges numbered after g1's."""
    off = g1.n_half
    twin = g1.twin + [t + off for t in g2.twin]
    nxt = g1.nxt + [n + off for n in g2.nxt]
    over = frozenset(g1.over) | frozenset(h + off for h in g2.over)
    return type(g1)._build(twin, nxt, g1.wide + g2.wide, over,
                           g1.free_loops + g2.free_loops)
