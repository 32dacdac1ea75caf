"""Combinatorial-map substrate for diagrams, graphs and tangles.

A planar object is stored as a rotation system on half-edges:

    twin[h]  -- the other half of h's edge (fixed-point-free involution)
    nxt[h]   -- the next half-edge counterclockwise around h's node
    wide[h]  -- edge kind flag (both halves of an edge agree)
    over     -- set of half-edges lying on the over-strand at their crossing
    free_loops -- number of closed curves that meet no node at all

Faces are the orbits of h -> nxt[twin[h]]; a component is planar exactly when
V - E + F = 2, which is the validity check used everywhere.  Circles carry no
half-edges, so they are held in the free_loops counter.

All mutation happens through :class:`Surgery`, which removes a set of nodes,
reconnects the dangling strands by arcs or through freshly built nodes, and
returns a new map (closed strands that no longer meet any node are folded
into free_loops).  Rewrites built on top of this are therefore pure
functions from maps to maps.
"""

from __future__ import annotations

from dataclasses import dataclass


class NonPlanar(ValueError):
    """A component fails the Euler relation V - E + F = 2."""


class InvalidMap(ValueError):
    """Structural defect: bad twin/rotation data or degree constraints."""


class PlanarMap:
    __slots__ = ("twin", "nxt", "wide", "over", "free_loops",
                 "_node_of", "_nodes")

    def __init__(self, twin: list[int], nxt: list[int], wide: list[bool],
                 over: frozenset[int] = frozenset(), free_loops: int = 0,
                 check: bool = True):
        self.twin = list(twin)
        self.nxt = list(nxt)
        self.wide = list(wide)
        self.over = frozenset(over)
        self.free_loops = free_loops
        self._nodes = None
        self._node_of = None
        if check:
            self._check_structure()

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
        comps = []
        for h0 in range(self.n_half):
            if seen[h0]:
                continue
            stack = [h0]
            seen[h0] = True
            comp = []
            while stack:
                h = stack.pop()
                comp.append(h)
                for nb in (self.twin[h], self.nxt[h]):
                    if not seen[nb]:
                        seen[nb] = True
                        stack.append(nb)
            comps.append(comp)
        return comps

    def _check_structure(self) -> None:
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

    def degree(self, node_idx: int) -> int:
        return len(self.nodes()[node_idx])

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

    # -- serialization -----------------------------------------------------------

    def to_json(self) -> dict:
        return {
            "nodes": [list(cyc) for cyc in self.nodes()],
            "halfedges": {
                "twin": list(self.twin),
                "next": list(self.nxt),
                "kind": ["wide" if w else "standard" for w in self.wide],
            },
            "over": sorted(self.over),
            "freeLoops": self.free_loops,
        }

    @classmethod
    def from_json(cls, data: dict) -> "PlanarMap":
        he = data["halfedges"]
        return cls(
            twin=list(he["twin"]),
            nxt=list(he["next"]),
            wide=[k == "wide" for k in he["kind"]],
            over=frozenset(data.get("over", ())),
            free_loops=data.get("freeLoops", 0),
        )

    def __repr__(self) -> str:
        return (f"<{type(self).__name__} nodes={self.n_nodes()} "
                f"edges={self.n_half // 2} loops={self.free_loops}>")


# -- canonical signatures ------------------------------------------------------

def _encode_from(twin: list[int], nxt: list[int], wide: list[bool],
                 h0: int, idx: list[int], stamp: int,
                 best: tuple | None = None) -> tuple | None:
    """Deterministic rooted encoding of one component starting at h0.

    `idx` is a scratch array of stamps; entries older than `stamp` count as
    unvisited, so the buffer can be reused across roots without clearing.
    Given `best`, an encoding of the same component, the walk returns None
    as soon as its prefix exceeds best's, so only an encoding no larger
    than `best` is ever completed.
    """
    idx[h0] = stamp
    order = [h0]
    out = []
    tied = best is not None
    i = 0
    while i < len(order):
        h = order[i]
        t, n = twin[h], nxt[h]
        if idx[t] < stamp:
            idx[t] = stamp + len(order)
            order.append(t)
        if idx[n] < stamp:
            idx[n] = stamp + len(order)
            order.append(n)
        triple = (idx[t] - stamp, idx[n] - stamp, wide[h])
        if tied and triple != best[i]:
            if triple > best[i]:
                return None
            tied = False
        out.append(triple)
        i += 1
    return tuple(out)


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


# Names the signature scheme below; persisted signatures (the CLI cache)
# are valid only under the same name, so change it with the encoding.
SIGNATURE_SCHEME = "least-colour-rooted-min/2"


def signature_of_arrays(twin: list[int], nxt: list[int], wide: list[bool],
                        free_loops: int) -> tuple:
    """Canonical signature computed straight from the map arrays.

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
    identified.  The sorted component encodings are paired with the
    free-loop count; these bytes are scheme `SIGNATURE_SCHEME`, which names
    the choice of roots and the encoding, so change it with either.
    """
    n = len(twin)
    seen = [False] * n
    idx = [-1] * n
    flen = None
    stamp = 0
    encs = []
    for h0 in range(n):
        if seen[h0]:
            continue
        stack = [h0]
        seen[h0] = True
        comp = []
        while stack:
            h = stack.pop()
            comp.append(h)
            for nb in (twin[h], nxt[h]):
                if not seen[nb]:
                    seen[nb] = True
                    stack.append(nb)
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
            stamp += n + 1
            enc = _encode_from(twin, nxt, wide, r, idx, stamp, best)
            if enc is not None:
                best = enc
        encs.append(best)
    encs.sort()
    return (free_loops, tuple(encs))


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

    def finish(self, cls=PlanarMap, check: bool = True, **kw) -> PlanarMap:
        n = len(self._twin)
        nxt = [-1] * n
        for cyc in self._rotations:
            for i, h in enumerate(cyc):
                nxt[h] = cyc[(i + 1) % len(cyc)]
        if any(x == -1 for x in nxt):
            raise InvalidMap("half-edge missing from every node rotation")
        if any(t == -1 for t in self._twin):
            raise InvalidMap("unwelded half-edge")
        return cls(self._twin, nxt, self._wide, frozenset(self._over),
                   self.free_loops, check=check, **kw)


# -- surgery ----------------------------------------------------------------------

@dataclass
class _Fresh:
    wide: bool
    twin: int | None = None      # fresh partner
    bind: int | None = None      # dead slot whose strand this port continues


class Surgery:
    """Remove nodes and reconnect the loose strands.

    Dead slots (half-edges of removed nodes) are each used at most once:
    paired with another dead slot (an arc through the removed region), bound
    to a fresh port, or void (the slot's edge disappears entirely).  Closed
    strands that end up meeting no surviving or fresh node become free loops.
    """

    def __init__(self, g: PlanarMap):
        self.g = g
        self.dead_nodes: set[int] = set()
        self.dead_slots: set[int] = set()
        self.pairs: dict[int, int] = {}
        self.binds: dict[int, int] = {}      # dead slot -> fresh id
        self.fresh: list[_Fresh] = []
        self.fresh_nodes: list[list[int]] = []
        self.extra_loops = 0

    def kill(self, node_idx: int) -> None:
        if node_idx in self.dead_nodes:
            return
        self.dead_nodes.add(node_idx)
        self.dead_slots.update(self.g.nodes()[node_idx])

    def pair(self, s1: int, s2: int) -> None:
        for s in (s1, s2):
            if s not in self.dead_slots:
                raise InvalidMap(f"slot {s} is not on a removed node")
            if s in self.pairs or s in self.binds:
                raise InvalidMap(f"slot {s} used twice")
        if s1 == s2:
            raise InvalidMap("cannot pair a slot with itself")
        self.pairs[s1] = s2
        self.pairs[s2] = s1

    def port(self, wide: bool = False, bind: int | None = None) -> int:
        """Fresh half-edge; optionally continue the strand of a dead slot."""
        f = len(self.fresh)
        self.fresh.append(_Fresh(wide=wide, bind=bind))
        if bind is not None:
            if bind not in self.dead_slots:
                raise InvalidMap(f"slot {bind} is not on a removed node")
            if bind in self.pairs or bind in self.binds:
                raise InvalidMap(f"slot {bind} used twice")
            self.binds[bind] = f
        return f

    def fresh_twin(self, f1: int, f2: int) -> None:
        self.fresh[f1].twin = f2
        self.fresh[f2].twin = f1

    def fresh_node(self, ports: list[int]) -> None:
        self.fresh_nodes.append(list(ports))

    # --------------------------------------------------------------------------

    def finish(self, over: frozenset[int] | None = None, check: bool = True,
               cls=PlanarMap) -> tuple[PlanarMap, dict[int, int]]:
        """Build the new map.  Returns (map, old half-edge id -> new id)."""
        g = self.g
        survivors = [h for h in range(g.n_half) if h not in self.dead_slots]
        idmap: dict[int, int] = {h: i for i, h in enumerate(survivors)}
        n_s = len(survivors)
        fmap = {f: n_s + f for f in range(len(self.fresh))}

        n_total = n_s + len(self.fresh)
        twin = [-1] * n_total
        nxt = [-1] * n_total
        wide = [False] * n_total

        for h in survivors:
            nh = idmap[h]
            wide[nh] = g.wide[h]
            # rotation is untouched on surviving nodes
            nxt[nh] = idmap[g.nxt[h]]
        for f, fr in enumerate(self.fresh):
            wide[fmap[f]] = fr.wide
        for cyc in self.fresh_nodes:
            for i, f in enumerate(cyc):
                nxt[fmap[f]] = fmap[cyc[(i + 1) % len(cyc)]]

        def settle(new_h: int, entry: int) -> None:
            """Connect new_h to wherever the strand entering at `entry` ends."""
            s = entry
            for _ in range(g.n_half + 1):
                if s not in self.dead_slots:
                    other = idmap[s]
                    break
                if s in self.binds:
                    other = fmap[self.binds[s]]
                    break
                if s in self.pairs:
                    s = g.twin[self.pairs[s]]
                else:
                    raise InvalidMap("strand dies at a void slot")
            else:
                raise InvalidMap("strand chase did not terminate")
            twin[new_h] = other
            twin[other] = new_h

        for h in survivors:
            nh = idmap[h]
            if twin[nh] == -1:
                settle(nh, g.twin[h])
        for f, fr in enumerate(self.fresh):
            nf = fmap[f]
            if twin[nf] != -1:
                continue
            if fr.twin is not None:
                twin[nf] = fmap[fr.twin]
                twin[fmap[fr.twin]] = nf
            elif fr.bind is not None:
                settle(nf, g.twin[fr.bind])
            else:
                raise InvalidMap("fresh half-edge with neither twin nor binding")

        # closed strands living entirely on paired dead slots -> free loops
        visited: set[int] = set()
        loops = self.extra_loops
        for s0 in self.pairs:
            if s0 in visited:
                continue
            s = s0
            closed = True
            chain = []
            while s not in visited:
                visited.add(s)
                chain.append(s)
                p = self.pairs[s]
                visited.add(p)
                chain.append(p)
                t = g.twin[p]
                if (t not in self.dead_slots or t in self.binds
                        or t not in self.pairs):
                    closed = False
                    break
                s = t
            # a chain is a loop only if it returned to its start
            if closed and chain and g.twin[chain[-1]] == chain[0]:
                loops += 1

        if any(t == -1 for t in twin) or any(x == -1 for x in nxt):
            raise InvalidMap("surgery left dangling half-edges")

        new_over = set()
        base_over = self.g.over if over is None else over
        for h in base_over:
            if h in idmap:
                new_over.add(idmap[h])
        out = cls(twin, nxt, wide, frozenset(new_over),
                  g.free_loops + loops, check=check)
        return out, idmap


def disjoint_union_maps(g1: PlanarMap, g2: PlanarMap, cls=PlanarMap) -> PlanarMap:
    off = g1.n_half
    twin = list(g1.twin) + [t + off for t in g2.twin]
    nxt = list(g1.nxt) + [n + off for n in g2.nxt]
    wide = list(g1.wide) + list(g2.wide)
    over = frozenset(g1.over) | frozenset(h + off for h in g2.over)
    return cls(twin, nxt, wide, over, g1.free_loops + g2.free_loops, check=False)
