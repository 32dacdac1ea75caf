"""Diagram data model: braids, link diagrams, knotted-graph diagrams, tangles.

Input grammars (bit-exact, also documented in the README):

* Braids: optional ``n=<int>;`` prefix, then whitespace-separated nonzero
  integers; letter ``i`` is the positive generator on strands (i, i+1) and
  ``-i`` its inverse.

* PD records ``X(a,b,c,d)``: the four edge labels counterclockwise around
  the crossing starting at a half-edge of the under-strand, so the
  under-strand occupies positions 1 and 3.  Every label appears exactly
  twice in the whole input.

* Wide-edge records ``W(a,b;c,d)``: a,b are the standard edge-ends at one
  endpoint vertex and c,d those at the other, listed so that traversing
  counterclockwise around the whole wide edge reads a,b,c,d.  This pins the
  rigid cyclic order of the four attached strands.

Crossings are stored with their over-strand pair; smoothing labels are
intrinsic: the A-smoothing joins each over-strand end to the *next
counterclockwise* end, the B-smoothing to the previous one.  With this rule
a positive braid generator resolves as A*(parallel strands) +
B*(cup-cap) + (wide gadget), and a positive kink contributes the factor a.
"""

from __future__ import annotations

import itertools
import re
from dataclasses import dataclass

from .maps import (InvalidMap, MapBuilder, NonPlanar, PlanarMap, Surgery,
                   disjoint_union_maps)


class ParseError(ValueError):
    pass


class RangeError(ParseError):
    """Braid letter out of range for the declared strand count."""


class BadIncidence(ParseError):
    """An edge label is not used exactly twice."""


class WideEdgeCrossing(InvalidMap):
    """A wide half-edge is incident to a crossing."""


class OddVertexCount(InvalidMap):
    """A knotted-graph diagram with an odd number of trivalent vertices."""


class BadEdge(ValueError):
    """Unsuitable edge selected for a connected sum."""


# -- braid words -------------------------------------------------------------

@dataclass(frozen=True)
class BraidWord:
    strands: int
    letters: tuple[int, ...]

    def __post_init__(self):
        if self.strands < 1:
            raise RangeError("strand count must be at least 1")
        for l in self.letters:
            if l == 0 or abs(l) >= self.strands:
                raise RangeError(f"letter {l} out of range for {self.strands} strands")

    def writhe(self) -> int:
        return sum(1 if l > 0 else -1 for l in self.letters)

    def mirror(self) -> "BraidWord":
        return BraidWord(self.strands, tuple(-l for l in self.letters))

    def conjugated_by(self, letter: int) -> "BraidWord":
        return BraidWord(self.strands, (letter,) + self.letters + (-letter,))

    def stabilized(self, sign: int = 1) -> "BraidWord":
        """Markov move: append sigma_n^±1 on one more strand."""
        return BraidWord(self.strands + 1,
                         self.letters + (sign * self.strands,))

    def permutation(self) -> list[int]:
        """Strand permutation of the braid (0-based, top to bottom)."""
        perm = list(range(self.strands))
        for l in self.letters:
            i = abs(l) - 1
            perm[i], perm[i + 1] = perm[i + 1], perm[i]
        return perm


def parse_braid(text: str) -> BraidWord:
    text = text.strip()
    declared = None
    m = re.match(r"^n\s*=\s*(\d+)\s*;", text)
    if m:
        declared = int(m.group(1))
        text = text[m.end():]
    letters = []
    for tok in text.split():
        try:
            v = int(tok)
        except ValueError:
            raise ParseError(f"bad braid letter {tok!r}")
        if v == 0:
            raise ParseError("0 is not a braid letter")
        letters.append(v)
    if declared is not None:
        n = declared
        for v in letters:
            if abs(v) >= n:
                raise RangeError(f"letter {v} needs more than {n} strands")
    else:
        n = 1 + max((abs(v) for v in letters), default=0)
    return BraidWord(n, tuple(letters))


def writhe(b: BraidWord) -> int:
    return b.writhe()


# -- diagram classes -----------------------------------------------------------

def _crossing_rotation(g: PlanarMap, node: int) -> tuple[int, int, int, int]:
    """Rotation cycle of a crossing starting at its smallest over half-edge."""
    cyc = g.nodes()[node]
    overs = [i for i, h in enumerate(cyc) if h in g.over]
    k = min(overs, key=lambda i: cyc[i])
    return tuple(cyc[(k + j) % 4] for j in range(4))


def _validate_crossing(g: PlanarMap, cyc: tuple[int, ...]) -> None:
    if len(cyc) != 4:
        raise InvalidMap(f"crossing of degree {len(cyc)}")
    if any(g.wide[h] for h in cyc):
        raise WideEdgeCrossing("crossing incident to a wide edge")
    overs = {i for i, h in enumerate(cyc) if h in g.over}
    if overs not in ({0, 2}, {1, 3}):
        raise InvalidMap("over-strand pair is not rotation-opposite")


def _validate_trivalent_vertex(g: PlanarMap, node: int, cyc: tuple[int, ...]) -> None:
    if len(cyc) != 3:
        raise InvalidMap(f"vertex of degree {len(cyc)}")
    wides = [h for h in cyc if g.wide[h]]
    if len(wides) != 1:
        raise InvalidMap("vertex must carry exactly one wide half-edge")
    w = wides[0]
    if g.node_of(g.twin[w]) == node:
        raise InvalidMap("wide edge may not be a loop")


class LinkDiagram(PlanarMap):
    """Planar 4-valent crossing diagram of an unoriented link."""

    def __init__(self, *args, check: bool = True, **kw):
        super().__init__(*args, check=check, **kw)
        if check:
            for cyc in self.nodes():
                _validate_crossing(self, cyc)

    def crossings(self) -> int:
        return self.n_nodes()


class REGraphDiagram(PlanarMap):
    """Diagram of a knotted rigid-edge trivalent graph: crossings + vertices."""

    def __init__(self, *args, check: bool = True, **kw):
        super().__init__(*args, check=check, **kw)
        if check:
            n_vert = 0
            for i, cyc in enumerate(self.nodes()):
                if any(h in self.over for h in cyc):
                    _validate_crossing(self, cyc)
                else:
                    _validate_trivalent_vertex(self, i, cyc)
                    n_vert += 1
            if n_vert % 2:
                raise OddVertexCount(f"{n_vert} trivalent vertices")

    def crossings(self) -> int:
        return len(self.crossing_nodes())


class PlanarTrivalentGraph(REGraphDiagram):
    """Crossing-free trivalent graph with wide edges: a state."""

    def __init__(self, *args, check: bool = True, **kw):
        super().__init__(*args, check=check, **kw)
        if check and self.over:
            raise InvalidMap("states may not contain crossings")


# -- braid closure ---------------------------------------------------------------

def closure_diagram(n: int, word, cls) -> PlanarMap:
    """Close a word of braid letters (ints) and wide insertions ('W', i).

    Letter i > 0 is a positive crossing on strands (i, i+1) and -i its
    inverse; a wide insertion puts the four-ended rigid gadget across
    strands (i, i+1), exactly like the tangle generator.  The bottom of
    every strand is welded to its top; strands that meet nothing become
    free loops.  Half-edges are numbered in word order, four per crossing
    and six per gadget, so a word always yields the same literal diagram.
    """
    builder = MapBuilder()
    top: dict[int, int] = {}
    cur: dict[int, int] = {}

    def place(pos: int, upper: int, lower: int) -> None:
        if pos in cur:
            builder.weld(cur[pos], upper)
        else:
            top[pos] = upper
        cur[pos] = lower

    for item in word:
        if isinstance(item, int):
            i = abs(item) - 1
            nw = builder.half()
            ne = builder.half()
            sw = builder.half()
            se = builder.half()
            # CCW rotation around the crossing: NE(45°), NW(135°), SW(225°), SE(315°)
            builder.node([ne, nw, sw, se])
            builder.mark_over([nw, se] if item > 0 else [ne, sw])
            place(i, nw, sw)
            place(i + 1, ne, se)
        else:
            _, pos = item
            i = pos - 1
            w1, w2 = builder.edge(wide=True)
            ur = builder.half()
            ul = builder.half()
            vl = builder.half()
            vr = builder.half()
            builder.node([w1, ur, ul])
            builder.node([w2, vl, vr])
            place(i, ul, vl)
            place(i + 1, ur, vr)
    for pos in range(n):
        if pos in cur:
            builder.weld(cur[pos], top[pos])
        else:
            builder.free_loops += 1
    return builder.finish(cls=cls)


def braid_to_link(b: BraidWord) -> LinkDiagram:
    """Closure diagram of a braid; crossing-free strands become free loops."""
    return closure_diagram(b.strands, b.letters, LinkDiagram)


# -- PD / wide-edge record parsing --------------------------------------------------

_X_RE = re.compile(r"X\(\s*([^()]*?)\s*\)")
_W_RE = re.compile(r"W\(\s*([^()]*?)\s*\)")
_REC_RE = re.compile(r"([XW])\(\s*([^()]*?)\s*\)")


def _parse_records(text: str) -> list[tuple[str, list[str]]]:
    out = []
    pos = 0
    for m in _REC_RE.finditer(text):
        if text[pos:m.start()].strip():
            raise ParseError(f"unexpected input at position {pos}: "
                             f"{text[pos:m.start()]!r}")
        kind, body = m.group(1), m.group(2)
        if kind == "X":
            labels = [t.strip() for t in body.split(",")]
            if len(labels) != 4 or not all(labels):
                raise ParseError(f"X record needs four labels: {body!r}")
        else:
            halves = body.split(";")
            if len(halves) != 2:
                raise ParseError(f"W record needs two label pairs: {body!r}")
            labels = []
            for half in halves:
                pair = [t.strip() for t in half.split(",")]
                if len(pair) != 2 or not all(pair):
                    raise ParseError(f"W record needs two label pairs: {body!r}")
                labels.extend(pair)
        out.append((kind, labels))
        pos = m.end()
    if text[pos:].strip():
        raise ParseError(f"unexpected trailing input: {text[pos:]!r}")
    return out


def _build_from_records(records: list[tuple[str, list[str]]], cls) -> PlanarMap:
    builder = MapBuilder()
    slots_by_label: dict[str, list[int]] = {}
    for kind, labels in records:
        if kind == "X":
            hs = [builder.half() for _ in range(4)]
            builder.node(hs)                      # CCW as listed
            builder.mark_over([hs[1], hs[3]])     # under-strand at positions 1, 3
        else:
            w1, w2 = builder.edge(wide=True)
            s = [builder.half() for _ in range(4)]
            # endpoint rotations (w, x1, x2), (w, y1, y2); boundary CCW x1 x2 y1 y2
            builder.node([w1, s[0], s[1]])
            builder.node([w2, s[2], s[3]])
            hs = s
        for lbl, h in zip(labels, hs):
            slots_by_label.setdefault(lbl, []).append(h)
    for lbl, slots in slots_by_label.items():
        if len(slots) != 2:
            raise BadIncidence(f"label {lbl} used {len(slots)} times")
        builder.weld(slots[0], slots[1])
    return builder.finish(cls=cls)


def parse_pd(text: str) -> LinkDiagram:
    records = _parse_records(text)
    for kind, _ in records:
        if kind != "X":
            raise ParseError("link PD input allows only X records")
    return _build_from_records(records, LinkDiagram)


def parse_regraph(text: str) -> REGraphDiagram:
    return _build_from_records(_parse_records(text), REGraphDiagram)


# -- structural operations ------------------------------------------------------------

def link_components(d: PlanarMap) -> int:
    """Closed strands of a crossings-only diagram (plus free loops).

    Strands go straight through every crossing; each undirected strand is
    covered by exactly two orbits of the directed walk.
    """
    n = d.n_half
    seen = [False] * n
    orbits = 0
    for h0 in range(n):
        if seen[h0]:
            continue
        orbits += 1
        h = h0
        while not seen[h]:
            seen[h] = True
            t = d.twin[h]
            h = d.nxt[d.nxt[t]]
    return d.free_loops + orbits // 2


def mirror(d: PlanarMap) -> PlanarMap:
    """Swap over- and under-strands at every crossing."""
    over = set()
    for i, cyc in enumerate(d.nodes()):
        cyc_over = [h for h in cyc if h in d.over]
        if cyc_over:
            over.update(h for h in cyc if h not in d.over)
    return type(d)(d.twin, d.nxt, d.wide, frozenset(over), d.free_loops,
                   check=False)


def disjoint_union(d1: PlanarMap, d2: PlanarMap, cls=None) -> PlanarMap:
    cls = cls or type(d1)
    return disjoint_union_maps(d1, d2, cls=cls)


def connected_sum(d1: PlanarMap, h1: int, d2: PlanarMap, h2: int,
                  cls=None) -> PlanarMap:
    """Cut the standard edges at h1, h2 and join by two parallel arcs."""
    for d, h in ((d1, h1), (d2, h2)):
        if d.wide[h]:
            raise BadEdge("connected sum must cut a standard edge")
    cls = cls or type(d1)
    off = d1.n_half
    g = disjoint_union_maps(d1, d2)
    twin = list(g.twin)
    t1 = twin[h1]
    t2 = twin[h2 + off]
    twin[h1], twin[h2 + off] = h2 + off, h1
    twin[t1], twin[t2] = t2, t1
    return cls(twin, g.nxt, g.wide, g.over, g.free_loops)


def switch_crossing(d: PlanarMap, node: int) -> PlanarMap:
    """Exchange over- and under-strand at a single crossing."""
    cyc = d.nodes()[node]
    if not any(h in d.over for h in cyc):
        raise ValueError("node is not a crossing")
    over = set(d.over)
    for h in cyc:
        if h in over:
            over.discard(h)
        else:
            over.add(h)
    return type(d)(d.twin, d.nxt, d.wide, frozenset(over), d.free_loops,
                   check=False)


def smooth_crossing(d: PlanarMap, node: int, kind: str) -> PlanarMap:
    """Replace one crossing by its A- or B-smoothing."""
    r0, r1, r2, r3 = _crossing_rotation(d, node)
    s = Surgery(d)
    s.kill(node)
    if kind == "A":
        s.pair(r0, r1)
        s.pair(r2, r3)
    elif kind == "B":
        s.pair(r0, r3)
        s.pair(r2, r1)
    else:
        raise ValueError("smoothing kind must be 'A' or 'B'")
    out, _ = s.finish(cls=type(d))
    return out


# -- state enumeration ------------------------------------------------------------------

@dataclass
class StateRecord:
    graph: PlanarTrivalentGraph
    na: int
    nb: int
    choices: tuple[str, ...]


class StateResolver:
    """Precomputed tables for resolving the crossings of one diagram.

    Resolution replaces each crossing by a smoothing (strands re-paired) or
    by the rigid wide gadget, then chases the strands through the smoothed
    crossings to rebuild the map; smoothed-only circles become free loops.
    """

    def __init__(self, d: PlanarMap):
        self.d = d
        self.cnodes = d.crossing_nodes()
        self.rots = [_crossing_rotation(d, n) for n in self.cnodes]
        cross_halves = set()
        for r in self.rots:
            cross_halves.update(r)
        self.survivors = [h for h in range(d.n_half) if h not in cross_halves]
        self.surv_index = {h: i for i, h in enumerate(self.survivors)}
        self.is_cross = [h in cross_halves for h in range(d.n_half)]

    def resolve_arrays(self, choices):
        """Raw (twin, nxt, wide, free_loops, na, nb) arrays for one state."""
        d = self.d
        old_twin = d.twin
        n_surv = len(self.survivors)
        n_w = sum(1 for ch in choices if ch == "W")
        n_new = n_surv + 6 * n_w
        twin = [-1] * n_new
        nxt = [0] * n_new
        wide = [False] * n_new
        # pairing of smoothed slots, and gadget port of wide-resolved slots
        pair: dict[int, int] = {}
        portmap: dict[int, int] = {}
        na = nb = 0
        base = n_surv
        for rot, ch in zip(self.rots, choices):
            r0, r1, r2, r3 = rot
            if ch == "A":
                na += 1
                pair[r0] = r1
                pair[r1] = r0
                pair[r2] = r3
                pair[r3] = r2
            elif ch == "B":
                nb += 1
                pair[r0] = r3
                pair[r3] = r0
                pair[r2] = r1
                pair[r1] = r2
            else:
                w1, w2 = base, base + 1
                p = (base + 2, base + 3, base + 4, base + 5)
                twin[w1], twin[w2] = w2, w1
                wide[w1] = wide[w2] = True
                nxt[w1], nxt[p[0]], nxt[p[1]] = p[0], p[1], w1
                nxt[w2], nxt[p[2]], nxt[p[3]] = p[2], p[3], w2
                for slot, port in zip(rot, p):
                    portmap[slot] = port
                base += 6
        for h in self.survivors:
            nh = self.surv_index[h]
            nxt[nh] = self.surv_index[d.nxt[h]]
            wide[nh] = d.wide[h]

        visited: set[int] = set()

        def chase(entry: int) -> int:
            t = entry
            while True:
                if not self.is_cross[t]:
                    return self.surv_index[t]
                port = portmap.get(t)
                if port is not None:
                    return port
                visited.add(t)
                mate = pair[t]
                visited.add(mate)
                t = old_twin[mate]

        for h in self.survivors:
            nh = self.surv_index[h]
            if twin[nh] == -1:
                other = chase(old_twin[h])
                twin[nh] = other
                twin[other] = nh
        base = n_surv
        for rot, ch in zip(self.rots, choices):
            if ch == "W":
                for slot, port in zip(rot, range(base + 2, base + 6)):
                    if twin[port] == -1:
                        other = chase(old_twin[slot])
                        twin[port] = other
                        twin[other] = port
                base += 6
        loops = d.free_loops
        for s0 in pair:
            if s0 in visited:
                continue
            loops += 1
            t = s0
            while t not in visited:
                visited.add(t)
                mate = pair[t]
                visited.add(mate)
                t = old_twin[mate]
        return twin, nxt, wide, loops, na, nb

    def resolve(self, choices, check: bool = False) -> StateRecord:
        twin, nxt, wide, loops, na, nb = self.resolve_arrays(choices)
        g = PlanarTrivalentGraph(twin, nxt, wide, frozenset(), loops,
                                 check=check)
        return StateRecord(g, na, nb, tuple(choices))


def resolve_state(d: PlanarMap, choices, check: bool = True) -> StateRecord:
    """Resolve every crossing according to choices ('A' | 'B' | 'W' each)."""
    cnodes = d.crossing_nodes()
    if len(choices) != len(cnodes):
        raise ValueError("one choice per crossing required")
    for ch in choices:
        if ch not in "ABW":
            raise ValueError(f"bad resolution choice {ch!r}")
    return StateResolver(d).resolve(choices, check=check)


def states(d: PlanarMap, check: bool = False):
    """All 3^c resolutions of the diagram's crossings."""
    resolver = StateResolver(d)
    c = len(resolver.cnodes)
    for choices in itertools.product("ABW", repeat=c):
        yield resolver.resolve(choices, check=check)


# -- tangles ------------------------------------------------------------------------------

class Tangle:
    """Planar trivalent graph in a rectangle with n endpoints top and bottom."""

    __slots__ = ("g", "top", "bot")

    def __init__(self, g: PlanarMap, top: list[int], bot: list[int]):
        if len(top) != len(bot):
            raise InvalidMap("tangle needs equal numbers of top and bottom endpoints")
        self.g = g
        self.top = list(top)
        self.bot = list(bot)

    @property
    def n(self) -> int:
        return len(self.top)

    def signature(self) -> tuple:
        """Rooted encoding pinned at the boundary, invariant under relabeling."""
        g = self.g
        idx: dict[int, int] = {}
        order: list[int] = []
        for h in self.top + self.bot:
            idx[h] = len(order)
            order.append(h)
        out = []
        i = 0
        while i < len(order):
            h = order[i]
            i += 1
            for nb in (g.twin[h], g.nxt[h]):
                if nb not in idx:
                    idx[nb] = len(order)
                    order.append(nb)
            out.append((idx[g.twin[h]], idx[g.nxt[h]], g.wide[h]))
        return (self.n, g.free_loops, tuple(out))


def identity_tangle(n: int) -> Tangle:
    b = MapBuilder()
    top, bot = [], []
    for _ in range(n):
        h1, h2 = b.edge()
        b.node([h1])
        b.node([h2])
        top.append(h1)
        bot.append(h2)
    return Tangle(b.finish(check=False), top, bot)


def t_tangle(n: int, i: int) -> Tangle:
    """Cup-cap generator on strands (i, i+1), 1-based."""
    b = MapBuilder()
    top: list[int] = [0] * n
    bot: list[int] = [0] * n
    for j in range(1, n + 1):
        if j == i:
            h1, h2 = b.edge()        # top arc: endpoints i, i+1
            h3, h4 = b.edge()        # bottom arc
            for h in (h1, h2, h3, h4):
                b.node([h])
            top[j - 1], top[j] = h1, h2
            bot[j - 1], bot[j] = h3, h4
        elif j != i + 1:
            h1, h2 = b.edge()
            b.node([h1])
            b.node([h2])
            top[j - 1] = h1
            bot[j - 1] = h2
    return Tangle(b.finish(check=False), top, bot)


def c_tangle(n: int, i: int) -> Tangle:
    """Wide-edge generator on strands (i, i+1), 1-based."""
    b = MapBuilder()
    top: list[int] = [0] * n
    bot: list[int] = [0] * n
    w1, w2 = b.edge(wide=True)
    tl, tl2 = b.edge()
    tr, tr2 = b.edge()
    bl, bl2 = b.edge()
    br, br2 = b.edge()
    # upper vertex (w, right, left), lower vertex (w, left, right): CCW
    b.node([w1, tr, tl])
    b.node([w2, bl, br])
    for h in (tl2, tr2, bl2, br2):
        b.node([h])
    top[i - 1], top[i] = tl2, tr2
    bot[i - 1], bot[i] = bl2, br2
    for j in range(1, n + 1):
        if j in (i, i + 1):
            continue
        h1, h2 = b.edge()
        b.node([h1])
        b.node([h2])
        top[j - 1] = h1
        bot[j - 1] = h2
    return Tangle(b.finish(check=False), top, bot)


def stack(upper: Tangle, lower: Tangle) -> Tangle:
    """Concatenate: upper's bottom endpoints welded to lower's top endpoints."""
    if upper.n != lower.n:
        raise InvalidMap("tangle arity mismatch")
    off = upper.g.n_half
    g = disjoint_union_maps(upper.g, lower.g)
    s = Surgery(g)
    for j in range(upper.n):
        hb = upper.bot[j]
        ht = lower.top[j] + off
        s.kill(g.node_of(hb))
        s.kill(g.node_of(ht))
        s.pair(hb, ht)
    out, idmap = s.finish(check=False)
    top = [idmap[h] for h in upper.top]
    bot = [idmap[h + off] for h in lower.bot]
    return Tangle(out, top, bot)


def close_tangle(t: Tangle) -> PlanarTrivalentGraph:
    """Join i-th top to i-th bottom endpoint by nested non-crossing arcs."""
    s = Surgery(t.g)
    for ht, hb in zip(t.top, t.bot):
        s.kill(t.g.node_of(ht))
        s.kill(t.g.node_of(hb))
        s.pair(ht, hb)
    out, _ = s.finish(cls=PlanarTrivalentGraph)
    return out
