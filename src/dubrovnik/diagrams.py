"""Diagram data model: braids, link diagrams, knotted-graph diagrams, tangles.

Input grammars (bit-exact; this docstring is their reference):

* Braids: optional ``n=<digits>;`` prefix, then whitespace-separated
  nonzero integers, each ASCII digits with an optional sign; letter ``i``
  is the positive generator on strands (i, i+1) and ``-i`` its inverse.

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

import re
from dataclasses import dataclass

from .maps import (InvalidMap, MapBuilder, NonPlanar, PlanarMap, Surgery,
                   _orbits, disjoint_union, signature_of_arrays, splice)


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


# a braid letter or strand count: ASCII digits with an optional sign
_INT = r"[+-]?[0-9]+"


def parse_braid(text: str) -> BraidWord:
    """The braid word of `text`; `BraidWord` checks the letters' range."""
    text = text.strip()
    declared = None
    m = re.match(rf"n\s*=\s*({_INT})\s*;", text)
    if m:
        declared = int(m.group(1))
        text = text[m.end():]
    letters = []
    for tok in text.split():
        if not re.fullmatch(_INT, tok):
            raise ParseError(f"bad braid letter {tok!r}")
        letters.append(int(tok))
    if declared is None:
        declared = 1 + max((abs(v) for v in letters), default=0)
    return BraidWord(declared, tuple(letters))


# -- diagram classes -----------------------------------------------------------

def _validate_crossing(g: PlanarMap, cyc: tuple[int, ...]) -> None:
    if len(cyc) != 4:
        raise InvalidMap(f"crossing of degree {len(cyc)}")
    if any(g.wide[h] for h in cyc):
        raise WideEdgeCrossing("crossing incident to a wide edge")
    overs = {i for i, h in enumerate(cyc) if h in g.over}
    if overs not in ({0, 2}, {1, 3}):
        raise InvalidMap("over-strand pair is not rotation-opposite")


def _validate_trivalent_vertex(g: PlanarMap, cyc: tuple[int, ...]) -> None:
    if len(cyc) != 3:
        raise InvalidMap(f"vertex of degree {len(cyc)}")
    wides = [h for h in cyc if g.wide[h]]
    if len(wides) != 1:
        raise InvalidMap("vertex must carry exactly one wide half-edge")
    if g.twin[wides[0]] in cyc:
        raise InvalidMap("wide edge may not be a loop")


class LinkDiagram(PlanarMap):
    """Planar 4-valent crossing diagram of an unoriented link."""

    def validate(self) -> None:
        super().validate()
        for cyc in self.nodes():
            _validate_crossing(self, cyc)


class REGraphDiagram(PlanarMap):
    """Diagram of a knotted rigid-edge trivalent graph: crossings + vertices."""

    def validate(self) -> None:
        super().validate()
        n_vert = 0
        for cyc in self.nodes():
            if any(h in self.over for h in cyc):
                _validate_crossing(self, cyc)
            else:
                _validate_trivalent_vertex(self, cyc)
                n_vert += 1
        if n_vert % 2:
            raise OddVertexCount(f"{n_vert} trivalent vertices")


class PlanarTrivalentGraph(REGraphDiagram):
    """Crossing-free trivalent graph with wide edges: a state."""

    def validate(self) -> None:
        super().validate()
        if self.over:
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
    covered by exactly two orbits of the directed walk h -> nxt[nxt[twin[h]]].
    """
    nxt = d.nxt
    return d.free_loops + len(_orbits([nxt[nxt[t]] for t in d.twin])) // 2


def mirror(d: PlanarMap) -> PlanarMap:
    """Swap over- and under-strands at every crossing."""
    over = d.over.symmetric_difference(
        h for rot in d.crossings() for h in rot)
    return type(d)._build(d.twin, d.nxt, d.wide, over, d.free_loops)


def connected_sum(d1: PlanarMap, h1: int, d2: PlanarMap, h2: int
                  ) -> PlanarMap:
    """Cut the standard edges at h1, h2 and join by two parallel arcs; the
    class is d1's."""
    for d, h in ((d1, h1), (d2, h2)):
        if d.wide[h]:
            raise BadEdge("connected sum must cut a standard edge")
    off = d1.n_half
    g = disjoint_union(d1, d2)
    twin = list(g.twin)
    t1 = twin[h1]
    t2 = twin[h2 + off]
    twin[h1], twin[h2 + off] = h2 + off, h1
    twin[t1], twin[t2] = t2, t1
    return type(d1)(twin, g.nxt, g.wide, g.over, g.free_loops)


def switch_crossing(d: PlanarMap, h: int) -> PlanarMap:
    """Exchange over- and under-strand at the crossing of half-edge h, any
    of its four; a half-edge at no crossing raises ValueError."""
    nxt = d.nxt
    cyc = [h, nxt[h], nxt[nxt[h]], nxt[nxt[nxt[h]]]]
    if d.over.isdisjoint(cyc):
        raise ValueError("half-edge is not at a crossing")
    over = d.over.symmetric_difference(cyc)
    return type(d)._build(d.twin, d.nxt, d.wide, over, d.free_loops)


def smooth_crossing(d: PlanarMap, h: int, kind: str) -> PlanarMap:
    """Replace the crossing of the over half-edge h by its A- or
    B-smoothing.  Its rotation r0 r1 r2 r3 is read from r0 = h; A pairs
    (r0 r1)(r2 r3) and B (r0 r3)(r2 r1), the same pairings from either
    over half-edge.  A half-edge that is not over raises ValueError."""
    if h not in d.over:
        raise ValueError("half-edge is not the over-strand of a crossing")
    r1 = d.nxt[h]
    r2 = d.nxt[r1]
    r3 = d.nxt[r2]
    s = Surgery(d)
    s.kill(h)
    if kind == "A":
        s.pair(h, r1)
        s.pair(r2, r3)
    elif kind == "B":
        s.pair(h, r3)
        s.pair(r2, r1)
    else:
        raise ValueError("smoothing kind must be 'A' or 'B'")
    return s.finish()[0]


# -- state enumeration ------------------------------------------------------------------

class StateResolver:
    """Precomputed tables for resolving the crossings of one diagram.

    Resolution replaces each crossing by a smoothing (strands re-paired) or
    by the rigid wide gadget, then chases the strands through the smoothed
    crossings to rebuild the map; smoothed-only circles become free loops.

    A state numbers the surviving half-edges first, then six per wide
    gadget in crossing order, with a fixed rotation and edge kind.  Its nxt
    and wide, and the twin entries among survivors and inside gadgets,
    therefore depend only on how many crossings became wide edges: they are
    built once per count and shared by every state with that count.  Each
    state copies the twin template and only chases its strands.  No caller
    may write into the arrays it is given.
    """

    def __init__(self, d: PlanarMap):
        self.d = d
        self.rots = d.crossings()
        n = d.n_half
        twin = d.twin
        # crossing index and rotation position of each crossing half-edge
        self.cross_of = [-1] * n
        self.pos_of = [0] * n
        # per smoothing, where a strand entering a crossing at h leaves it
        self.steps = {"A": [-1] * n, "B": [-1] * n}
        for k, rot in enumerate(self.rots):
            r0, r1, r2, r3 = rot
            for j, h in enumerate(rot):
                self.cross_of[h] = k
                self.pos_of[h] = j
            for ch, pairs in (("A", ((r0, r1), (r2, r3))),
                              ("B", ((r0, r3), (r2, r1)))):
                step = self.steps[ch]
                for x, y in pairs:
                    step[x], step[y] = twin[y], twin[x]
        self.survivors = [h for h in range(n) if self.cross_of[h] < 0]
        self.surv_index = [-1] * n
        for i, h in enumerate(self.survivors):
            self.surv_index[h] = i
        # (new index, old half-edge entered) of each survivor whose edge
        # runs into a crossing, and the half-edges entered from each crossing
        self.ends = [(self.surv_index[h], twin[h]) for h in self.survivors
                     if self.cross_of[twin[h]] >= 0]
        self.rot_twins = [[twin[r] for r in rot] for rot in self.rots]
        self.shapes: dict[int, tuple[list, list, list]] = {}

    def shape(self, n_w: int) -> tuple[list, list, list]:
        """(twin template, nxt, wide) of the states with n_w wide gadgets;
        twin is -1 where a strand must be chased."""
        d = self.d
        idx = self.surv_index
        size = len(self.survivors) + 6 * n_w
        twin = [-1] * size
        nxt = [0] * size
        wide = [False] * size
        for h in self.survivors:
            nh = idx[h]
            twin[nh] = idx[d.twin[h]]
            nxt[nh] = idx[d.nxt[h]]
            wide[nh] = d.wide[h]
        for w1 in range(len(self.survivors), size, 6):
            w2, p0, p1, p2, p3 = range(w1 + 1, w1 + 6)
            twin[w1], twin[w2] = w2, w1
            wide[w1] = wide[w2] = True
            nxt[w1], nxt[p0], nxt[p1] = p0, p1, w1
            nxt[w2], nxt[p2], nxt[p3] = p2, p3, w2
        return twin, nxt, wide

    def resolve_arrays(self, choices):
        """Raw (twin, nxt, wide, free_loops, na, nb) arrays for the state
        with `choices` ('A', 'B' or 'W' per crossing, in `rots` order).

        twin is the state's own list; nxt and wide are shared with every
        state of the same wide-edge count.
        """
        n_w = choices.count("W")
        shape = self.shapes.get(n_w)
        if shape is None:
            shape = self.shapes[n_w] = self.shape(n_w)
        template, nxt, wide = shape
        twin = template[:]
        cross_of, pos_of, idx = self.cross_of, self.pos_of, self.surv_index
        # per crossing, its smoothing's step table (None for a wide gadget)
        # and its gadget's first port; the ends whose strands are chased
        how = []
        port0 = []
        ends = self.ends[:]
        p = len(self.survivors) + 2
        for k, ch in enumerate(choices):
            if ch == "W":
                how.append(None)
                port0.append(p)
                ends += zip(range(p, p + 4), self.rot_twins[k])
                p += 6
            else:
                how.append(self.steps[ch])
                port0.append(0)
        seen = [False] * len(cross_of)      # smoothed arcs, by entry half
        walked = 0
        for nh, t in ends:
            if twin[nh] >= 0:
                continue
            while True:
                k = cross_of[t]
                if k < 0:
                    other = idx[t]
                    break
                step = how[k]
                if step is None:
                    other = port0[k] + pos_of[t]
                    break
                seen[t] = True
                walked += 1
                t = step[t]
            twin[nh] = other
            twin[other] = nh
        loops = self.d.free_loops
        smoothed = len(choices) - n_w
        if walked < 2 * smoothed:
            # arcs no strand walked through close up into free loops
            old_twin = self.d.twin
            for rot, step in zip(self.rots, how):
                if step is None:
                    continue
                for x in (rot[0], rot[2]):
                    if seen[x] or seen[old_twin[step[x]]]:
                        continue
                    loops += 1
                    t = x
                    while not seen[t]:
                        seen[t] = True
                        t = how[cross_of[t]][t]
        return twin, nxt, wide, loops, choices.count("A"), choices.count("B")


# -- tangles ------------------------------------------------------------------------------

class Tangle:
    """Planar trivalent graph in a rectangle with n endpoints top and bottom.

    `ends` lists the endpoint half-edges, each alone on its node: the top
    ones left to right, then the bottom ones left to right.  A closed graph
    is a tangle with no endpoints.
    """

    __slots__ = ("g", "ends")

    def __init__(self, g: PlanarMap, ends: list[int]):
        if len(ends) % 2:
            raise InvalidMap("tangle needs equal numbers of top and bottom endpoints")
        self.g = g
        self.ends = list(ends)

    @property
    def n(self) -> int:
        return len(self.ends) // 2

    def signature(self) -> tuple:
        """`maps.signature_of_arrays` rooted at the boundary, invariant
        under relabeling: (free loops, encodings), the walk from `ends` in
        order first, then the closed pieces it does not reach."""
        g = self.g
        return signature_of_arrays(g.twin, g.nxt, g.wide, g.free_loops,
                                   self.ends)


def _generator(n: int, i: int, kind: str | None) -> Tangle:
    """The identity on n strands (kind None), or with strands (i, i+1),
    1-based, replaced by a cup-cap ("t") or by the wide gadget ("c").  The
    gadget's half-edges are numbered first, then the strands and the
    cup-cap's arcs left to right."""
    b = MapBuilder()
    ends = [0] * (2 * n)                  # top left to right, then bottom
    if kind == "c":
        w1, w2 = b.edge(wide=True)
        tl, tr, bl, br = (b.edge() for _ in range(4))
        # upper vertex (w, right, left), lower vertex (w, left, right): CCW
        b.node([w1, tr[0], tl[0]])
        b.node([w2, bl[0], br[0]])
        ends[i - 1], ends[i], ends[n + i - 1], ends[n + i] = \
            tl[1], tr[1], bl[1], br[1]
    for j in range(n):
        if kind == "t" and j == i - 1:
            ends[j], ends[j + 1] = b.edge()            # top arc
            ends[n + j], ends[n + j + 1] = b.edge()    # bottom arc
        elif not kind or not i - 1 <= j <= i:
            ends[j], ends[n + j] = b.edge()
    for h in ends:
        b.node([h])
    return Tangle(PlanarMap._build(*b._arrays()), ends)


def identity_tangle(n: int) -> Tangle:
    return _generator(n, 0, None)


def t_tangle(n: int, i: int) -> Tangle:
    """Cup-cap generator on strands (i, i+1), 1-based."""
    return _generator(n, i, "t")


def c_tangle(n: int, i: int) -> Tangle:
    """Wide-edge generator on strands (i, i+1), 1-based."""
    return _generator(n, i, "c")


def _join_ends(g: PlanarMap, tops: list[int], bots: list[int],
               ends: list[int], cls=PlanarMap) -> Tangle:
    """`splice` of g that joins tops[i] to bots[i] by an arc; the tangle's
    endpoints are then `ends`.  Each joined endpoint must be alone on its
    node and joined once."""
    nxt = g.nxt
    link: dict[int, int] = {}
    for a, b in zip(tops, bots):
        if nxt[a] != a or nxt[b] != b:
            raise InvalidMap("a joined endpoint is not alone on its node")
        link[a] = b
        link[b] = a
    if len(link) != 2 * len(tops):
        raise InvalidMap("an endpoint is joined twice")
    out, new = splice(g.twin, nxt, g.wide, g.over, g.free_loops, link, link,
                      cls)
    return Tangle(out, [new[h] for h in ends])


def stack(upper: Tangle, lower: Tangle) -> Tangle:
    """Concatenate: upper's bottom endpoints joined to lower's top endpoints.

    The disjoint union of the two tangles (lower's half-edges numbered
    after upper's) spliced along those endpoints (`_join_ends`): a strand
    that closes up through the joins alone becomes a free loop, and the
    survivors keep their order.
    """
    n = upper.n
    if n != lower.n:
        raise InvalidMap("tangle arity mismatch")
    off = upper.g.n_half
    low = [h + off for h in lower.ends]
    return _join_ends(disjoint_union(upper.g, lower.g), upper.ends[n:],
                      low[:n], upper.ends[:n] + low[n:])


def close_tangle(t: Tangle) -> PlanarTrivalentGraph:
    """Join i-th top to i-th bottom endpoint by nested non-crossing arcs:
    t spliced along its top and bottom (`_join_ends`)."""
    return _join_ends(t.g, t.ends[:t.n], t.ends[t.n:], [],
                      PlanarTrivalentGraph).g
