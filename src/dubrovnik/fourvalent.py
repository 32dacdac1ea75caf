"""Independent evaluation path through planar 4-valent graphs.

Contracting every wide edge of a trivalent state (identifying its two
endpoints) yields a planar 4-valent graph, and the graph polynomial can be
computed there directly from the graphical-calculus relations:

    circle                      -> 1, extra circles -> alpha each
    curl at a vertex            -> beta * (strand through the other ends)
    digon between two vertices  -> (1-AB)[through] + gamma[across] - (A+B)[vertex]
    triangle                    -> flipped triangle + AB- and delta-terms

The pattern matchers and rewrites here are written independently of the
trivalent engine (sharing only the coefficient ring and the map substrate),
so agreement of the two paths is a genuine cross-check.  Diagrams get a
third route: resolve each crossing into the two smoothings plus a rigid
4-valent vertex, contract each wide edge of a knotted graph the same way,
and sum the weighted evaluations (Kauffman-Vogel's rigid-vertex calculus).
"""

from __future__ import annotations

import itertools
from collections import deque
from dataclasses import dataclass, field

from .diagrams import PlanarTrivalentGraph
from .maps import (InvalidMap, PlanarMap, Surgery, canonical_signature,
                   splice)
from .ring import RingElem, constants


class Planar4Graph(PlanarMap):
    """Planar graph with ordinary (non-rigid is fine: planar) 4-valent vertices."""

    def validate(self) -> None:
        super().validate()
        if self.over:
            raise InvalidMap("4-valent graphs carry no crossing data")
        if any(self.wide):
            raise InvalidMap("4-valent graphs have standard edges only")
        for cyc in self.nodes():
            if len(cyc) != 4:
                raise InvalidMap(f"vertex of degree {len(cyc)}")


class OracleError(RuntimeError):
    """The oracle's reduction search exhausted its budget."""


def collapse(g: PlanarTrivalentGraph) -> Planar4Graph:
    """Contract every wide edge to a single 4-valent vertex.

    The four standard strands keep the cyclic order they have around the
    wide edge, which is exactly the rigid structure of the state model.
    """
    std = [h for h in range(g.n_half) if not g.wide[h]]
    idmap = {h: i for i, h in enumerate(std)}
    twin = [idmap[g.twin[h]] for h in std]
    nxt = [0] * len(std)
    for w in range(g.n_half):
        if not g.wide[w] or w > g.twin[w]:
            continue
        tw = g.twin[w]
        x1 = g.nxt[w]
        x2 = g.nxt[x1]
        y1 = g.nxt[tw]
        y2 = g.nxt[y1]
        cyc = [idmap[x1], idmap[x2], idmap[y1], idmap[y2]]
        for i, h in enumerate(cyc):
            nxt[h] = cyc[(i + 1) % 4]
    return Planar4Graph(twin, nxt, [False] * len(std), frozenset(),
                        g.free_loops)


# -- local patterns -----------------------------------------------------------------

def _vertex4(g: PlanarMap, h: int) -> int:
    """The least half-edge of h's 4-valent vertex, which names it."""
    nxt = g.nxt
    return min(h, nxt[h], nxt[nxt[h]], nxt[nxt[nxt[h]]])


def _face_kind4(g: PlanarMap, face: tuple[int, ...]) -> str | None:
    if len(face) == 1:
        return "curl"
    if len(face) == 2:
        if _vertex4(g, face[0]) != _vertex4(g, face[1]):
            return "digon"
        return None
    if len(face) == 3:
        if len({_vertex4(g, h) for h in face}) == 3:
            return "triangle"
        return None
    return None


def _configs4(g: PlanarMap) -> list[tuple[str, tuple[int, ...]]]:
    prio = {"curl": 0, "digon": 1}
    out = []
    for face in g.faces():
        kind = _face_kind4(g, face)
        if kind in prio:
            out.append((kind, face))
    out.sort(key=lambda kf: (prio[kf[0]], kf[1]))
    return out


def _apply_curl4(g: PlanarMap, face: tuple[int, ...]) -> PlanarMap:
    h = face[0]
    s1 = g.nxt[h]
    s2 = g.nxt[s1]
    s = Surgery(g)
    s.kill(h)
    s.pair(s1, s2)
    out, _ = s.finish(cls=Planar4Graph)
    return out


def _terms4(g: PlanarMap, nodes, terms) -> list:
    """(coefficient, graph) per (coefficient, vertex, arcs) entry of
    `terms`, each with the vertices of the half-edges `nodes` removed: a
    fresh rigid vertex whose strands read `vertex` CCW, unless that is
    None, and the slots of each arc paired."""
    out = []
    for coeff, vertex, arcs in terms:
        s = Surgery(g)
        for v in nodes:
            s.kill(v)
        if vertex:
            s.node(vertex)
        for x, y in arcs:
            s.pair(x, y)
        out.append((coeff, s.finish(cls=Planar4Graph)[0]))
    return out


def _apply_digon4(g: PlanarMap, face: tuple[int, ...]) -> list:
    h1, h2 = face
    a1 = g.nxt[h1]
    a2 = g.nxt[a1]
    b1 = g.nxt[h2]
    b2 = g.nxt[b1]
    AB = RingElem.mono(0, 1, 1)
    A_plus_B = RingElem.mono(0, 1, 0) + RingElem.mono(0, 0, 1)
    return _terms4(g, face, [
        (RingElem.one() - AB, None, [(a2, b1), (a1, b2)]),
        (constants().gamma, None, [(a1, a2), (b1, b2)]),
        (-A_plus_B, (a1, a2, b1, b2), []),
    ])


def _match_triangle4(g: PlanarMap, face: tuple[int, ...]):
    if _face_kind4(g, face) != "triangle":
        return None
    g1, g2, g3 = face
    T2 = g.nxt[g1]
    T1 = g.nxt[T2]
    B3 = g.nxt[g2]
    T3 = g.nxt[B3]
    B1 = g.nxt[g3]
    B2 = g.nxt[B1]
    return (T1, T2, T3, B1, B2, B3), face


def triangle_flip4(g: PlanarMap, face: tuple[int, ...]) -> list:
    """Expand a triangle; the first term is the flipped triangle."""
    m = _match_triangle4(g, face)
    if m is None:
        raise ValueError("face does not match the triangle configuration")
    (T1, T2, T3, B1, B2, B3), nodes = m
    delta = constants().delta
    AB = RingElem.mono(0, 1, 1)
    # flipped stack: internal strands bl-cr, dr-el, br-er
    s = Surgery(g)
    for v in nodes:
        s.kill(v)
    bl, cr = s.edge()
    dr, el = s.edge()
    br, er = s.edge()
    s.node([T2, bl, br, T3])
    s.node([cr, T1, B1, dr])
    s.node([er, el, B2, B3])
    flipped = (RingElem.one(), s.finish(cls=Planar4Graph)[0])
    return [flipped] + _terms4(g, nodes, [
        (-AB, (T3, T2, B2, B3), [(T1, B1)]),
        (AB, (T2, T1, B1, B2), [(T3, B3)]),
        (-AB, (B3, T1, B1, B2), [(T2, T3)]),
        (AB, (T3, B1, B2, B3), [(T1, T2)]),
        (-AB, (T2, T1, B1, T3), [(B2, B3)]),
        (AB, (T3, T2, T1, B3), [(B1, B2)]),
        (-delta, None, [(T1, T2), (B1, B2), (T3, B3)]),
        (delta, None, [(T2, T3), (B2, B3), (T1, B1)]),
    ])


# Graphs the oracle's search may queue before it gives up.
_SEARCH_BUDGET4 = 50000


def _search_to_reducible4(g: PlanarMap) -> list:
    """Triangle-flip script ending in a graph with a curl or digon."""
    if _configs4(g):
        return []
    seen = {canonical_signature(g)}
    frontier = deque([(g, [])])
    explored = 0
    while frontier:
        cur, path = frontier.popleft()
        for face in cur.faces():
            if _match_triangle4(cur, face) is None:
                continue
            nxt_g = triangle_flip4(cur, face)[0][1]
            sig = canonical_signature(nxt_g)
            if sig in seen:
                continue
            seen.add(sig)
            new_path = path + [(cur, face, nxt_g)]
            if _configs4(nxt_g):
                return new_path
            frontier.append((nxt_g, new_path))
            explored += 1
            if explored > _SEARCH_BUDGET4:
                raise OracleError("oracle search budget exhausted")
    raise OracleError("oracle search space exhausted")


# -- evaluation -------------------------------------------------------------------------

@dataclass
class OracleContext:
    memo: dict = field(default_factory=dict)
    rng: object = None              # random.Random for randomized rule order


_ORACLE_CTX = OracleContext()


def evaluate4(g: PlanarMap, ctx: OracleContext | None = None) -> RingElem:
    """Graph polynomial of a planar 4-valent graph (1 on the unknot)."""
    ctx = ctx or _ORACLE_CTX
    alpha = constants().alpha
    comps = g.components()
    pieces = len(comps) + g.free_loops
    if pieces == 0:
        return RingElem.one()
    value = alpha ** (pieces - 1)
    every = set(range(g.n_half))
    for comp in comps:
        piece = splice(g.twin, g.nxt, g.wide, (), 0, every.difference(comp),
                       {}, Planar4Graph)[0]
        value = value * _eval_component4(piece, ctx)
    return value


def _eval_component4(g: Planar4Graph, ctx: OracleContext) -> RingElem:
    sig = canonical_signature(g)
    hit = ctx.memo.get(sig)
    if hit is not None:
        return hit
    cfgs = _configs4(g)
    if cfgs and ctx.rng is not None:
        cfgs = [cfgs[ctx.rng.randrange(len(cfgs))]]
    if not cfgs:
        value = RingElem.zero()
        cur = g
        for before, face, after in _search_to_reducible4(g):
            for coeff, piece in triangle_flip4(cur, face)[1:]:
                value = value + coeff * evaluate4(piece, ctx)
            cur = after
        value = value + evaluate4(cur, ctx)
    else:
        kind, face = cfgs[0]
        if kind == "curl":
            value = constants().beta * evaluate4(_apply_curl4(g, face), ctx)
        else:
            value = RingElem.zero()
            for coeff, piece in _apply_digon4(g, face):
                value = value + coeff * evaluate4(piece, ctx)
    prev = ctx.memo.get(sig)
    if prev is not None and prev != value:
        raise OracleError("oracle memo collision")
    ctx.memo[sig] = value
    return value


def kauffman_via_4valent(d: PlanarMap, ctx: OracleContext | None = None) -> RingElem:
    """State sum with a rigid 4-valent vertex as the third resolution; the
    diagram's wide edges are contracted to rigid vertices in every state."""
    ctx = ctx or _ORACLE_CTX
    rots = d.crossings()
    wides = [w for w in range(d.n_half) if d.wide[w] and w < d.twin[w]]
    total = RingElem.zero()
    for choices in itertools.product("ABW", repeat=len(rots)):
        s = Surgery(d)
        for w in wides:
            # the diagram's own wide edges contract as in `collapse`
            x1, y1 = d.nxt[w], d.nxt[d.twin[w]]
            s.kill(w)
            s.kill(d.twin[w])
            s.node([x1, d.nxt[x1], y1, d.nxt[y1]])
        na = nb = 0
        for (r0, r1, r2, r3), ch in zip(rots, choices):
            s.kill(r0)
            if ch == "A":
                na += 1
                s.pair(r0, r1)
                s.pair(r2, r3)
            elif ch == "B":
                nb += 1
                s.pair(r0, r3)
                s.pair(r2, r1)
            else:
                s.node([r0, r1, r2, r3])
        g, _ = s.finish(cls=Planar4Graph)
        total = total + RingElem.mono(0, na, nb) * evaluate4(g, ctx)
    return total
