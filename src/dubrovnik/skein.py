"""Reduction engine for the graph polynomial on planar trivalent graphs.

The polynomial is pinned down by: value 1 on the unknot, a factor alpha per
extra circle, invariance under rotating a wide edge (H <-> I), the curl
relation (factor beta), the wide-digon relation

    digon = (1-AB) * [through-strands] + gamma * [across-arcs] - (A+B) * [one gadget]

and the six-vertex square relation used here in the form

    [square] = [flipped square] - AB*(c2 - c1 + t2·c1 - t1·c2 + c1·t2 - c2·t1)
                                - delta*(t1 - t2)

written multiplicatively in the wide-edge (c) and cup-cap (t) patterns on
three strands.  Reducible configurations are recognized on faces:

    1-gon                          curl, factor beta
    2-gon (std, wide)              curl around a wide-edge end, factor beta
    2-gon (std, std)               wide digon
    3-gon (std, std, wide)         digon after one wide-edge rotation
    4-gon (std, wide, std, wide)   digon after two rotations

Every one of these removes at least two vertices net, so reduction
terminates.

A piece with no reducible face (away from a tangle's boundary) is first
rewritten by the square relation when flipping one of its six-vertex
squares opens a wide digon, so an alternating c1 c2 c1 c2 ... gadget chain
shortens instead of growing with every letter of a braid sweep.  The
flipped term keeps its size, but its next rule is that digon; the other
eight terms have at least four vertices fewer.  An open tangle with no
such square is reduced.  A closed graph with none (e.g. a dodecahedral
pattern, all faces of length 5) takes one move, a wide-edge rotation or a
square flip, chosen by a breadth-first search as the first move of a
shortest sequence ending in a reducible graph; such a sequence exists for
every connected planar trivalent graph.  The move is applied like any
other rule, and it leaves a graph whose shortest sequence is one move
shorter.

One engine, `reduce_terms`, reduces every input: link states, knotted-graph
states, closed braid tangles and the open tangles of the braid sweep.  A
closed graph is a tangle with no endpoints.  The engine is a worklist, not
a recursion: pending connected pieces wait in levels keyed by half-edge
count and merge by signature, and the largest level is expanded first.
Every rule removes half-edges, so each distinct piece is expanded once with
its whole coefficient.  A closed piece that falls away is valued by a
nested, memoized `evaluate` call.  A closed graph keeps its largest
component, so what falls away from it is at most half its size: nesting
grows with the logarithm of the graph size, not with the number of
reductions.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field

from .maps import (PlanarMap, Surgery, debug_mode, reads_debug_once,
                   signature_of_arrays, splice)
from .diagrams import PlanarTrivalentGraph, Tangle
from .ring import RingElem, constants, sum_of_products

class InternalError(RuntimeError):
    """A self-check failed: an implementation bug, not bad input.

    Raised when the fallback search exhausts its budget or its space, when
    one signature meets two values in the memo, and by the debug-mode
    checks: a signature served from `EvalContext.signatures` that differs
    from its recomputation (which also catches a literal state met with
    two signatures), a link value that depends on more than z = A - B, a
    cached diagram value (checked by `cli.run`) or memoized transition row
    that differs from its recomputation, a square flip whose predicted
    wide digon is not what its built term shows, and a braid twist region
    whose combination leaves the identity, cup-cap and wide gadget.
    """


_PRIORITY = {"lollipop": 0, "curl2": 1, "digon": 2, "triangle": 3, "square4": 4}


def _classify_face(g: PlanarMap, face: tuple[int, ...]) -> str | None:
    n = len(face)
    wides = [h for h in face if g.wide[h]]
    if n == 1:
        return "lollipop"
    if n == 2:
        if len(wides) == 1:
            return "curl2"
        if wides:
            return None
        h1, h2 = face
        v1, v2 = g.node_of(h1), g.node_of(h2)
        # corners joined by a wide edge form a theta component: not a digon
        if g.node_of(g.twin[g.nxt[h1]]) == v2:
            return None
        return "digon"
    if n == 3 and len(wides) == 1:
        nodes = {g.node_of(h) for h in face}
        if len(nodes) == 3:
            return "triangle"
        return None
    if n == 4 and len(wides) == 2:
        i = face.index(wides[0])
        # the two wide halves must be opposite and on distinct edges
        if face[(i + 2) % 4] == wides[1] and g.twin[wides[0]] != wides[1]:
            return "square4"
        return None
    return None


def _reducible_faces(g: PlanarMap, ends=()):
    """(kind, face) of every reducible face that contains none of the
    half-edges `ends` (a tangle's endpoints: the faces at its boundary)."""
    ends = set(ends)
    for face in g.faces():
        if len(face) > 4 or (ends and not ends.isdisjoint(face)):
            continue
        kind = _classify_face(g, face)
        if kind:
            yield kind, face


def reducible_face(g: PlanarMap, ends=(), rng=None
                   ) -> tuple[str, tuple[int, ...]] | None:
    """The reducible face to expand next, as (kind, face), or None.

    Curls (lollipop, curl2) come first, then digon, triangle and square4;
    faces at the boundary `ends` are skipped.  With a `random.Random`, any
    reducible face is drawn instead, for randomized strategies.
    """
    found = _reducible_faces(g, ends)
    if rng is not None:
        found = list(found)
        return rng.choice(found) if found else None
    return min(found, key=lambda kf: _PRIORITY[kf[0]], default=None)


# -- value-preserving moves ---------------------------------------------------

def h_rotate(g: PlanarMap, w: int) -> tuple[PlanarTrivalentGraph, list[int]]:
    """Rotate the wide edge at half-edge w (H-pattern <-> I-pattern).

    The four attached strands keep their cyclic order (x1 x2 y1 y2) around
    the edge; the regrouping moves from (x1,x2 | y1,y2) to (x2,y1 | y2,x1).
    Applying the move twice restores the original graph.
    """
    if not g.wide[w]:
        raise ValueError("h_rotate needs a wide half-edge")
    wt = g.twin[w]
    p, q = g.node_of(w), g.node_of(wt)
    x1 = g.nxt[w]
    x2 = g.nxt[x1]
    y1 = g.nxt[wt]
    y2 = g.nxt[y1]
    s = Surgery(g)
    s.kill(p)
    s.kill(q)
    _new_gadget(s, x2, y1, y2, x1)
    return s.finish()


def apply_lollipop(g: PlanarMap, face: tuple[int, ...]
                   ) -> tuple[PlanarTrivalentGraph, list[int]]:
    """Remove a curl (1-gon, or 2-gon through a wide edge); factor beta."""
    if len(face) == 1:
        h = face[0]
        v = g.node_of(h)
        wv = g.node_wide_slot(v)
        wu = g.twin[wv]
        u = g.node_of(wu)
        p1 = g.nxt[wu]
        p2 = g.nxt[p1]
    else:
        hw = [h for h in face if g.wide[h]][0]
        hs = [h for h in face if not g.wide[h]][0]
        v = g.node_of(hw)
        u = g.node_of(g.twin[hw])
        p1 = g.nxt[hw]          # third slot at v
        p2 = g.nxt[hs]          # third slot at u
    s = Surgery(g)
    s.kill(v)
    s.kill(u)
    s.pair(p1, p2)
    return s.finish()


def _new_gadget(s: Surgery, b1: int, b2: int, b3: int, b4: int) -> None:
    """Fresh wide edge whose ends carry the slots (b1 b2 b3 b4), read CCW
    around it."""
    w1, w2 = s.edge(wide=True)
    s.node([w1, b1, b2])
    s.node([w2, b3, b4])


def _rewrite(g: PlanarMap, nodes, terms) -> list:
    """A local relation that removes `nodes`, as (coefficient, graph, new id
    of each half-edge of g) triples, one per (coefficient, gadget, arcs)
    entry of `terms`: the term joins the four slots of `gadget` by a fresh
    wide edge (`_new_gadget`) unless it is None, and pairs the slots of
    each arc."""
    out = []
    for coeff, gadget, arcs in terms:
        s = Surgery(g)
        for v in nodes:
            s.kill(v)
        if gadget:
            _new_gadget(s, *gadget)
        for x, y in arcs:
            s.pair(x, y)
        out.append((coeff, *s.finish()))
    return out


def _digon_terms(g: PlanarMap, h1: int, h2: int) -> list:
    """Expand the 2-gon (std,std) face (h1, h2) by the wide-digon relation."""
    v1, v2 = g.node_of(h1), g.node_of(h2)
    w1 = g.nxt[h1]
    w2 = g.nxt[h2]
    if not (g.wide[w1] and g.wide[w2]):
        raise ValueError("digon corners must carry outward wide edges")
    p2 = g.node_of(g.twin[w1])
    q2 = g.node_of(g.twin[w2])
    if len({v1, v2, p2, q2}) != 4:
        raise ValueError("degenerate digon")
    a1 = g.nxt[g.twin[w1]]
    a2 = g.nxt[a1]
    b1 = g.nxt[g.twin[w2]]
    b2 = g.nxt[b1]
    AB = RingElem.mono(0, 1, 1)
    A_plus_B = RingElem.mono(0, 1, 0) + RingElem.mono(0, 0, 1)
    return _rewrite(g, (v1, v2, p2, q2), [
        (RingElem.one() - AB, None, [(a2, b1), (a1, b2)]),  # through-strands
        (constants().gamma, None, [(a1, a2), (b1, b2)]),    # across-arcs
        (-A_plus_B, (a1, a2, b1, b2), []),                  # one gadget
    ])


def _compose(m1: list[int], m2: list[int]) -> list[int]:
    return [v if v < 0 else m2[v] for v in m1]


def apply_wide_digon(g: PlanarMap, face: tuple[int, ...]) -> list:
    """Expand a wide digon in any of its rotational guises.

    The 3-gon and 4-gon variants are first straightened by rotating their
    boundary wide edges, which shortens the face without changing the value.
    Returns (coefficient, graph, new id of each half-edge of g) triples.
    """
    kind = _classify_face(g, face)
    if kind == "digon":
        return _digon_terms(g, face[0], face[1])
    if kind in ("triangle", "square4"):
        w = [h for h in face if g.wide[h]][0]
        killed = {g.node_of(w), g.node_of(g.twin[w])}
        anchor = [h for h in face
                  if not g.wide[h] and g.node_of(h) not in killed][0]
        g2, rot_map = h_rotate(g, w)
        new_face = _face_of(g2, rot_map[anchor])
        return [(coeff, piece, _compose(rot_map, m))
                for coeff, piece, m in apply_wide_digon(g2, new_face)]
    raise ValueError(f"not a wide-digon face: {kind}")


def apply_rule(g: PlanarMap, kind: str, face: tuple[int, ...]) -> list:
    """(coefficient, graph, new id of each half-edge of g, -1 where
    dropped) triples rewriting a face: beta times the curl removed for a
    lollipop or curl2, the square relation (`square_move`) for a "square",
    the rotated graph alone for a "rotate" of the wide edge at (w,), else
    the wide-digon expansion."""
    if kind in ("lollipop", "curl2"):
        return [(constants().beta, *apply_lollipop(g, face))]
    if kind == "square":
        return square_move(g, face)
    if kind == "rotate":
        return [(RingElem.one(), *h_rotate(g, face[0]))]
    return apply_wide_digon(g, face)


def _face_of(g: PlanarMap, h: int) -> tuple[int, ...]:
    face = [h]
    cur = g.nxt[g.twin[h]]
    while cur != h:
        face.append(cur)
        cur = g.nxt[g.twin[cur]]
    return tuple(face)


# -- the six-vertex square relation ----------------------------------------------

def _match_square(g: PlanarMap, face: tuple[int, ...]):
    """Locate the six-vertex configuration around a 4-gon with one wide edge.

    Returns the boundary strands (T1,T2,T3,B1,B2,B3) as slots on the removed
    nodes, plus the node set, or None when the face is degenerate.
    """
    if len(face) != 4:
        return None
    wides = [i for i, h in enumerate(face) if g.wide[h]]
    if len(wides) != 1:
        return None
    i = wides[0]
    f1 = face[(i - 1) % 4]     # std edge into the wide edge's near end
    f2 = face[i]               # the wide half on the face
    f3 = face[(i + 1) % 4]
    f4 = face[(i + 2) % 4]
    b, c, d, e = (g.node_of(f1), g.node_of(f2), g.node_of(f3), g.node_of(f4))
    w_b = g.nxt[f1]
    w_e = g.nxt[f4]
    if not (g.wide[w_b] and g.wide[w_e]):
        return None
    a = g.node_of(g.twin[w_b])
    f = g.node_of(g.twin[w_e])
    nodes = (a, b, c, d, e, f)
    if len(set(nodes)) != 6:
        return None
    T3 = g.nxt[f2]
    B3 = g.nxt[f3]
    T2 = g.nxt[g.twin[w_b]]
    T1 = g.nxt[T2]
    B1 = g.nxt[g.twin[w_e]]
    B2 = g.nxt[B1]
    return (T1, T2, T3, B1, B2, B3), nodes


def is_square_face(g: PlanarMap, face: tuple[int, ...]) -> bool:
    return _match_square(g, face) is not None


def square_flip(g: PlanarMap, face: tuple[int, ...]
                ) -> tuple[PlanarTrivalentGraph, list[int]]:
    """The flipped square alone (the c2 c1 c2 stack), with the new id of
    each half-edge of g."""
    m = _match_square(g, face)
    if m is None:
        raise ValueError("face does not match the square configuration")
    (T1, T2, T3, B1, B2, B3), nodes = m
    s = Surgery(g)
    for v in nodes:
        s.kill(v)
    wa1, wa2 = s.edge(wide=True)
    wc1, wc2 = s.edge(wide=True)
    we1, we2 = s.edge(wide=True)
    bl, cr = s.edge()
    dr, el = s.edge()
    br, er = s.edge()
    s.node([T2, wa1, T3])           # top vertex of the upper gadget
    s.node([wa2, bl, br])           # its lower vertex
    s.node([wc1, cr, T1])           # middle gadget
    s.node([wc2, B1, dr])
    s.node([we1, er, el])           # lower gadget
    s.node([we2, B2, B3])
    return s.finish()


def square_move(g: PlanarMap, face: tuple[int, ...]) -> list:
    """Rewrite a six-vertex square by the square relation.

    Returns (coefficient, graph, new id of each half-edge of g) triples;
    the first is the flipped square (`square_flip`).  The flipped term
    keeps the vertex count; the other eight terms drop at least four
    vertices, so only the flipped term can postpone reduction.
    """
    flipped = (RingElem.one(), *square_flip(g, face))
    (T1, T2, T3, B1, B2, B3), nodes = _match_square(g, face)
    delta = constants().delta
    AB = RingElem.mono(0, 1, 1)
    return [flipped] + _rewrite(g, nodes, [
        # - AB (c2 - c1 + t2 c1 - t1 c2 + c1 t2 - c2 t1)
        (-AB, (T3, T2, B2, B3), [(T1, B1)]),              # c2
        (AB, (T2, T1, B1, B2), [(T3, B3)]),               # c1
        (-AB, (B3, T1, B1, B2), [(T2, T3)]),              # t2 c1
        (AB, (T3, B1, B2, B3), [(T1, T2)]),               # t1 c2
        (-AB, (T2, T1, B1, T3), [(B2, B3)]),              # c1 t2
        (AB, (T3, T2, T1, B3), [(B1, B2)]),               # c2 t1
        # - delta (t1 - t2)
        (-delta, None, [(T1, T2), (B1, B2), (T3, B3)]),   # t1
        (delta, None, [(T2, T3), (B2, B3), (T1, B1)]),    # t2
    ])


def _opens_digon(g: PlanarMap, strands, nodes) -> bool:
    """Whether flipping the square with boundary strands `strands` on the
    six `nodes` closes a wide digon, read off g without building the flip:
    the flipped stack's new top gadget (on T2, T3) or bottom gadget (on B3,
    B2) meets a gadget of g, off the six nodes, on the same two strands."""
    T1, T2, T3, B1, B2, B3 = strands
    twin, nxt, wide = g.twin, g.nxt, g.wide
    for x, y in ((T2, T3), (B3, B2)):
        hx, hy = twin[x], twin[y]
        if nxt[hx] == hy and wide[nxt[hy]] and g.node_of(hx) not in nodes:
            return True
    return False


def _digon_square(g: PlanarMap, rng=None) -> tuple[int, ...] | None:
    """A six-vertex square whose flip opens a wide digon (`_opens_digon`),
    or None.  The first one found is taken; with a `random.Random`, one of
    them is drawn.

    Each square face has exactly one wide half-edge, so the faces are
    walked from the wide half-edges only.  A square face, like a digon,
    has a trivalent node at every corner, so neither ever meets a
    tangle's endpoints.  Debug mode builds every candidate's flip and
    checks the prediction against its faces.
    """
    twin, nxt, wide = g.twin, g.nxt, g.wide
    found = []
    for w in range(len(wide)):
        if not wide[w]:
            continue
        f3 = nxt[twin[w]]
        f4 = nxt[twin[f3]]
        f1 = nxt[twin[f4]]
        if nxt[twin[f1]] != w:
            continue
        face = (f1, w, f3, f4)
        m = _match_square(g, face)
        if m is None:
            continue
        opens = _opens_digon(g, *m)
        debug = debug_mode()
        if debug and opens != any(kind == "digon" for kind, _ in
                                  _reducible_faces(square_flip(g, face)[0])):
            raise InternalError("a square flip's predicted digon differs "
                                "from its faces")
        if opens:
            found.append(face)
            if rng is None and not debug:
                break
    if not found:
        return None
    return found[0] if rng is None else rng.choice(found)


# -- fallback search ------------------------------------------------------------

def _search_moves(g: PlanarMap):
    """Candidate moves: every wide-edge rotation and square flip."""
    for w in range(g.n_half):
        if g.wide[w] and w < g.twin[w]:
            yield ("rotate", (w,))
    for face in g.faces():
        if is_square_face(g, face):
            yield ("square", face)


# Graphs the move search may queue before it gives up.
SEARCH_BUDGET = 50000


def alternating_walk_reduce(g: PlanarTrivalentGraph, rng=None
                            ) -> tuple[str, tuple[int, ...]] | None:
    """The first move, as (kind, face), of a shortest script of wide-edge
    rotations ("rotate", (w,)) and square flips ("square", face) that
    turns g into a graph with a reducible face; None when g has one.

    Breadth-first search, with graphs deduplicated by canonical signature.
    Alternating strands switch sides at every wide edge, which forces a
    region bounded by at most two strands; clearing it with these moves
    always succeeds, so the search terminates (`SEARCH_BUDGET` is an
    implementation-bug guard, not a mathematical limit).  The script is a
    shortest one whatever order a `random.Random` `rng` shuffles the moves
    into, so applying its first move leaves a graph whose shortest script
    is one move shorter.  The search keeps its own set of signatures
    (`signature_of_arrays`) and writes nothing into a context's table.
    """
    if reducible_face(g) is not None:
        return None
    seen = {signature_of_arrays(g.twin, g.nxt, g.wide, g.free_loops)}
    frontier = deque([(g, None)])
    explored = 0
    while frontier:
        cur, first = frontier.popleft()
        moves = list(_search_moves(cur))
        if rng is not None:
            rng.shuffle(moves)
        for move in moves:
            kind, face = move
            if kind == "rotate":
                nxt_g, _ = h_rotate(cur, face[0])
            else:
                nxt_g, _ = square_flip(cur, face)
            sig = signature_of_arrays(nxt_g.twin, nxt_g.nxt, nxt_g.wide,
                                      nxt_g.free_loops)
            if sig in seen:
                continue
            seen.add(sig)
            if reducible_face(nxt_g) is not None:
                return first or move
            frontier.append((nxt_g, first or move))
            explored += 1
            if explored > SEARCH_BUDGET:
                raise InternalError("fallback search budget exhausted")
    raise InternalError("fallback search space exhausted without a reducible graph")


# -- evaluation ------------------------------------------------------------------

@dataclass
class EvalContext:
    """Memo table, strategy knobs and counters of one evaluation run.

    `memo` maps the canonical signature of each graph valued alone -- one
    handed to `evaluate` by a caller, or a closed piece that fell away
    during a reduction -- to its value; the pieces inside one reduction are
    not memoized, they merge by signature instead.  Whole-diagram values
    are not kept here: `cli.run` keeps and serves them.  `rows` maps
    (tangle signature, generator maker, index) to a reduced transition row
    of `invariants.bracket`, shared by every `bracket` call in the context
    (not kept while `rng` is set; debug mode recomputes a row found there
    and compares).  `signatures` maps literal (twin, nxt, wide) arrays to
    their component encodings, so that `signature` signs each literal
    array once per context: the state sum's distinct states, every closed
    piece of the engine (the graph of each move applied included) and the
    graphs valued by `evaluate`.  The move search's candidates are signed
    outside it, so a search adds only what the engine keeps.  A signature
    does not depend on the strategy, so the table is kept under `rng` too;
    debug mode recomputes a signature found there and compares.  In
    `stats`:

    * "components" counts the closed connected pieces the engine expanded
      (each distinct piece of one reduction once, and each move of the
      move search applied to a piece as one more expansion; open
      transition rows are not counted);
    * "memo_hits" the `evaluate` calls answered from `memo`;
    * "state_hits" the states whose value came from the cache, counted by
      `cli.run` (all 3^c of a diagram served from there);
    * "distinct_states" the distinct states (up to isomorphism, free loops
      counted) that state sums handed to the engine, summed over their
      calls.
    """

    memo: dict = field(default_factory=dict)
    rng: object = None              # random.Random for randomized strategies
    trace: list | None = None       # reduction trace (rule, face) entries
    rows: dict = field(default_factory=dict)
    signatures: dict = field(default_factory=dict)
    stats: dict = field(default_factory=lambda: {
        "components": 0, "memo_hits": 0, "state_hits": 0,
        "distinct_states": 0})

    def record(self, rule: str, face) -> None:
        """Append {"rule", "face"} to `trace`: the half-edges of the face
        rewritten (a square's for "square"), or for "rotate" the one
        half-edge of the wide edge rotated."""
        if self.trace is not None:
            self.trace.append({"rule": rule, "face": list(face)})

    def signature(self, twin: list[int], nxt: list[int], wide: list[bool],
                  free_loops: int = 0) -> tuple:
        """`maps.signature_of_arrays` of the arrays, computed once per
        literal (twin, nxt, wide) in this context and then served from
        `signatures`; debug mode recomputes a served signature and raises
        InternalError when the two differ."""
        key = (tuple(twin), tuple(nxt), tuple(wide))
        encs = self.signatures.get(key)
        if encs is None:
            encs = self.signatures[key] = signature_of_arrays(
                twin, nxt, wide, 0)[1]
        elif (debug_mode()
              and signature_of_arrays(twin, nxt, wide, 0)[1] != encs):
            raise InternalError("a signature in the context's table differs "
                                "from its recomputation")
        return (free_loops, encs)


def store_memo(ctx: EvalContext, sig, value: RingElem) -> None:
    prev = ctx.memo.get(sig)
    if prev is not None and prev != value:
        raise InternalError("memo collision: two values for one signature")
    ctx.memo[sig] = value


def _split(t: Tangle, ctx: EvalContext
           ) -> tuple[RingElem | None, Tangle | None]:
    """What fell away from t, as a factor.

    A tangle keeps the components that touch its endpoints, and a closed
    graph its largest component.  Every free loop and every other component
    contributes alpha times its value, the value from a nested `evaluate`.
    Returns (factor, kept tangle): the factor is None when it is 1, and the
    kept tangle None when no component is left.
    """
    g = t.g
    loops = g.free_loops
    comps = g.components()
    if t.ends:
        ends = set(t.ends)
        rest = [comp for comp in comps if ends.isdisjoint(comp)]
    elif comps:
        rest = sorted(comps, key=len)[:-1]
    else:
        return (constants().alpha ** (loops - 1) if loops > 1 else None), None
    if not rest and not loops:
        return None, t
    factor = constants().alpha ** (len(rest) + loops)

    def without(drop):                  # the map left, without free loops
        return splice(g.twin, g.nxt, g.wide, (), 0, drop, {}, type(g))

    every = set(range(g.n_half))
    for comp in rest:
        factor = factor * evaluate(without(every.difference(comp))[0], ctx)
    kept, new = without({h for comp in rest for h in comp})
    return factor, Tangle(kept, [new[h] for h in t.ends])


@reads_debug_once
def reduce_terms(terms, ctx: EvalContext) -> tuple[RingElem, list]:
    """Reduce a combination of (coefficient, Tangle) terms.

    Returns (value, reduced): `value` sums what reduced to scalars -- all
    of it when every tangle is closed -- and `reduced` holds (coefficient,
    signature, tangle) triples of distinct open tangles with no reducible
    face away from their boundary.

    The engine signs every term itself.  A closed term whose literal
    arrays the caller has signed already through `EvalContext.signature`
    (as the state sum does its states) is served from the context's table,
    not signed again.

    Each kept piece waits in a level keyed by its half-edge count, merged
    by signature: `EvalContext.signature` for a closed graph,
    `Tangle.signature` for an open tangle, both (free loops, encodings)
    from `maps.signature_of_arrays`.  Every piece is signed first, and one
    rule reads the key: a piece with one encoding (a connected closed
    graph, or a tangle whose boundary walk reaches every half-edge) folds
    its free loops into its coefficient as alpha^loops and waits under the
    key without them; any other is split (`_split`).  Most pieces drop
    nothing.

    A level holds factor pairs (the parent's coefficient, the rule's
    coefficient times what fell away), and a piece's coefficient is formed
    by one `ring.sum_of_products` only when the piece is expanded; `value`
    is one more.  The largest level is expanded first.  A piece's
    reducible face (`reducible_face`) is rewritten by its rule.  A piece
    with none takes one branch: it is rewritten by the square relation when
    a square flip opens a wide digon (`_digon_square`); otherwise an open
    tangle is emitted as reduced, and a closed piece takes the first move
    that `alternating_walk_reduce` finds, a rotation or a square relation,
    as its rule.  Every other rule removes half-edges, so all paths into a
    piece have added their coefficients by the time its level is expanded.
    A flipped or rotated term keeps its size and re-enters a level of its
    own size, which is expanded next.  A flipped term has a digon, so it is
    rewritten there and never emitted, and no signature is emitted twice; a
    moved closed term is one move nearer a reducible face.
    """
    one = RingElem.one()
    scalars: list[tuple[RingElem, RingElem]] = []
    levels: dict[int, dict] = {}

    def wait(x: RingElem, y: RingElem, t: Tangle, key) -> None:
        level = levels.setdefault(t.g.n_half, {})
        level.setdefault(key, ([], t))[0].append((x, y))

    def sign(t: Tangle) -> tuple:
        if t.ends:
            return t.signature()
        g = t.g
        return ctx.signature(g.twin, g.nxt, g.wide, g.free_loops)

    def put(x: RingElem, y: RingElem, t: Tangle) -> None:
        key = sign(t)
        if len(key[1]) == 1:
            if key[0]:
                g = t.g
                y = y * constants().alpha ** key[0]
                t = Tangle(type(g)._build(g.twin, g.nxt, g.wide, g.over, 0),
                           t.ends)
                key = (0, key[1])
        else:
            f, t = _split(t, ctx)
            if f is not None:
                y = y * f
            if t is None:
                scalars.append((x, y))
                return
            key = sign(t)
        wait(x, y, t, key)

    for c, t in terms:
        put(c, one, t)
    reduced = []
    while levels:
        for key, (cs, t) in levels.pop(max(levels)).items():
            c = sum_of_products(cs)
            if c.is_zero():
                continue
            g = t.g
            found = reducible_face(g, t.ends, ctx.rng)
            if found is None:
                face = _digon_square(g, ctx.rng)
                if face is not None:
                    found = ("square", face)
                elif t.ends:
                    reduced.append((c, key, t))
                    continue
                else:
                    found = alternating_walk_reduce(g, ctx.rng)
            if not t.ends:
                ctx.stats["components"] += 1
            kind, face = found
            ctx.record(kind, face)
            for coeff, g2, idmap in apply_rule(g, kind, face):
                put(c, coeff, Tangle(g2, [idmap[h] for h in t.ends]))
    return sum_of_products(scalars), reduced


@reads_debug_once
def evaluate(g, ctx: EvalContext | None = None) -> RingElem:
    """Graph polynomial of a planar trivalent graph (1 on the unknot).

    Given one graph, the value is looked up in `ctx.memo` under the
    canonical signature (from `ctx.signature`), or reduced by
    `reduce_terms` and memoized.  Given a list of (coefficient, graph)
    terms, returns the sum of coefficient times value, all terms reduced
    together in one run of the engine, so pieces they share are expanded
    once; the sum is not memoized.  With no context a fresh one is used.
    A single map with a crossing or a node of degree other than 3 raises
    ValueError.
    """
    ctx = ctx or EvalContext()
    if not isinstance(g, PlanarMap):
        return reduce_terms([(c, Tangle(x, [])) for c, x in g], ctx)[0]
    nxt = g.nxt
    if g.over or any(nxt[h] == h or nxt[nxt[nxt[h]]] != h
                     for h in range(len(nxt))):
        raise ValueError("evaluate takes a crossingless trivalent graph; "
                         "value a diagram with invariants.kauffman_state_sum")
    sig = ctx.signature(g.twin, nxt, g.wide, g.free_loops)
    hit = ctx.memo.get(sig)
    if hit is not None:
        ctx.stats["memo_hits"] += 1
        return hit
    value = reduce_terms([(RingElem.one(), Tangle(g, []))], ctx)[0]
    store_memo(ctx, sig, value)
    return value
