"""Reduction engine for the graph polynomial on planar trivalent graphs.

The polynomial is pinned down by: value 1 on the unknot, a factor alpha per
extra circle, invariance under rotating a wide edge (H <-> I), the curl
relation (factor beta), the wide-digon relation

    digon = (1-AB) * [through-strands] + gamma * [across-arcs] - (A+B) * [one gadget]

and the six-vertex square relation used here in the form

    [square] = [flipped square] - AB*(c2 - c1 + t2·c1 - t1·c2 + c1·t2 - c2·t1)
                                - delta*(t1 - t2)

written multiplicatively in the wide-edge (c) and cup-cap (t) patterns on
three strands.  A wide edge is a rigid 4-valent vertex, its four strands
read counterclockwise (`_strands`).  Every relation names the rigid
vertices it removes, each by one of its wide half-edges, and joins their
loose strands by arcs and fresh rigid vertices (`_rewrite`; the flipped
square, `square_flip`, builds its own three), however each removed vertex
is rotated.  Reducible configurations are recognized on
faces:

    face                           rule                       removes
    1-gon                          curl, factor beta          one vertex
    2-gon (std, wide)              curl, factor beta          one vertex
    2-gon (std, std)               wide digon, "digon"        two vertices
    3-gon (std, std, wide)         wide digon, "triangle"     two vertices
    4-gon (std, wide, std, wide)   wide digon, "square4"      two vertices

A curl is a face whose one standard half-edge joins two strands of one
rigid vertex.  A wide digon is a face with two standard half-edges on two
distinct rigid vertices; none, one or both of their wide edges lie on the
face, and `apply_wide_digon` rewrites all three faces in one step, with no
rotation.  Each of these removes at least one rigid vertex net (the wide
digon's gadget term puts one back), so reduction terminates.  The square
relation removes three rigid vertices, the six trivalent vertices around
a 4-gon with one wide half-edge (`_match_square`).

A piece with no reducible face (away from a tangle's boundary) is first
rewritten by the square relation when flipping one of its six-vertex
squares opens a wide digon, so an alternating c1 c2 c1 c2 ... gadget chain
shortens instead of growing with every letter of a braid sweep.  The
flipped term keeps its size, but its next rule is that digon; the other
eight terms have at least four vertices fewer.  A reducible face or such a
square is the engine's local rule (`_local_rule`).  An open tangle with
none is reduced.  A closed graph with none (e.g. a dodecahedral pattern,
all faces of length 5) takes a script: a breadth-first search finds a
shortest sequence of wide-edge rotations and square flips that reaches a
graph with a local rule (such a sequence exists for every connected planar
trivalent graph), and the engine applies the whole script in one
expansion, each move by its rule and then the local rule it reaches.

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
    crossingless graph's value that the mirror substitution moves, a
    cached diagram value (checked by `cli.run`) or memoized transition row
    that differs from its recomputation, a square flip whose predicted
    wide digon is not what its built term shows, and a braid twist region
    whose combination leaves the identity, cup-cap and wide gadget.
    """


_PRIORITY = {"lollipop": 0, "curl2": 1, "digon": 2, "triangle": 3, "square4": 4}


def _wide_at(g: PlanarMap, e: int) -> int:
    """The wide half-edge at the node of the standard half-edge e: with its
    twin, the rigid vertex that e is a strand of."""
    nxt = g.nxt
    return nxt[e] if g.wide[nxt[e]] else nxt[nxt[e]]


def _strands(g: PlanarMap, w: int) -> list[int]:
    """The four strands of the rigid vertex (wide edge) at half-edge w,
    read counterclockwise around it."""
    nxt, tw = g.nxt, g.twin[w]
    return [nxt[w], nxt[nxt[w]], nxt[tw], nxt[nxt[tw]]]


def _classify_face(g: PlanarMap, face: tuple[int, ...]) -> str | None:
    """A face with one standard half-edge is a curl; one with two, on two
    distinct wide edges, is a wide digon, named by its length.  (Two wide
    halves are never consecutive on a face, so no other face has one or
    two standard half-edges.)"""
    std = [h for h in face if not g.wide[h]]
    if len(std) == 1:
        return "lollipop" if len(face) == 1 else "curl2"
    if len(std) == 2:
        w1, w2 = (_wide_at(g, e) for e in std)
        if w2 != w1 and w2 != g.twin[w1]:
            return ("digon", "triangle", "square4")[len(face) - 2]
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
    x1, x2, y1, y2 = _strands(g, w)
    return _rewrite(g, [w], [(None, (x2, y1, y2, x1), [])])[0][1:]


def apply_lollipop(g: PlanarMap, face: tuple[int, ...]
                   ) -> tuple[PlanarTrivalentGraph, list[int]]:
    """Remove a curl (a "lollipop" or "curl2" face); factor beta.

    The face's standard half-edge and its twin are two strands of one rigid
    vertex, whether the face is a 1-gon or a 2-gon: the vertex is removed
    and its other two strands are joined.  Any other face raises ValueError.
    """
    kind = _classify_face(g, face)
    if kind not in ("lollipop", "curl2"):
        raise ValueError(f"not a curl face: {kind}")
    e = next(h for h in face if not g.wide[h])
    w = _wide_at(g, e)
    arc = [x for x in _strands(g, w) if x != e and x != g.twin[e]]
    return _rewrite(g, [w], [(None, None, [arc])])[0][1:]


def _rewrite(g: PlanarMap, vertices, terms) -> list:
    """A local relation that removes the rigid vertices at the wide
    half-edges `vertices`, as (coefficient, graph, new id of each half-edge
    of g) triples, one per (coefficient, gadget, arcs) entry of `terms`:
    the term joins the four strands of `gadget`, read CCW, by a fresh rigid
    vertex unless it is None, and pairs the strands of each arc."""
    nodes = [g.node_of(h) for w in vertices for h in (w, g.twin[w])]
    out = []
    for coeff, gadget, arcs in terms:
        s = Surgery(g)
        for v in nodes:
            s.kill(v)
        if gadget:
            b1, b2, b3, b4 = gadget
            w1, w2 = s.edge(wide=True)
            s.node([w1, b1, b2])
            s.node([w2, b3, b4])
        for x, y in arcs:
            s.pair(x, y)
        out.append((coeff, *s.finish()))
    return out


def apply_wide_digon(g: PlanarMap, face: tuple[int, ...]) -> list:
    """Expand a wide digon (a "digon", "triangle" or "square4" face) by the
    wide-digon relation on its two rigid vertices.

    Let e1 be the face's standard half-edge that follows the other, e2
    (on a 4-gon, where neither does, the first), P the rigid vertex of e1
    and Q that of e2.  The outer strands o1, o2 follow twin[e2], e1 around
    P, and o3, o4 follow twin[e1], e2 around Q.  The four nodes are removed
    and the terms are (1-AB) times the through-strands (o2 o3)(o1 o4),
    gamma times the across-arcs (o1 o2)(o3 o4), and -(A+B) times one gadget
    on (o1 o2 o3 o4).  Returns (coefficient, graph, new id of each
    half-edge of g) triples; any other face raises ValueError.
    """
    kind = _classify_face(g, face)
    if kind not in ("digon", "triangle", "square4"):
        raise ValueError(f"not a wide-digon face: {kind}")
    wide = g.wide
    std = [h for h in face if not wide[h]]
    e1 = next((h for i, h in enumerate(face)
               if not wide[h] and not wide[face[i - 1]]), std[0])
    e2 = std[1] if e1 == std[0] else std[0]
    vertices, outer = [], []
    for e in (e1, e2):
        w = _wide_at(g, e)
        s = _strands(g, w)
        i = s.index(e)
        vertices.append(w)
        outer += [s[(i + 1) % 4], s[(i + 2) % 4]]
    o1, o2, o3, o4 = outer
    AB = RingElem.mono(0, 1, 1)
    A_plus_B = RingElem.mono(0, 1, 0) + RingElem.mono(0, 0, 1)
    return _rewrite(g, vertices, [
        (RingElem.one() - AB, None, [(o2, o3), (o1, o4)]),  # through-strands
        (constants().gamma, None, [(o1, o2), (o3, o4)]),    # across-arcs
        (-A_plus_B, (o1, o2, o3, o4), []),                  # one gadget
    ])


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


# -- the six-vertex square relation ----------------------------------------------

def _match_square(g: PlanarMap, face: tuple[int, ...]):
    """The six-vertex square on a 4-gon with one wide half-edge, or None.

    Q is the face's wide half-edge; P and R are the wide half-edges next
    (counterclockwise) to the face's standard half-edges just before Q and
    two after it.  The face is a square when P, Q and R are three distinct
    wide edges.  Returns the boundary strands (T1,T2,T3,B1,B2,B3), read by
    `_strands` -- (T2, T1) P's far pair, T3 and B3 Q's strands 0 and 3,
    (B1, B2) R's far pair -- and the three rigid vertices (p, q, r).
    """
    if len(face) != 4:
        return None
    twin, nxt, wide = g.twin, g.nxt, g.wide
    wides = [i for i, h in enumerate(face) if wide[h]]
    if len(wides) != 1:
        return None
    i = wides[0]
    q, p, r = face[i], nxt[face[i - 1]], nxt[face[(i + 2) % 4]]
    halves = {p, q, r, twin[p], twin[q], twin[r]}
    if not (wide[p] and wide[r]) or len(halves) != 6:
        return None
    T2, T1 = _strands(g, p)[2:]
    B1, B2 = _strands(g, r)[2:]
    sq = _strands(g, q)
    return (T1, T2, sq[0], B1, B2, sq[3]), (p, q, r)


def square_flip(g: PlanarMap, face: tuple[int, ...]
                ) -> tuple[PlanarTrivalentGraph, list[int]]:
    """The flipped square alone (the c2 c1 c2 stack), with the new id of
    each half-edge of g."""
    return _flip(g, _match_square(g, face))


def _flip(g: PlanarMap, m) -> tuple[PlanarTrivalentGraph, list[int]]:
    """`square_flip` on the `_match_square` result m; a None m raises."""
    if m is None:
        raise ValueError("face does not match the square configuration")
    (T1, T2, T3, B1, B2, B3), vertices = m
    s = Surgery(g)
    for w in vertices:
        s.kill(g.node_of(w))
        s.kill(g.node_of(g.twin[w]))
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
    m = _match_square(g, face)
    flipped = (RingElem.one(), *_flip(g, m))
    (T1, T2, T3, B1, B2, B3), vertices = m
    delta = constants().delta
    AB = RingElem.mono(0, 1, 1)
    return [flipped] + _rewrite(g, vertices, [
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


def _opens_digon(g: PlanarMap, strands) -> bool:
    """Whether flipping the square with boundary strands `strands` closes a
    wide digon, read off g without building the flip: the flipped stack's
    new top gadget (on T2, T3) or bottom gadget (on B3, B2) meets a rigid
    vertex of g on the same two strands.

    That vertex is never one of the square's own three.  Of the square's
    six nodes only P's far node (T2, T1) and R's far node (B1, B2) have two
    strands off the square's own edges, so a gadget on (T2, T3) is R only
    when twin[T2] = B1 and twin[T3] = B2, and one on (B3, B2) is P only
    when twin[B3] = T2 and twin[B2] = T1.  The two strands left then lie on
    different faces, and joined to each other they break V - E + F = 2.
    Nothing else can complete them: a closed piece hanging from one
    standard edge would hold an odd number of half-edges, though its nodes
    pair up by their wide edges; and a tangle has its endpoints on one
    face.
    """
    T1, T2, T3, B1, B2, B3 = strands
    twin, nxt, wide = g.twin, g.nxt, g.wide
    for x, y in ((T2, T3), (B3, B2)):
        hx, hy = twin[x], twin[y]
        if nxt[hx] == hy and wide[nxt[hy]]:
            return True
    return False


def _squares(g: PlanarMap):
    """(face, `_match_square` match) of every six-vertex square of g.

    Each square face has exactly one wide half-edge, so the faces are
    walked from the wide half-edges only.  A square face, like a digon, has
    a trivalent node at every corner, so neither ever meets a tangle's
    endpoints.
    """
    twin, nxt, wide = g.twin, g.nxt, g.wide
    for w in range(len(wide)):
        if not wide[w]:
            continue
        f3 = nxt[twin[w]]
        f4 = nxt[twin[f3]]
        f1 = nxt[twin[f4]]
        if nxt[twin[f1]] != w:
            continue
        face = (f1, w, f3, f4)
        if (m := _match_square(g, face)) is not None:
            yield face, m


def _local_rule(g: PlanarMap, ends=(), rng=None
                ) -> tuple[str, tuple[int, ...]] | None:
    """The engine's local step on g, as (kind, face), or None: a reducible
    face away from `ends` (`reducible_face`), else a six-vertex square
    whose flip opens a wide digon (`_opens_digon`), as ("square", face).

    The first square found is taken; with a `random.Random`, the face or
    square is drawn.  Debug mode builds every square's flip and checks the
    prediction against its faces.
    """
    found = reducible_face(g, ends, rng)
    if found is not None:
        return found
    debug = debug_mode()
    squares = []
    for face, m in _squares(g):
        opens = _opens_digon(g, m[0])
        if debug and opens != any(kind == "digon" for kind, _ in
                                  _reducible_faces(_flip(g, m)[0])):
            raise InternalError("a square flip's predicted digon differs "
                                "from its faces")
        if opens:
            squares.append(("square", face))
            if rng is None and not debug:
                break
    if squares:
        return squares[0] if rng is None else rng.choice(squares)
    return None


# -- fallback search ------------------------------------------------------------

def _search_moves(g: PlanarMap):
    """Candidate moves: every wide-edge rotation and square flip."""
    for w in range(g.n_half):
        if g.wide[w] and w < g.twin[w]:
            yield ("rotate", (w,))
    for face, _ in _squares(g):
        yield ("square", face)


# Graphs the move search may queue before it gives up.
SEARCH_BUDGET = 50000


def alternating_walk_reduce(g: PlanarTrivalentGraph, rng=None) -> list | None:
    """A shortest script that turns g into a graph with a local rule
    (`_local_rule`), as a list of (kind, face): wide-edge rotations
    ("rotate", (w,)) and square flips ("square", face), each on the graph
    the steps before it built, then the local rule they reach; None when g
    has one.

    Breadth-first search, with graphs deduplicated by canonical signature.
    Alternating strands switch sides at every wide edge, which forces a
    region bounded by at most two strands; clearing it with these moves
    always succeeds, so the search terminates (`SEARCH_BUDGET` is an
    implementation-bug guard, not a mathematical limit).  A `random.Random`
    `rng` shuffles the moves and draws the final rule; the goal test draws
    nothing.  The search keeps its own set of signatures
    (`signature_of_arrays`) and writes nothing into a context's table.
    """
    if _local_rule(g) is not None:
        return None
    seen = {signature_of_arrays(g.twin, g.nxt, g.wide, g.free_loops)}
    frontier = deque([(g, [])])
    explored = 0
    while frontier:
        cur, script = frontier.popleft()
        moves = list(_search_moves(cur))
        if rng is not None:
            rng.shuffle(moves)
        for kind, face in moves:
            nxt_g = (h_rotate(cur, face[0]) if kind == "rotate"
                     else square_flip(cur, face))[0]
            sig = signature_of_arrays(nxt_g.twin, nxt_g.nxt, nxt_g.wide,
                                      nxt_g.free_loops)
            if sig in seen:
                continue
            seen.add(sig)
            rule = _local_rule(nxt_g)
            if rule is not None:
                return script + [(kind, face), rule if rng is None
                                 else _local_rule(nxt_g, (), rng)]
            frontier.append((nxt_g, script + [(kind, face)]))
            explored += 1
            if explored > SEARCH_BUDGET:
                raise InternalError("fallback search budget exhausted")
    raise InternalError("fallback search space exhausted without a local rule")


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
    piece of the engine and the graphs valued by `evaluate`.  The move
    search's candidates are signed outside it, so a search adds only what
    the engine keeps.  A signature does not depend on the strategy, so the
    table is kept under `rng` too; debug mode recomputes a signature found
    there and compares.  In `stats`:

    * "components" counts the closed connected pieces the engine expanded
      (each distinct piece of one reduction once, a piece that takes a
      script of moves included; open transition rows are not counted);
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
        half-edge of the wide edge rotated.  The rules are "lollipop" and
        "curl2" (curls); "digon", "triangle" and "square4" (a wide digon
        with none, one or both of its wide edges on the face); "square"
        (the six-vertex square relation); and "rotate" (a wide-edge
        rotation, met only in move-search scripts)."""
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
    signature, tangle) triples of distinct open tangles with no local rule
    (`_local_rule`) away from their boundary.

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
    is one more.  The largest level is expanded first.  A piece's local
    rule (`_local_rule`: a reducible face, else a square flip that opens a
    wide digon) is applied (`apply_rule`).  An open tangle with none is
    emitted as reduced.  A closed piece with none takes the script that
    `alternating_walk_reduce` finds, in the same expansion: each move, a
    rotation or a square relation, goes on with its first term (the moved
    graph, coefficient 1) and puts the others, and the local rule the
    script reaches puts all of its terms.  Every term put has fewer
    half-edges than the piece, except a flipped square, which keeps its
    size and re-enters a level of its own size, expanded next; it has a
    digon, so it is rewritten there and never emitted.  So all paths into
    a piece have added their coefficients by the time its level is
    expanded, and no signature is emitted twice.
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
            script = [_local_rule(g, t.ends, ctx.rng)]
            if script[0] is None:
                if t.ends:
                    reduced.append((c, key, t))
                    continue
                script = alternating_walk_reduce(g, ctx.rng)
            if not t.ends:
                ctx.stats["components"] += 1
            last = len(script) - 1
            for i, (kind, face) in enumerate(script):
                ctx.record(kind, face)
                out = apply_rule(g, kind, face)
                if i < last:        # a move goes on with its first term
                    g = out.pop(0)[1]
                for coeff, g2, idmap in out:
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
    Debug mode checks that a graph valued alone, being its own mirror
    image, has a value fixed by `RingElem.swap_AB_invert_a`.  A single map
    with a crossing or a node of degree other than 3 raises ValueError.
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
    if debug_mode() and value.swap_AB_invert_a() != value:
        raise InternalError("a crossingless graph's value is not its own "
                            "mirror image")
    store_memo(ctx, sig, value)
    return value
