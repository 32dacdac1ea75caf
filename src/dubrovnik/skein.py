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
terminates.  When no face matches (all faces have length 5 or more, e.g. a
dodecahedral pattern), a breadth-first search over wide-edge rotations and
square flips finds a sequence of moves ending in a reducible graph; such a
sequence exists for every connected planar trivalent graph.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field

from .maps import PlanarMap, Surgery, canonical_signature
from .diagrams import PlanarTrivalentGraph
from .ring import RingElem, constants

# Formal sum of graphs with ring coefficients.
LinearCombo = list[tuple[RingElem, PlanarTrivalentGraph]]


class InternalError(RuntimeError):
    """The fallback search exhausted its budget: implementation bug."""


@dataclass(frozen=True)
class LocalConfig:
    kind: str                  # circle | lollipop | curl2 | digon | triangle | square4
    face: tuple[int, ...]


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


def reducible_configs(g: PlanarMap) -> list[LocalConfig]:
    out = []
    for face in g.faces():
        kind = _classify_face(g, face)
        if kind:
            out.append(LocalConfig(kind, face))
    out.sort(key=lambda c: (_PRIORITY[c.kind], c.face))
    return out


def find_local_config(g: PlanarMap) -> LocalConfig | None:
    """Highest-priority reducible configuration, or Circle, or None.

    Circles live in the free_loops counter (a circle component carries no
    half-edges), so Circle is reported exactly when free_loops > 0.
    """
    if g.free_loops > 0:
        return LocalConfig("circle", ())
    cfgs = reducible_configs(g)
    return cfgs[0] if cfgs else None


# -- value-preserving moves ---------------------------------------------------

def h_rotate(g: PlanarMap, w: int) -> tuple[PlanarTrivalentGraph, dict[int, int]]:
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
    nw1 = s.port(wide=True)
    nw2 = s.port(wide=True)
    s.fresh_twin(nw1, nw2)
    px2 = s.port(bind=x2)
    py1 = s.port(bind=y1)
    py2 = s.port(bind=y2)
    px1 = s.port(bind=x1)
    s.fresh_node([nw1, px2, py1])
    s.fresh_node([nw2, py2, px1])
    return s.finish(cls=type(g))


def apply_lollipop(g: PlanarMap, face: tuple[int, ...]
                   ) -> tuple[PlanarTrivalentGraph, dict[int, int]]:
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
    return s.finish(cls=type(g))


def _new_gadget(s: Surgery, b1: int, b2: int, b3: int, b4: int) -> None:
    """Fresh wide edge whose four strands read (b1 b2 b3 b4) CCW around it."""
    w1 = s.port(wide=True)
    w2 = s.port(wide=True)
    s.fresh_twin(w1, w2)
    p1 = s.port(bind=b1)
    p2 = s.port(bind=b2)
    p3 = s.port(bind=b3)
    p4 = s.port(bind=b4)
    s.fresh_node([w1, p1, p2])
    s.fresh_node([w2, p3, p4])


def _digon_terms(g: PlanarMap, h1: int, h2: int) -> list:
    """Expand the 2-gon (std,std) face (h1, h2) by the wide-digon relation."""
    C = constants()
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

    def surgery() -> Surgery:
        s = Surgery(g)
        for n in (v1, v2, p2, q2):
            s.kill(n)
        return s

    s = surgery()
    s.pair(a2, b1)
    s.pair(a1, b2)
    through, m1 = s.finish(cls=type(g))

    s = surgery()
    s.pair(a1, a2)
    s.pair(b1, b2)
    across, m2 = s.finish(cls=type(g))

    s = surgery()
    _new_gadget(s, a1, a2, b1, b2)
    gadget, m3 = s.finish(cls=type(g))

    one = RingElem.one()
    AB = RingElem.mono(0, 1, 1)
    A_plus_B = RingElem.mono(0, 1, 0) + RingElem.mono(0, 0, 1)
    return [
        (one - AB, through, m1),
        (C.gamma, across, m2),
        (-(A_plus_B), gadget, m3),
    ]


def _compose(m1: dict[int, int], m2: dict[int, int]) -> dict[int, int]:
    return {h: m2[v] for h, v in m1.items() if v in m2}


def apply_wide_digon(g: PlanarMap, face: tuple[int, ...]) -> list:
    """Expand a wide digon in any of its rotational guises.

    The 3-gon and 4-gon variants are first straightened by rotating their
    boundary wide edges, which shortens the face without changing the value.
    Returns (coefficient, graph, old half-edge id -> new id) triples.
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


def square_move(g: PlanarMap, face: tuple[int, ...]) -> LinearCombo:
    """Rewrite a six-vertex square; first term is the flipped square.

    The flipped term keeps the vertex count; the other eight terms drop at
    least four vertices, so only the flipped term can postpone reduction.
    """
    m = _match_square(g, face)
    if m is None:
        raise ValueError("face does not match the square configuration")
    (T1, T2, T3, B1, B2, B3), nodes = m
    C = constants()
    one = RingElem.one()
    AB = RingElem.mono(0, 1, 1)

    def surgery() -> Surgery:
        s = Surgery(g)
        for n in set(nodes):
            s.kill(n)
        return s

    out: LinearCombo = []

    # flipped configuration (the c2 c1 c2 stack)
    s = surgery()
    wa1 = s.port(wide=True); wa2 = s.port(wide=True); s.fresh_twin(wa1, wa2)
    wc1 = s.port(wide=True); wc2 = s.port(wide=True); s.fresh_twin(wc1, wc2)
    we1 = s.port(wide=True); we2 = s.port(wide=True); s.fresh_twin(we1, we2)
    bl = s.port(); cr = s.port(); s.fresh_twin(bl, cr)
    dr = s.port(); el = s.port(); s.fresh_twin(dr, el)
    br = s.port(); er = s.port(); s.fresh_twin(br, er)
    aL = s.port(bind=T2); aR = s.port(bind=T3)
    cL = s.port(bind=T1)
    dL = s.port(bind=B1)
    fL = s.port(bind=B2); fR = s.port(bind=B3)
    s.fresh_node([wa1, aR, aL])      # top vertex of the upper gadget
    s.fresh_node([wa2, bl, br])      # its lower vertex
    s.fresh_node([wc1, cr, cL])      # middle gadget
    s.fresh_node([wc2, dL, dr])
    s.fresh_node([we1, er, el])      # lower gadget
    s.fresh_node([we2, fL, fR])
    flipped, _ = s.finish(cls=type(g))
    out.append((one, flipped))

    def gadget_term(coeff: RingElem, order: tuple[int, int, int, int],
                    arcs: list[tuple[int, int]]) -> None:
        s = surgery()
        _new_gadget(s, *order)
        for x, y in arcs:
            s.pair(x, y)
        gr, _ = s.finish(cls=type(g))
        out.append((coeff, gr))

    def arcs_term(coeff: RingElem, arcs: list[tuple[int, int]]) -> None:
        s = surgery()
        for x, y in arcs:
            s.pair(x, y)
        gr, _ = s.finish(cls=type(g))
        out.append((coeff, gr))

    # - AB (c2 - c1 + t2 c1 - t1 c2 + c1 t2 - c2 t1)
    gadget_term(-AB, (T3, T2, B2, B3), [(T1, B1)])              # c2
    gadget_term(AB, (T2, T1, B1, B2), [(T3, B3)])               # c1
    gadget_term(-AB, (B3, T1, B1, B2), [(T2, T3)])              # t2 c1
    gadget_term(AB, (T3, B1, B2, B3), [(T1, T2)])               # t1 c2
    gadget_term(-AB, (T2, T1, B1, T3), [(B2, B3)])              # c1 t2
    gadget_term(AB, (T3, T2, T1, B3), [(B1, B2)])               # c2 t1
    # - delta (t1 - t2)
    arcs_term(-C.delta, [(T1, T2), (B1, B2), (T3, B3)])         # t1
    arcs_term(C.delta, [(T2, T3), (B2, B3), (T1, B1)])          # t2
    return out


# -- fallback search ------------------------------------------------------------

@dataclass
class Move:
    kind: str                     # "rotate" | "square"
    arg: object                   # wide half-edge or face tuple (in `before`)
    before: PlanarTrivalentGraph
    after: PlanarTrivalentGraph


def _search_moves(g: PlanarMap):
    """Candidate moves: every wide-edge rotation and square flip."""
    for w in range(g.n_half):
        if g.wide[w] and w < g.twin[w]:
            yield ("rotate", w)
    for face in g.faces():
        if is_square_face(g, face):
            yield ("square", face)


def alternating_walk_reduce(g: PlanarTrivalentGraph, max_nodes: int = 50000,
                            rng=None) -> list[Move]:
    """Move script turning g into a graph with a reducible configuration.

    Breadth-first search over wide-edge rotations and square flips, with
    graphs deduplicated by canonical signature.  Alternating strands switch
    sides at every wide edge, which forces a region bounded by at most two
    strands; clearing it with these moves always succeeds, so the search
    terminates (the node budget is an implementation-bug guard, not a
    mathematical limit).
    """
    if reducible_configs(g):
        return []
    start_sig = canonical_signature(g)
    seen = {start_sig}
    frontier: deque[tuple[PlanarTrivalentGraph, list[Move]]] = deque([(g, [])])
    explored = 0
    while frontier:
        cur, path = frontier.popleft()
        moves = list(_search_moves(cur))
        if rng is not None:
            rng.shuffle(moves)
        for kind, arg in moves:
            if kind == "rotate":
                nxt_g, _ = h_rotate(cur, arg)
            else:
                nxt_g = square_move(cur, arg)[0][1]
            sig = canonical_signature(nxt_g)
            if sig in seen:
                continue
            seen.add(sig)
            new_path = path + [Move(kind, arg, cur, nxt_g)]
            if reducible_configs(nxt_g):
                return new_path
            frontier.append((nxt_g, new_path))
            explored += 1
            if explored > max_nodes:
                raise InternalError("fallback search budget exhausted")
    raise InternalError("fallback search space exhausted without a reducible graph")


# -- evaluation ------------------------------------------------------------------

@dataclass
class EvalContext:
    """Memo tables plus strategy knobs for the reduction.

    `memo` maps canonical signatures (of components and of whole states) to
    values; `results` maps `invariants.diagram_job_key` of a literal diagram
    to its whole state-sum value.  `consistency` holds values claimed by an
    earlier run under either kind of key: each is compared with the value
    recomputed here instead of being served.  In `stats`, "components"
    counts components reduced, "memo_hits" memo lookups that found a value,
    and "state_hits" the states whose value came from `results` (all 3^c of
    a diagram found there).
    """

    memo: dict = field(default_factory=dict)
    rng: object = None              # random.Random for randomized strategies
    trace: list | None = None       # reduction trace (rule, face) entries
    consistency: dict | None = None # cross-run key -> claimed value checker
    results: dict = field(default_factory=dict)
    stats: dict = field(default_factory=lambda: {
        "components": 0, "memo_hits": 0, "state_hits": 0})

    def record(self, rule: str, face) -> None:
        if self.trace is not None:
            self.trace.append({"rule": rule, "face": list(face)})


_DEFAULT_CTX = EvalContext()


def default_context() -> EvalContext:
    return _DEFAULT_CTX


def _extract_component(g: PlanarMap, comp: list[int]) -> PlanarTrivalentGraph:
    comp_sorted = sorted(comp)
    idmap = {h: i for i, h in enumerate(comp_sorted)}
    twin = [idmap[g.twin[h]] for h in comp_sorted]
    nxt = [idmap[g.nxt[h]] for h in comp_sorted]
    wide = [g.wide[h] for h in comp_sorted]
    return PlanarTrivalentGraph(twin, nxt, wide, frozenset(), 0, check=False)


def evaluate(g: PlanarMap, ctx: EvalContext | None = None) -> RingElem:
    """Graph polynomial of a planar trivalent graph (1 on the unknot).

    Splits into connected components first (disjoint union contributes one
    alpha per extra piece), then reduces each component by the local rules,
    falling back to the move search when no face is reducible.  Results are
    memoized per component under the canonical signature, so the value is
    independent of rule order.
    """
    ctx = ctx or _DEFAULT_CTX
    alpha = constants().alpha
    comps = g.components()
    pieces = len(comps) + g.free_loops
    if pieces == 0:
        return RingElem.one()
    value = alpha ** (pieces - 1)
    for comp in comps:
        value = value * _eval_component(_extract_component(g, comp), ctx)
    return value


def check_claim(ctx: EvalContext, key, value: RingElem) -> None:
    """Compare a computed value with the one an earlier run claimed for key."""
    if ctx.consistency is not None:
        prev = ctx.consistency.get(key)
        if prev is not None and prev != value:
            raise InternalError("cross-run inconsistency for one key")
        ctx.consistency[key] = value


def store_memo(ctx: EvalContext, sig, value: RingElem) -> None:
    prev = ctx.memo.get(sig)
    if prev is not None and prev != value:
        raise InternalError("memo collision: two values for one signature")
    check_claim(ctx, sig, value)
    ctx.memo[sig] = value


def _eval_component(g: PlanarTrivalentGraph, ctx: EvalContext) -> RingElem:
    sig = canonical_signature(g)
    hit = ctx.memo.get(sig)
    if hit is not None:
        ctx.stats["memo_hits"] += 1
        return hit
    ctx.stats["components"] += 1
    beta = constants().beta

    cfgs = reducible_configs(g)
    if not cfgs:
        value = RingElem.zero()
        script = alternating_walk_reduce(g, rng=ctx.rng)
        cur = g
        for mv in script:
            ctx.record(mv.kind, mv.arg if mv.kind == "rotate" else mv.arg)
            if mv.kind == "square":
                combo = square_move(cur, mv.arg)
                for coeff, piece in combo[1:]:
                    value = value + coeff * evaluate(piece, ctx)
                cur = combo[0][1]
            else:
                cur = mv.after
        value = value + evaluate(cur, ctx)
        store_memo(ctx, sig, value)
        return value

    if ctx.rng is not None:
        cfg = cfgs[ctx.rng.randrange(len(cfgs))]
    else:
        cfg = cfgs[0]
    ctx.record(cfg.kind, cfg.face)
    if cfg.kind in ("lollipop", "curl2"):
        reduced, _ = apply_lollipop(g, cfg.face)
        value = beta * evaluate(reduced, ctx)
    else:
        value = RingElem.zero()
        for coeff, piece, _ in apply_wide_digon(g, cfg.face):
            value = value + coeff * evaluate(piece, ctx)
    store_memo(ctx, sig, value)
    return value
