"""Link and knotted-graph invariants built on the trivalent state model.

The regular-isotopy invariant of a diagram D is the state sum

    P_D = sum over states  A^(#A-smoothings) B^(#B-smoothings) P(state)

where each state replaces every crossing by one of the two smoothings or by
a wide edge, and P is the graph polynomial from the reduction engine.  The
same formula evaluates knotted rigid-edge trivalent graph diagrams.  The
writhe-corrected value a^(-w) P is invariant under all Reidemeister moves
for braid closures.

A second route goes through the braid algebra: every braid letter expands
into A,B-weighted identity / cup-cap / wide-gadget tangles, the products
are taken by stacking, and the trace of a tangle combination is the graph
polynomial of its closure.  Both routes agree, which the test suite checks
exactly.
"""

from __future__ import annotations

import itertools
import os
from dataclasses import dataclass

from .diagrams import (BraidWord, PlanarTrivalentGraph, StateResolver, Tangle,
                       braid_to_link, c_tangle, close_tangle, identity_tangle,
                       stack, t_tangle)
from .maps import PlanarMap, signature_of_arrays
from .ring import (LaurentPoly, QLaurent, RingElem, constants, qlaurent_mul,
                   ring_sum, specialize_soN)
from .skein import (EvalContext, InternalError, apply_lollipop,
                    apply_wide_digon, check_claim, default_context, evaluate,
                    store_memo)


class MissingWrithe(ValueError):
    """Normalization requested for an input with no writhe (non-braid)."""


class MixedArity(ValueError):
    """Tangles of different strand counts in one combination."""


@dataclass
class InvariantResult:
    value: RingElem
    writhe: int | None
    states_evaluated: int
    source: str                   # stateSum | bracket | fourValent | n2Closed


def diagram_job_key(d: PlanarMap) -> str:
    """Short stable identifier of the literal diagram (not up to isomorphism)."""
    import hashlib
    payload = repr((tuple(d.twin), tuple(d.nxt), tuple(d.wide),
                    sorted(d.over), d.free_loops)).encode()
    return hashlib.sha256(payload).hexdigest()[:24]


def _add_weight(table: dict, key, weight: dict) -> None:
    """Add the monomial counts `weight` into table[key] (taking ownership)."""
    total = table.get(key)
    if total is None:
        table[key] = weight
    else:
        for mono, k in weight.items():
            total[mono] = total.get(mono, 0) + k


def kauffman_state_sum(d: PlanarMap, ctx: EvalContext | None = None) -> InvariantResult:
    """Resolve every crossing and sum the weighted graph polynomials.

    The 3^c states are grouped in three steps, each keeping a weight
    polynomial sum A^#A B^#B of the states it merges:

    * literal key -> weight: each state is resolved and counted under the
      literal key (twin, free loops) of its arrays;
    * signature -> weight: each literal key is given its canonical
      signature once, and equal signatures pool their weights;
    * value -> weight: each signature is evaluated once, through the memo
      shared across diagrams, and signatures with equal values pool their
      weights.

    Each distinct value is then multiplied by its weight once, and the
    products are summed with a single normalization.  In debug mode
    (`DUBROVNIK_DEBUG` set, or `ctx.consistency` in use) every state is
    signed as well, and a literal key met with two signatures raises
    InternalError.

    The whole-diagram value is kept in `ctx.results` under
    `diagram_job_key(d)`; a repeat of the same diagram is served from there
    without enumerating states, and its 3^c states count as
    `ctx.stats["state_hits"]`.
    """
    ctx = ctx or default_context()
    key = diagram_job_key(d)
    c = len(d.crossing_nodes())
    count = 3 ** c
    hit = ctx.results.get(key)
    if hit is not None:
        ctx.stats["state_hits"] += count
        return InvariantResult(hit, None, count, "stateSum")
    debug = ctx.consistency is not None or bool(os.environ.get("DUBROVNIK_DEBUG"))
    signed: dict[tuple, tuple] = {}
    resolver = StateResolver(d)
    # resolve_arrays numbers the surviving half-edges first, then six per
    # wide gadget with a fixed rotation and edge kind, so nxt and wide are
    # functions of len(twin) alone: (twin, loops) pins a state's arrays
    # exactly, and states with equal literal keys have equal signatures.
    literal: dict[tuple, dict[tuple[int, int, int], int]] = {}
    shapes: dict[tuple, tuple] = {}
    for choices in itertools.product("ABW", repeat=c):
        twin, nxt, wide, loops, na, nb = resolver.resolve_arrays(choices)
        lkey = (tuple(twin), loops)
        weight = literal.get(lkey)
        if weight is None:
            weight = literal[lkey] = {}
            shapes[lkey] = (twin, nxt, wide, loops)
        mono = (0, na, nb)
        weight[mono] = weight.get(mono, 0) + 1
        if debug:
            sig = signature_of_arrays(twin, nxt, wide, loops)
            if signed.setdefault(lkey, sig) != sig:
                raise InternalError("one literal state with two signatures")
    by_sig: dict[tuple, dict] = {}
    sig_shape: dict[tuple, tuple] = {}
    for lkey, weight in literal.items():
        shape = shapes[lkey]
        sig = signature_of_arrays(*shape)
        sig_shape.setdefault(sig, shape)
        _add_weight(by_sig, sig, weight)
    by_value: dict[RingElem, dict] = {}
    for sig, weight in by_sig.items():
        value = ctx.memo.get(sig)
        if value is None:
            twin, nxt, wide, loops = sig_shape[sig]
            g = PlanarTrivalentGraph(twin, nxt, wide, frozenset(), loops,
                                     check=False)
            value = evaluate(g, ctx)
            store_memo(ctx, sig, value)
        else:
            ctx.stats["memo_hits"] += 1
        _add_weight(by_value, value, weight)
    # A weight has positive coefficients, so (A-B) does not divide it and
    # the product with a canonical value is canonical.
    value = ring_sum(RingElem(LaurentPoly(weight) * v.num, v.dpow,
                              _canonical=True)
                     for v, weight in by_value.items())
    check_claim(ctx, key, value)
    ctx.results[key] = value
    return InvariantResult(value, None, count, "stateSum")


def regraph_invariant(d: PlanarMap, ctx: EvalContext | None = None) -> InvariantResult:
    """The invariant of a knotted rigid-edge trivalent graph diagram.

    On crossingless inputs this is the graph polynomial itself; on link
    diagrams it coincides with the Kauffman state sum.
    """
    return kauffman_state_sum(d, ctx)


def eval_braid(b: BraidWord, ctx: EvalContext | None = None) -> InvariantResult:
    r = kauffman_state_sum(braid_to_link(b), ctx)
    r.writhe = b.writhe()
    return r


def normalized(r: InvariantResult) -> RingElem:
    """Ambient-isotopy normalization a^(-writhe) * value."""
    if r.writhe is None:
        raise MissingWrithe("writhe is only defined for braid inputs")
    return RingElem.mono(-r.writhe, 0, 0) * r.value


# -- braid representation and trace ------------------------------------------------

def rho_expand(b: BraidWord) -> list[tuple[RingElem, Tangle]]:
    """Expand the braid into its 3^len tangle terms.

    Positive letters contribute A*(identity) + B*(cup-cap) + (wide gadget),
    negative letters A*(cup-cap) + B*(identity) + (wide gadget).
    """
    n = b.strands
    A = RingElem.mono(0, 1, 0)
    B = RingElem.mono(0, 0, 1)
    one = RingElem.one()
    combo: list[tuple[RingElem, Tangle]] = [(one, identity_tangle(n))]
    for letter in b.letters:
        i = abs(letter)
        if letter > 0:
            parts = [(A, None), (B, t_tangle(n, i)), (one, c_tangle(n, i))]
        else:
            parts = [(A, t_tangle(n, i)), (B, None), (one, c_tangle(n, i))]
        new: list[tuple[RingElem, Tangle]] = []
        for coeff, t in combo:
            for c2, gen in parts:
                new.append((coeff * c2, t if gen is None else stack(t, gen)))
        combo = new
    return combo


def trace(combo: list[tuple[RingElem, Tangle]],
          ctx: EvalContext | None = None) -> RingElem:
    """Graph polynomial of the closure, summed over the combination."""
    ctx = ctx or default_context()
    arities = {t.n for _, t in combo}
    if len(arities) > 1:
        raise MixedArity(f"strand counts {sorted(arities)}")
    total = RingElem.zero()
    for coeff, t in combo:
        total = total + coeff * evaluate(close_tangle(t), ctx)
    return total


def _internal_configs(t: Tangle):
    g = t.g
    boundary = set(t.top) | set(t.bot)
    for face in g.faces():
        if any(h in boundary or g.twin[h] in boundary for h in face):
            continue
        from .skein import _classify_face
        kind = _classify_face(g, face)
        if kind:
            return kind, face
    return None


def _reduce_tangle(coeff: RingElem, t: Tangle,
                   out: dict, ctx: EvalContext) -> None:
    """Reduce internal faces of a tangle, merging results into `out` by shape."""
    C = constants()
    queue = [(coeff, t)]
    while queue:
        c, t = queue.pop()
        g = t.g
        if g.free_loops:
            c = c * (C.alpha ** g.free_loops)
            g = type(g)(g.twin, g.nxt, g.wide, g.over, 0, check=False)
            t = Tangle(g, t.top, t.bot)
        hit = _internal_configs(t)
        if hit is None:
            sig = t.signature()
            if sig in out:
                out[sig] = (out[sig][0] + c, out[sig][1])
            else:
                out[sig] = (c, t)
            continue
        kind, face = hit
        if kind in ("lollipop", "curl2"):
            g2, idmap = apply_lollipop(g, face)
            t2 = Tangle(g2, [idmap[h] for h in t.top], [idmap[h] for h in t.bot])
            queue.append((c * C.beta, t2))
        else:
            for c2, g2, idmap in apply_wide_digon(g, face):
                t2 = Tangle(g2, [idmap[h] for h in t.top],
                            [idmap[h] for h in t.bot])
                queue.append((c * c2, t2))


def bracket(b: BraidWord, ctx: EvalContext | None = None) -> RingElem:
    """Writhe-corrected trace a^(-w) P(closure) of the expanded braid.

    Computed by stacking one letter at a time while reducing and merging the
    tangle combination, which keeps the term count small; the result equals
    trace(rho_expand(b)) term for term.
    """
    ctx = ctx or default_context()
    n = b.strands
    A = RingElem.mono(0, 1, 0)
    B = RingElem.mono(0, 0, 1)
    one = RingElem.one()
    ident = identity_tangle(n)
    combo: dict = {}
    _reduce_tangle(one, ident, combo, ctx)
    for letter in b.letters:
        i = abs(letter)
        if letter > 0:
            parts = [(A, None), (B, t_tangle(n, i)), (one, c_tangle(n, i))]
        else:
            parts = [(A, t_tangle(n, i)), (B, None), (one, c_tangle(n, i))]
        new: dict = {}
        for coeff, t in combo.values():
            if coeff.is_zero():
                continue
            for c2, gen in parts:
                stacked = t if gen is None else stack(t, gen)
                _reduce_tangle(coeff * c2, stacked, new, ctx)
        combo = new
    total = RingElem.zero()
    for coeff, t in combo.values():
        if not coeff.is_zero():
            total = total + coeff * evaluate(close_tangle(t), ctx)
    return RingElem.mono(-b.writhe(), 0, 0) * total


# -- one-variable specializations ---------------------------------------------------

def so_n(r: InvariantResult, N: int) -> QLaurent:
    """SO(N) specialization A -> q, B -> q^-1, a -> q^(N-1) of the value."""
    return specialize_soN(r.value, N)


def n2_closed_form(g: PlanarMap) -> QLaurent:
    """Value at N = 2 from component and vertex counts alone.

    For a planar trivalent graph with c connected pieces (free loops
    included) and n vertices the specialized polynomial is
    2^(c-1) * (-q - q^-1)^(n/2); the reduction engine is bypassed entirely.
    The empty graph evaluates to 1.
    """
    c = len(g.components()) + g.free_loops
    n = g.vertex_count()
    if c == 0:
        return {0: 1}
    if n % 2:
        raise ValueError("trivalent graphs have an even number of vertices")
    val: QLaurent = {0: 2 ** (c - 1)}
    minus_qq = {1: -1, -1: -1}
    for _ in range(n // 2):
        val = qlaurent_mul(val, minus_qq)
    return val
