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
polynomial of its closure.  The identity, cup-cap and wide gadget on one
pair of strands span a subalgebra, so `bracket` sweeps a braid one twist
region (a run of letters on one generator) at a time, not one letter at a
time.  Both routes agree, which the test suite checks exactly.

Both reach the one engine, `skein.reduce_terms`: the state sum hands all
of a diagram's weighted distinct states to one `skein.evaluate` call,
`bracket` reduces each transition row with the engine, keeps it in the
context for later calls, and hands all its closed tangles to one
`evaluate` call.  `rho_expand` and `trace` expand and close each term
separately, as a check on `bracket`.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

from .diagrams import (BraidWord, PlanarTrivalentGraph, StateResolver, Tangle,
                       braid_to_link, c_tangle, close_tangle, identity_tangle,
                       stack, t_tangle)
from .maps import PlanarMap, debug_mode, reads_debug_once
from .ring import (LaurentPoly, QLaurent, RingElem, depends_on_z_only,
                   qlaurent_mul, specialize_soN, sum_of_products)
from .skein import EvalContext, InternalError, evaluate, reduce_terms


class MissingWrithe(ValueError):
    """Normalization requested for an input with no writhe (non-braid)."""


class MixedArity(ValueError):
    """Tangles of different strand counts in one combination."""


@dataclass
class InvariantResult:
    value: RingElem
    writhe: int | None
    states_evaluated: int


@reads_debug_once
def kauffman_state_sum(d: PlanarMap, ctx: EvalContext | None = None) -> InvariantResult:
    """Resolve every crossing and sum the weighted graph polynomials.

    The 3^c states are grouped in two steps, each group keeping the weight
    polynomial sum A^#A B^#B of the states it merges:

    * literal key -> weight: each state is resolved and counted under its
      twin array and its number of free loops.  The twin array pins nxt
      and wide (see `StateResolver`), so equal literal keys are equal
      states.
    * signature -> weight: each distinct twin array is signed once, with no
      free loops, through the context's table (`EvalContext.signature`);
      a literal key's signature is that one with its own free-loop count,
      and equal signatures pool their weights.

    The distinct states, counted in `ctx.stats["distinct_states"]`, then go
    to one `evaluate` call as (weight, graph) pairs; the engine signs each
    one itself, a lookup that the table already holds, reduces them
    together, and expands a piece that several states reach once.  A
    rule's output that repeats the literal arrays of a state is found in
    the table too.  In debug mode (`DUBROVNIK_DEBUG` set) every state is
    signed as well, and the table recomputes each repeat, so a literal
    state met with two signatures raises InternalError, as does the value
    of a diagram with no trivalent vertex (a link) that fails
    `ring.depends_on_z_only`, or of a diagram with no crossing (its own
    mirror image) that `RingElem.swap_AB_invert_a` moves.

    Every call enumerates all 3^c states: whole-diagram values are kept
    and served by `cli.run`, not here.  With no context a fresh one is
    used.
    """
    ctx = ctx or EvalContext()
    c = len(d.crossing_nodes())
    debug = debug_mode()
    resolver = StateResolver(d)
    literal: dict[tuple, dict[tuple[int, int, int], int]] = {}
    shapes: dict[tuple, tuple] = {}
    for choices in itertools.product("ABW", repeat=c):
        twin, nxt, wide, loops, na, nb = resolver.resolve_arrays(choices)
        tkey = tuple(twin)
        counts = literal.get(tkey)             # (loops, #A, #B) -> states
        if counts is None:
            counts = literal[tkey] = {}
            shapes[tkey] = (twin, nxt, wide)
        counts[loops, na, nb] = counts.get((loops, na, nb), 0) + 1
        if debug:
            # the table recomputes every repeat of a literal state
            ctx.signature(twin, nxt, wide)
    by_sig: dict[tuple, tuple[dict, tuple]] = {}
    for tkey, counts in literal.items():
        shape = shapes[tkey]
        encs = ctx.signature(*shape)[1]
        for (loops, na, nb), n in counts.items():
            weight = by_sig.setdefault((loops, encs), ({}, shape))[0]
            mono = (0, na, nb)
            weight[mono] = weight.get(mono, 0) + n
    ctx.stats["distinct_states"] += len(by_sig)
    value = evaluate([(RingElem(LaurentPoly(weight)),
                       PlanarTrivalentGraph._build(*shape, frozenset(), sig[0]))
                      for sig, (weight, shape) in by_sig.items()], ctx)
    if debug and d.vertex_count() == 0 and not depends_on_z_only(value):
        raise InternalError("a link value depends on more than z = A - B")
    if debug and c == 0 and value.swap_AB_invert_a() != value:
        raise InternalError("a crossingless diagram's value is not its own "
                            "mirror image")
    return InvariantResult(value, None, 3 ** c)


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
    ctx = ctx or EvalContext()
    arities = {t.n for _, t in combo}
    if len(arities) > 1:
        raise MixedArity(f"strand counts {sorted(arities)}")
    return sum_of_products((coeff, evaluate(close_tangle(t), ctx))
                           for coeff, t in combo)


def _merge(table: dict, sig, x: RingElem, y: RingElem, t: Tangle) -> None:
    """Add x * y * t into a combination keyed by tangle signature; the
    factor pairs wait for one `sum_of_products` per tangle."""
    have = table.get(sig)
    if have is None:
        table[sig] = ([(x, y)], t)
    else:
        have[0].append((x, y))


@reads_debug_once
def bracket(b: BraidWord, ctx: EvalContext | None = None) -> RingElem:
    """Writhe-corrected trace a^(-w) P(closure) of the expanded braid.

    Computed by sweeping the word one twist region at a time: a maximal
    run of letters on one generator index i, a lone letter being a run of
    length 1.  The identity, the cup-cap e_i and the wide gadget c_i span
    a subalgebra (e_i e_i = alpha e_i, e_i c_i = c_i e_i = beta e_i, and
    c_i c_i = (1-AB) + gamma e_i - (A+B) c_i by the wide-digon relation),
    so a run is one element x + y e_i + z c_i.  Its weights come from the
    same letter step swept over the identity tangle, whose combination
    must stay on those three tangles (by signature; anything else raises
    InternalError).  The main combination of reduced tangles, keyed by
    signature, then takes one step per run: a tangle t goes to x t plus
    y and z times the reduced rows of stack(t, e_i) and stack(t, c_i),
    and tangles of equal signature merge.  A letter is the run step with
    weights (A, B, 1), or (B, A, 1) for a negative letter; a run whose
    weight vanishes on a generator, like the cancelling run `1 -1`, costs
    no row of it.

    A row depends only on t's signature and the generator, so it is
    reduced once per context, kept in `ctx.rows`, and scaled by each later
    coefficient and weight; the run sweeps share the identity's rows with
    the main combination.  Each tangle of a new combination collects its
    (coefficient times weight, row coefficient) pairs over the step, and
    its coefficient is formed by one `ring.sum_of_products`.  Rows are
    reduced by `skein.reduce_terms`, which rewrites only faces away from
    the boundary, and flips a six-vertex square when that opens a wide
    digon, so a row of an alternating gadget chain shortens: on 3 strands,
    `(1 2)^k` ends with at most 23 tangles of at most 18 half-edges for k
    up to 10.  The closed tangles of the final combination go to one
    `evaluate` call.  Stacking is bilinear and each rule is a relation of
    the graph skein, which leaves the closure's polynomial unchanged, so
    the result equals a^(-w) trace(rho_expand(b)).

    In debug mode every reuse of a row recomputes it, and a difference
    raises InternalError.  With `ctx.rng` set, rows are neither read from
    nor kept in `ctx.rows`: the random strategy draws among square flips,
    so a row is then not a function of its tangle, and each use reduces it
    afresh.  With no context a fresh one is used.
    """
    ctx = ctx or EvalContext()
    debug = debug_mode()
    memo = ctx.rng is None
    rows = ctx.rows
    n = b.strands
    A = RingElem.mono(0, 1, 0)
    B = RingElem.mono(0, 0, 1)
    one = RingElem.one()
    ident = identity_tangle(n)
    start = {ident.signature(): (one, ident)}
    gens: dict[int, list] = {}          # i -> [e_i, c_i]
    basis: dict[int, list] = {}         # i -> signatures of 1, e_i, c_i

    def advance(combo: dict, i: int, weights: list) -> dict:
        """Each tangle t of `combo` goes to x t + y row(t, e_i) +
        z row(t, c_i) for `weights` (x, y, z); a weight of None is 0."""
        new: dict = {}
        kept = weights[0]
        for sig, (coeff, t) in combo.items():
            if kept is not None:
                _merge(new, sig, coeff, kept, t)
            for make, gen, weight in zip((t_tangle, c_tangle), gens[i],
                                         weights[1:]):
                if weight is None:
                    continue
                key = (sig, make, i)
                row = rows.get(key) if memo else None
                if row is None or debug:
                    fresh = reduce_terms([(one, stack(t, gen))], ctx)[1]
                    if row is None:
                        row = fresh
                        if memo:
                            rows[key] = row
                    elif ({s: c for c, s, _ in row}
                          != {s: c for c, s, _ in fresh}):
                        raise InternalError("a memoized transition row "
                                            "differs from its recomputation")
                scale = coeff if weight == one else coeff * weight
                for c, s, t2 in row:
                    _merge(new, s, scale, c, t2)
        out = {}
        for sig, (pairs, t) in new.items():
            coeff = sum_of_products(pairs)
            if not coeff.is_zero():
                out[sig] = (coeff, t)
        return out

    combo = start
    for i, run in itertools.groupby(b.letters, abs):
        if i not in gens:
            gens[i] = [t_tangle(n, i), c_tangle(n, i)]
            basis[i] = [*start, *(gen.signature() for gen in gens[i])]
        local = start
        for letter in run:
            local = advance(local, i,
                            [A, B, one] if letter > 0 else [B, A, one])
        if not local.keys() <= set(basis[i]):
            raise InternalError("a twist region left the span of the "
                                "identity, cup-cap and wide gadget")
        combo = advance(combo, i, [local[s][0] if s in local else None
                                   for s in basis[i]])
    total = evaluate([(coeff, close_tangle(t)) for coeff, t in combo.values()],
                     ctx)
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
    The empty graph evaluates to 1.  A map with crossings raises
    ValueError: the formula holds for planar graphs only.
    """
    if g.crossing_nodes():
        raise ValueError("the N=2 closed form needs a crossingless graph")
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
