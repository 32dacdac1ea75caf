import itertools
import random

import pytest

from dubrovnik.corpus import (alternating_braid, clasped_handcuff,
                              random_braid, random_regraph,
                              random_trivalent_graph)
from dubrovnik.diagrams import (BraidWord, braid_to_link, c_tangle,
                                identity_tangle, parse_braid, parse_pd,
                                parse_regraph, t_tangle)
from dubrovnik.invariants import (MissingWrithe, MixedArity, bracket,
                                  eval_braid, kauffman_state_sum,
                                  n2_closed_form, normalized, rho_expand,
                                  so_n, trace)
from dubrovnik.ring import (R_A, R_A_minus_B, R_B, R_ONE, R_a, R_a_inv,
                            RingElem, constants, specialize_soN)
from dubrovnik.skein import EvalContext, evaluate
from dubrovnik.verify import (check_dubrovnik_axioms, check_link_z_dependence,
                              check_markov, check_mirror, check_n2,
                              check_path_agreement)

C = constants()


def hopf_value() -> RingElem:
    aa = R_a - R_a_inv
    return aa * R_A_minus_B + RingElem(aa.num, 1) + R_ONE


def test_unknot():
    r = eval_braid(parse_braid("n=1;"))
    assert r.value == R_ONE
    assert r.states_evaluated == 1


def test_hopf_exact():
    r = eval_braid(parse_braid("1 1"))
    assert r.value == hopf_value()
    assert r.states_evaluated == 9
    # the PD transcription evaluates to the same polynomial
    pd = kauffman_state_sum(parse_pd("X(1,3,2,4) X(3,1,4,2)"))
    assert pd.value in (r.value, r.value.swap_AB_invert_a())


def test_unlink_via_rii():
    assert eval_braid(parse_braid("1 -1")).value == C.alpha


def test_kinks_and_normalization():
    assert eval_braid(parse_braid("1")).value == R_a
    assert eval_braid(parse_braid("-1")).value == R_a_inv
    assert normalized(eval_braid(parse_braid("1"))) == R_ONE
    assert normalized(eval_braid(parse_braid("n=1;"))) == R_ONE
    tre = eval_braid(parse_braid("1 1 1"))
    assert normalized(tre) == RingElem.mono(-3, 0, 0) * tre.value
    with pytest.raises(MissingWrithe):
        normalized(kauffman_state_sum(parse_pd("X(1,1,2,2)")))


def test_regraph_invariant_theta():
    th = parse_regraph("W(1,2;2,1)")
    r = kauffman_state_sum(th)
    assert r.value == C.beta
    assert r.states_evaluated == 1
    # crossingless input: equals the graph polynomial directly
    from dubrovnik.diagrams import PlanarTrivalentGraph
    g = PlanarTrivalentGraph(th.twin, th.nxt, th.wide, frozenset(), 0)
    assert r.value == evaluate(g)


def test_rho_expand():
    combo = rho_expand(parse_braid("n=1;"))
    assert len(combo) == 1 and combo[0][0] == R_ONE
    combo = rho_expand(BraidWord(2, (1,)))
    assert len(combo) == 3
    coeffs = {c for c, _ in combo}
    assert coeffs == {R_A, R_B, R_ONE}
    combo = rho_expand(BraidWord(2, (1, -1)))
    assert len(combo) == 9
    assert trace(combo) == trace([(R_ONE, identity_tangle(2))])


def test_trace_values():
    assert trace([(R_ONE, identity_tangle(2))]) == C.alpha
    assert trace([(R_ONE, t_tangle(2, 1))]) == R_ONE
    assert trace([(R_ONE, c_tangle(2, 1))]) == C.beta
    with pytest.raises(MixedArity):
        trace([(R_ONE, identity_tangle(2)), (R_ONE, identity_tangle(3))])


def test_bracket_examples():
    assert bracket(parse_braid("n=1;")) == R_ONE
    b = parse_braid("1 1")
    assert bracket(b) == RingElem.mono(-2, 0, 0) * hopf_value()
    # literal expansion path agrees
    lit = RingElem.mono(-b.writhe(), 0, 0) * trace(rho_expand(b))
    assert lit == bracket(b)


def test_bracket_matches_literal_expansion():
    # repeated letters reuse memoized rows, and the literal expansion stacks
    # a cup-cap above and below a wide gadget, closing it off from the
    # boundary
    for text in ("n=2; 1 1 1", "n=3; 1 1 1 2 2 2", "n=3; 1 -1 1 2 -2"):
        b = parse_braid(text)
        lit = RingElem.mono(-b.writhe(), 0, 0) * trace(rho_expand(b))
        assert bracket(b, EvalContext()) == lit, text


def _count_calls(monkeypatch, *names):
    import dubrovnik.invariants as inv
    counts = dict.fromkeys(names, 0)
    for name in names:
        real = getattr(inv, name)

        def counting(*args, _real=real, _name=name):
            counts[_name] += 1
            return _real(*args)

        monkeypatch.setattr(inv, name, counting)
    return counts


def test_bracket_reduces_each_distinct_tangle_once(monkeypatch):
    import dubrovnik.skein as sk
    monkeypatch.delenv("DUBROVNIK_DEBUG", raising=False)
    import dubrovnik.invariants as inv
    counts = _count_calls(monkeypatch, "stack")
    rules = {"rows": 0, "closing": 0}
    squares = {"rows": 0, "closing": 0}
    in_row = []
    real_rule, real_square, real_reduce = (sk.apply_rule, sk.square_move,
                                           inv.reduce_terms)

    def counting_rule(*args):
        rules["rows" if in_row else "closing"] += 1
        return real_rule(*args)

    def counting_square(*args):
        squares["rows" if in_row else "closing"] += 1
        return real_square(*args)

    def row_reduction(*args):
        in_row.append(1)
        try:
            return real_reduce(*args)
        finally:
            in_row.pop()

    monkeypatch.setattr(sk, "apply_rule", counting_rule)
    monkeypatch.setattr(sk, "square_move", counting_square)
    monkeypatch.setattr(inv, "reduce_terms", row_reduction)
    bracket(parse_braid("n=3; 1 2 1 2 1 2 1 2 1 2 1 2"), EvalContext())
    # the rows flip two squares, so no gadget chain outgrows a letter
    assert counts["stack"] <= 92 and rules["rows"] <= 80
    assert 0 < squares["rows"] <= 2
    assert rules["closing"] <= 6 and squares["closing"] == 0
    counts.update(stack=0)
    # each twist region is one step of the combination, not one per letter
    bracket(parse_braid("n=3; 1 1 2 2 1 1 2 2"), EvalContext())
    assert counts["stack"] <= 52
    # a region of mixed signs is one step as well
    counts.update(stack=0)
    bracket(parse_braid("n=3; 1 -1 1 2 -2 2 1 -1 1 2 -2 2"), EvalContext())
    assert counts["stack"] <= 52


def test_generators_span_a_local_subalgebra():
    # e e = alpha e, e c = c e = beta e, c c = (1-AB) + gamma e - (A+B) c
    from dubrovnik.diagrams import stack
    from dubrovnik.skein import reduce_terms
    for n in (2, 3, 4):
        for i in range(1, n):
            one, e, c = identity_tangle(n), t_tangle(n, i), c_tangle(n, i)
            table = {
                (e, e): {e: C.alpha},
                (e, c): {e: C.beta},
                (c, e): {e: C.beta},
                (c, c): {one: R_ONE - R_A * R_B, e: C.gamma,
                         c: -(R_A + R_B)},
            }
            for (x, y), want in table.items():
                value, row = reduce_terms([(R_ONE, stack(x, y))],
                                          EvalContext())
                assert value.is_zero()
                assert ({sig: coeff for coeff, sig, _ in row}
                        == {t.signature(): k for t, k in want.items()}), (n, i)


# Twist regions of lengths 1 to 4, with mixed signs inside a region.
_RUN_WORDS_SHORT = ("n=2; 1 1 -1 1", "n=3; 1 -1 1 2 2 -1",
                    "n=3; 2 -2 -2 2 1 2 -2", "n=4; 1 1 3 -3 2 -2 2",
                    "n=4; 3 2 2 -2 -2 1 3")
_RUN_WORDS_LONG = ("n=3; 1 1 -1 1 2 -2 1 2", "n=4; 1 -1 2 2 2 3 -3 -2 2",
                   "n=4; 2 -2 2 1 3 3 -3 -3 1", "n=3; 2 2 -2 -2 1 -1 1 2 2 1")


def test_bracket_twist_regions_match_the_literal_expansion():
    for text in _RUN_WORDS_SHORT:
        b = parse_braid(text)
        lit = RingElem.mono(-b.writhe(), 0, 0) * trace(rho_expand(b),
                                                       EvalContext())
        assert bracket(b, EvalContext()) == lit, text


def test_bracket_twist_regions_match_the_state_sum():
    for text in _RUN_WORDS_LONG:
        b = parse_braid(text)
        assert bracket(b, EvalContext()) == \
            normalized(eval_braid(b, EvalContext())), text


def test_bracket_cancels_a_reidemeister_two_region():
    assert bracket(parse_braid("n=3; 2 2 1 -1 2")) == \
        bracket(parse_braid("n=3; 2 2 2"))


def test_bracket_checks_that_a_twist_region_stays_local(monkeypatch):
    import dubrovnik.invariants as inv
    from dubrovnik.diagrams import stack
    from dubrovnik.skein import InternalError
    # a "gadget" that is two gadgets reduces onto the real one, which is
    # not among the region's three tangles
    monkeypatch.setattr(inv, "c_tangle", lambda n, i: stack(
        c_tangle(n, i), c_tangle(n, i)))
    with pytest.raises(InternalError, match="twist region"):
        bracket(parse_braid("n=2; 1"), EvalContext())


def test_bracket_shares_rows_within_a_context(monkeypatch):
    import dubrovnik.invariants as inv
    monkeypatch.delenv("DUBROVNIK_DEBUG", raising=False)
    words = [parse_braid(t) for t in ("n=3; 1 1 2 -1 2 2", "n=4; 1 2 3 -2 1")]
    fresh = [bracket(b, EvalContext()) for b in words]
    calls = []
    real = inv.reduce_terms
    monkeypatch.setattr(inv, "reduce_terms",
                        lambda terms, ctx: calls.append(1) or real(terms, ctx))
    ctx = EvalContext()
    assert [bracket(b, ctx) for b in words] == fresh
    first = len(calls)
    assert first and len(ctx.rows) == first
    # the second round reduces no row again
    calls.clear()
    assert [bracket(b, ctx) for b in words] == fresh
    assert not calls
    # debug mode recomputes every row it finds
    monkeypatch.setenv("DUBROVNIK_DEBUG", "1")
    assert [bracket(b, ctx) for b in words] == fresh
    assert len(calls) >= first
    # a randomized strategy keeps no rows
    ctx = EvalContext(rng=random.Random(3))
    assert [bracket(b, ctx) for b in words] == fresh
    assert not ctx.rows


def test_bracket_combination_plateaus_on_three_strands(monkeypatch):
    import dubrovnik.invariants as inv
    real = inv.evaluate
    closing = []

    def spy(terms, ctx=None):
        closing.append([g.n_half for _, g in terms])
        return real(terms, ctx)

    monkeypatch.setattr(inv, "evaluate", spy)
    for k in (4, 6, 8, 10):
        closing.clear()
        bracket(parse_braid("n=3; " + " 1 2" * k), EvalContext())
        [sizes] = closing
        assert len(sizes) <= 23 and max(sizes) <= 18, k


def _alternating_words() -> list[BraidWord]:
    rng = random.Random(5)
    return [alternating_braid(rng, k, runs)
            for k, runs in ((8, 4), (8, 8), (10, 5))]


def test_bracket_flips_squares_and_agrees_with_the_state_sum(monkeypatch):
    import dubrovnik.skein as sk
    import dubrovnik.invariants as inv
    flips, reductions = [], []
    real_square, real_reduce = sk.square_move, inv.reduce_terms

    def counting_square(*args):
        flips.append(1)
        return real_square(*args)

    def distinct_rows(*args):
        value, reduced = real_reduce(*args)
        reductions.append([sig for _, sig, _ in reduced])
        return value, reduced

    monkeypatch.setattr(sk, "square_move", counting_square)
    monkeypatch.setattr(inv, "reduce_terms", distinct_rows)
    for b in _alternating_words():
        flips.clear()
        ctx = EvalContext(trace=[])
        value = bracket(b, ctx)
        assert flips and any(e["rule"] == "square" for e in ctx.trace)
        assert RingElem.mono(b.writhe(), 0, 0) * value == \
            eval_braid(b, EvalContext()).value, b
        for s in range(3):
            assert bracket(b, EvalContext(rng=random.Random(s))) == value
    # a reduced row never holds two tangles with one signature
    assert all(len(set(sigs)) == len(sigs) for sigs in reductions)


def test_debug_mode_checks_the_predicted_digon(monkeypatch):
    import dubrovnik.skein as sk
    b = parse_braid("n=3; 1 2 1 2 1 2")
    monkeypatch.setenv("DUBROVNIK_DEBUG", "1")
    value = bracket(b, EvalContext())
    # a prediction that never sees the digon is caught against the flip
    monkeypatch.setattr(sk, "_opens_digon", lambda g, strands: False)
    with pytest.raises(sk.InternalError, match="predicted digon"):
        bracket(b, EvalContext())
    monkeypatch.delenv("DUBROVNIK_DEBUG")
    assert bracket(b, EvalContext()) == value


def test_debug_bracket_recomputes_memoized_rows(monkeypatch):
    import dubrovnik.invariants as inv
    from dubrovnik.skein import InternalError
    b = parse_braid("n=3; 1 1 2 2 1 1 2 2")
    monkeypatch.delenv("DUBROVNIK_DEBUG", raising=False)
    value = bracket(b, EvalContext())
    counts = _count_calls(monkeypatch, "stack")
    bracket(b, EvalContext())
    plain = counts["stack"]
    monkeypatch.setenv("DUBROVNIK_DEBUG", "1")
    counts["stack"] = 0
    assert bracket(b, EvalContext()) == value
    assert counts["stack"] > plain
    # a row that comes out differently when recomputed is caught
    real = inv.reduce_terms
    calls = []

    def drifting(terms, ctx):
        calls.append(1)
        value, row = real(terms, ctx)
        return value, [(c + c if len(calls) > 3 else c, sig, t2)
                       for c, sig, t2 in row]

    monkeypatch.setattr(inv, "reduce_terms", drifting)
    with pytest.raises(InternalError):
        bracket(b, EvalContext())


def _passes(result):
    name, ok, detail = result
    assert ok, f"{name}: {detail}"


def test_bracket_markov_property():
    rng = random.Random(17)
    braids = (random_braid(rng, max_strands=4, max_letters=6)
              for _ in range(15))
    _passes(check_markov(braids, rng))


def test_path_agreement():
    rng = random.Random(19)
    braids = (random_braid(rng, max_strands=3, max_letters=6)
              for _ in range(10))
    _passes(check_path_agreement(braids))


def test_dubrovnik_relation():
    rng = random.Random(29)
    braids = (random_braid(rng, max_strands=3, max_letters=5, min_letters=1)
              for _ in range(10))
    _passes(check_dubrovnik_axioms(braids, rng))


def test_mirror_law():
    rng = random.Random(37)
    _passes(check_mirror(random_regraph(rng, max_crossings=4, max_wide=3)
                         for _ in range(8)))


def test_z_dependence_rejects_a_knotted_graph():
    # the clasped handcuff's value depends on A and B separately
    assert not check_link_z_dependence([clasped_handcuff()])[1]


def test_debug_state_sum_asserts_z_dependence(monkeypatch):
    import dubrovnik.invariants as inv
    from dubrovnik.skein import InternalError
    link = braid_to_link(parse_braid("n=3; 1 -2 1 2"))
    monkeypatch.setenv("DUBROVNIK_DEBUG", "1")
    value = kauffman_state_sum(link, EvalContext()).value
    # the handcuff fails the check, but is a graph and is not asserted
    kauffman_state_sum(clasped_handcuff(), EvalContext())
    real_evaluate = inv.evaluate
    monkeypatch.setattr(inv, "evaluate",
                        lambda terms, ctx: real_evaluate(terms, ctx) + R_A)
    with pytest.raises(InternalError, match="z = A - B"):
        kauffman_state_sum(link, EvalContext())
    monkeypatch.delenv("DUBROVNIK_DEBUG")
    assert kauffman_state_sum(link, EvalContext()).value == value + R_A


def test_debug_mode_checks_crossingless_values_are_their_own_mirror(
        monkeypatch):
    # a crossingless diagram is its own mirror image, so its value is fixed
    # by the mirror substitution: a value perturbed by A is caught where a
    # state sum has no crossing and where a graph is valued alone
    import dubrovnik.invariants as inv
    import dubrovnik.skein as sk
    theta = parse_regraph("W(1,2;2,1)")
    graph = random_trivalent_graph(random.Random(17))
    monkeypatch.setenv("DUBROVNIK_DEBUG", "1")
    value = kauffman_state_sum(theta, EvalContext()).value
    graph_value = evaluate(graph, EvalContext())
    real_evaluate, real_reduce = inv.evaluate, sk.reduce_terms
    monkeypatch.setattr(inv, "evaluate",
                        lambda terms, ctx: real_evaluate(terms, ctx) + R_A)
    with pytest.raises(sk.InternalError, match="mirror"):
        kauffman_state_sum(theta, EvalContext())
    # a diagram with a crossing is not its own mirror and is not checked
    kauffman_state_sum(clasped_handcuff(), EvalContext())
    monkeypatch.delenv("DUBROVNIK_DEBUG")
    assert kauffman_state_sum(theta, EvalContext()).value == value + R_A
    monkeypatch.setattr(inv, "evaluate", real_evaluate)
    monkeypatch.setattr(sk, "reduce_terms", lambda terms, ctx: (
        real_reduce(terms, ctx)[0] + R_A, []))
    assert evaluate(graph, EvalContext()) == graph_value + R_A
    monkeypatch.setenv("DUBROVNIK_DEBUG", "1")
    with pytest.raises(sk.InternalError, match="mirror"):
        evaluate(graph, EvalContext())


def test_so_n():
    assert so_n(eval_braid(parse_braid("n=1;")), 5) == {0: 1}
    hopf = eval_braid(parse_braid("1 1"))
    # (q - q^-1)^2 + 2 = q^2 + q^-2
    assert so_n(hopf, 2) == {2: 1, -2: 1}
    assert specialize_soN(C.alpha, 2) == {0: 2}


def test_clasped_handcuff_example():
    hc = clasped_handcuff()
    r = kauffman_state_sum(hc)
    assert so_n(r, 2) == {-1: -1, -3: -1}   # q^-2 (-q - q^-1)


def test_one_crossing_vanishing():
    # one crossing whose smoothings both leave the component count alone
    from dubrovnik.corpus import regraph_from_word
    g = regraph_from_word(2, [("W", 1), 1])
    r = kauffman_state_sum(g)
    assert so_n(r, 2) == {}


def test_n2_closed_form_examples():
    from dubrovnik.diagrams import PlanarTrivalentGraph
    from dubrovnik.maps import PlanarMap
    assert n2_closed_form(PlanarMap([], [], [], frozenset(), 1)) == {0: 1}
    th = parse_regraph("W(1,2;2,1)")
    g = PlanarTrivalentGraph(th.twin, th.nxt, th.wide, frozenset(), 0)
    assert n2_closed_form(g) == {1: -1, -1: -1}
    g2 = PlanarTrivalentGraph(th.twin, th.nxt, th.wide, frozenset(), 1)
    assert n2_closed_form(g2) == {1: -2, -1: -2}
    assert n2_closed_form(PlanarMap([], [], [], frozenset(), 0)) == {0: 1}


def test_n2_closed_form_rejects_crossings():
    # the Hopf link's N=2 value is q^2 + q^-2, not the graph formula's 1
    with pytest.raises(ValueError):
        n2_closed_form(braid_to_link(parse_braid("1 1")))


def test_n2_matches_specialization():
    rng = random.Random(43)
    _passes(check_n2(random_trivalent_graph(rng, max_vertices=10)
                     for _ in range(15)))


def _crossed_regraphs(seed: int, count: int):
    """Knotted-graph diagrams with both wide-edge vertices and crossings."""
    rng = random.Random(seed)
    out = []
    while len(out) < count:
        d = random_regraph(rng, max_crossings=4, max_wide=3)
        if d.crossings():
            out.append(d)
    return out


def _count_signatures(monkeypatch):
    """Record the literal (twin, nxt, wide) arrays of every signature the
    context's table computes (its miss path); served ones are not calls."""
    import dubrovnik.skein as sk
    calls = []
    real = sk.signature_of_arrays

    def counting(twin, nxt, wide, loops):
        calls.append((tuple(twin), tuple(nxt), tuple(wide)))
        return real(twin, nxt, wide, loops)

    monkeypatch.setattr(sk, "signature_of_arrays", counting)
    return calls


def test_state_sum_signs_each_literal_state_once(monkeypatch):
    from collections import Counter
    from dubrovnik.diagrams import PlanarTrivalentGraph, StateResolver
    monkeypatch.delenv("DUBROVNIK_DEBUG", raising=False)
    calls = _count_signatures(monkeypatch)
    ctx = EvalContext()
    shared = 0
    for d in _crossed_regraphs(59, 8):
        plain = RingElem.zero()
        literal = set()
        resolver = StateResolver(d)
        for choices in itertools.product("ABW", repeat=len(resolver.rots)):
            twin, nxt, wide, loops, na, nb = resolver.resolve_arrays(choices)
            g = PlanarTrivalentGraph._build(twin, nxt, wide, frozenset(), loops)
            plain = plain + RingElem.mono(0, na, nb) * evaluate(g, ctx)
            # the free-loop count joins the signature after signing, so
            # states that differ only in it share one signature call
            literal.add((tuple(twin), tuple(nxt), tuple(wide)))
        calls.clear()
        assert kauffman_state_sum(d, EvalContext()).value == plain
        # the engine's own pieces are signed too; a piece that repeats a
        # state's arrays is served from the table, not signed again
        assert Counter(c for c in calls if c in literal) == Counter(literal)
        shared += len(literal) < 3 ** len(d.crossings())
    assert shared


def test_debug_state_sum_signs_every_state(monkeypatch):
    diagrams = _crossed_regraphs(61, 4)
    expected = [kauffman_state_sum(d, EvalContext()).value for d in diagrams]
    monkeypatch.setenv("DUBROVNIK_DEBUG", "1")
    calls = _count_signatures(monkeypatch)
    for d, value in zip(diagrams, expected):
        calls.clear()
        assert kauffman_state_sum(d, EvalContext()).value == value
        assert len(calls) > 3 ** len(d.crossings())
    # a signature that is not a function of the arrays is caught
    import dubrovnik.skein as sk
    from dubrovnik.skein import InternalError
    stamps = iter(range(10 ** 6))
    monkeypatch.setattr(sk, "signature_of_arrays",
                        lambda *args: (0, ((next(stamps),),)))
    with pytest.raises(InternalError):
        kauffman_state_sum(braid_to_link(parse_braid("1 -1")), EvalContext())


def test_state_sum_makes_one_evaluate_call_per_diagram(monkeypatch):
    import dubrovnik.invariants as inv
    from dubrovnik.maps import signature_of_arrays
    from dubrovnik.diagrams import StateResolver
    monkeypatch.delenv("DUBROVNIK_DEBUG", raising=False)
    calls = []
    real = inv.evaluate
    monkeypatch.setattr(inv, "evaluate", lambda terms, ctx: (
        calls.append(terms) or real(terms, ctx)))
    diagrams = _crossed_regraphs(67, 4) + [
        braid_to_link(parse_braid("n=3; 1 2 1 2 1 2"))]
    ctx = EvalContext()
    for d in diagrams:
        resolver = StateResolver(d)
        sigs = {signature_of_arrays(*resolver.resolve_arrays(ch)[:4])
                for ch in itertools.product("ABW", repeat=len(resolver.rots))}
        assert len(sigs) > 1
        calls.clear()
        before = ctx.stats["distinct_states"]
        kauffman_state_sum(d, ctx)
        # one plain (weight, graph) pair per distinct signature, counted
        [terms] = calls
        assert {len(term) for term in terms} == {2}
        assert len(terms) == len(sigs)
        assert ctx.stats["distinct_states"] - before == len(sigs)


def test_debug_repeat_without_context_recomputes(monkeypatch):
    import dubrovnik.diagrams as D
    monkeypatch.delenv("DUBROVNIK_DEBUG", raising=False)
    d = braid_to_link(parse_braid("n=3; 1 -2 1"))
    value = kauffman_state_sum(d).value
    calls = []
    real = D.StateResolver.resolve_arrays
    monkeypatch.setattr(D.StateResolver, "resolve_arrays",
                        lambda self, ch: calls.append(1) or real(self, ch))
    # the state sum keeps no whole-diagram values: two calls in one shared
    # context enumerate all 3^c states each, in either mode
    for debug in ("", "1"):
        monkeypatch.setenv("DUBROVNIK_DEBUG", debug)
        ctx = EvalContext()
        for _ in range(2):
            calls.clear()
            assert kauffman_state_sum(d, ctx).value == value
            assert len(calls) == 3 ** 3
        assert ctx.stats["state_hits"] == 0
