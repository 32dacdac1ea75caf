import random

import pytest

from dubrovnik.corpus import (clasped_handcuff, random_braid, random_regraph,
                              random_trivalent_graph)
from dubrovnik.diagrams import (BraidWord, braid_to_link, c_tangle,
                                identity_tangle, parse_braid, parse_pd,
                                parse_regraph, t_tangle)
from dubrovnik.invariants import (MissingWrithe, MixedArity, bracket,
                                  eval_braid, kauffman_state_sum,
                                  n2_closed_form, normalized,
                                  regraph_invariant, rho_expand, so_n, trace)
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
    assert r.source == "stateSum"
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
    r = regraph_invariant(th)
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


def test_so_n():
    assert so_n(eval_braid(parse_braid("n=1;")), 5) == {0: 1}
    hopf = eval_braid(parse_braid("1 1"))
    # (q - q^-1)^2 + 2 = q^2 + q^-2
    assert so_n(hopf, 2) == {2: 1, -2: 1}
    assert specialize_soN(C.alpha, 2) == {0: 2}


def test_clasped_handcuff_example():
    hc = clasped_handcuff()
    r = regraph_invariant(hc)
    assert so_n(r, 2) == {-1: -1, -3: -1}   # q^-2 (-q - q^-1)


def test_one_crossing_vanishing():
    # one crossing whose smoothings both leave the component count alone
    from dubrovnik.corpus import regraph_from_word
    g = regraph_from_word(2, [("W", 1), 1])
    r = regraph_invariant(g)
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
        if d.crossing_nodes():
            out.append(d)
    return out


def _count_signatures(monkeypatch):
    import dubrovnik.invariants as inv
    calls = []
    real = inv.signature_of_arrays

    def counting(*args):
        calls.append(1)
        return real(*args)

    monkeypatch.setattr(inv, "signature_of_arrays", counting)
    return calls


def test_state_sum_signs_each_literal_state_once(monkeypatch):
    from dubrovnik.diagrams import states
    monkeypatch.delenv("DUBROVNIK_DEBUG", raising=False)
    calls = _count_signatures(monkeypatch)
    ctx = EvalContext()
    shared = 0
    for d in _crossed_regraphs(59, 8):
        plain = RingElem.zero()
        literal = set()
        for s in states(d):
            plain = plain + RingElem.mono(0, s.na, s.nb) * evaluate(s.graph, ctx)
            literal.add((tuple(s.graph.twin), s.graph.free_loops))
        calls.clear()
        assert kauffman_state_sum(d, EvalContext()).value == plain
        assert len(calls) == len(literal)
        shared += len(literal) < 3 ** len(d.crossing_nodes())
    assert shared


def test_debug_state_sum_signs_every_state(monkeypatch):
    diagrams = _crossed_regraphs(61, 4)
    expected = [kauffman_state_sum(d, EvalContext()).value for d in diagrams]
    monkeypatch.setenv("DUBROVNIK_DEBUG", "1")
    calls = _count_signatures(monkeypatch)
    for d, value in zip(diagrams, expected):
        calls.clear()
        assert kauffman_state_sum(d, EvalContext()).value == value
        assert len(calls) > 3 ** len(d.crossing_nodes())
    # a signature that is not a function of the arrays is caught
    import dubrovnik.invariants as inv
    from dubrovnik.skein import InternalError
    stamps = iter(range(10 ** 6))
    monkeypatch.setattr(inv, "signature_of_arrays",
                        lambda *args: (0, ((next(stamps),),)))
    with pytest.raises(InternalError):
        kauffman_state_sum(braid_to_link(parse_braid("1 -1")), EvalContext())
