import random

import pytest

from dubrovnik.corpus import dodecahedral_graphs, random_braid, random_trivalent_graph
from dubrovnik.diagrams import (PlanarTrivalentGraph, parse_braid,
                                parse_regraph)
from dubrovnik.fourvalent import (OracleContext, Planar4Graph, collapse,
                                  evaluate4)
from dubrovnik.maps import InvalidMap, PlanarMap, canonical_signature
from dubrovnik.ring import R_ONE, constants
from dubrovnik.skein import EvalContext, evaluate, h_rotate
from dubrovnik.verify import check_oracle

C = constants()


def theta_graph() -> PlanarTrivalentGraph:
    th = parse_regraph("W(1,2;2,1)")
    return PlanarTrivalentGraph(th.twin, th.nxt, th.wide, frozenset(), 0)


def test_collapse_theta():
    g = collapse(theta_graph())
    assert g.n_nodes() == 1
    assert g.n_half == 4
    assert evaluate4(g, OracleContext()) == evaluate(theta_graph(), EvalContext())


def test_collapse_circle():
    g = collapse(PlanarTrivalentGraph([], [], [], frozenset(), 1))
    assert g.free_loops == 1 and g.n_half == 0
    assert evaluate4(g) == R_ONE


def test_collapse_ignores_rotation():
    g = theta_graph()
    w = next(h for h in range(g.n_half) if g.wide[h])
    rotated, _ = h_rotate(g, w)
    assert canonical_signature(collapse(rotated)) == canonical_signature(collapse(g))


def test_validation():
    with pytest.raises(InvalidMap):
        Planar4Graph([1, 0], [1, 0], [True, True])   # wide edges forbidden


def test_curl_factor():
    # collapsed dumbbell: one vertex with two curls -> beta
    dumbbell = parse_regraph("W(1,1;2,2)")
    g = collapse(PlanarTrivalentGraph(dumbbell.twin, dumbbell.nxt,
                                      dumbbell.wide, frozenset(), 0))
    assert evaluate4(g, OracleContext()) == C.beta


def _passes(result):
    name, ok, detail = result
    assert ok, f"{name}: {detail}"


def test_collapse_functoriality():
    rng = random.Random(51)
    _passes(check_oracle([random_trivalent_graph(rng, max_vertices=12)
                          for _ in range(30)], [], ()))


def test_collapse_functoriality_girth5():
    _passes(check_oracle(dodecahedral_graphs(2), [], ()))


def test_link_path_equality():
    _passes(check_oracle([], [parse_braid(txt) for txt in
                              ["n=1;", "1 1", "1 1 1", "n=3; 1 2 1 2"]], ()))


def test_knotted_graph_path_equality():
    # the clasped handcuff and random diagrams with crossings and wide edges
    _passes(check_oracle([], []))


def test_order_independence():
    rng = random.Random(57)
    for i in range(10):
        g = collapse(random_trivalent_graph(rng, max_vertices=10))
        vals = {evaluate4(g, OracleContext(rng=random.Random(s)))
                for s in range(4)}
        assert len(vals) == 1, f"oracle value depends on rule order, graph {i}"
