"""Acceptance suite: one test per criterion, every equality exact.

The criteria are the gate.  Each fixes its seeds, corpus sizes and
wall-clock budget here; the property checks themselves live in
`dubrovnik.verify`, the same suites `dubrovnik verify` runs on its own
inputs.  Each test prints the suites' [PASS]/[FAIL] lines and a single
criterion line (shown with pytest -s or in the captured output), and
enforces its budget.  Run with

    pytest tests/test_acceptance.py -v -s
"""

import random
import time

from dubrovnik import verify as V
from dubrovnik.cli import JobSpec, run
from dubrovnik.corpus import (dodecahedral_graphs, n2_vanishing_diagrams,
                              random_braid, random_regraph,
                              random_trivalent_graph)
from dubrovnik.diagrams import BraidWord, braid_to_link
from dubrovnik.skein import EvalContext

_SHARED = EvalContext()


def report(num: int, ok: bool, label: str, t0: float, limit: float | None):
    dt = time.perf_counter() - t0
    status = "PASS" if ok else "FAIL"
    budget = f" [{dt:.1f}s / {limit:.0f}s]" if limit else f" [{dt:.1f}s]"
    print(f"criterion {num:2d} {status}: {label}{budget}")
    assert ok, f"criterion {num} failed: {label}"
    if limit is not None:
        assert dt < limit, f"criterion {num} exceeded {limit}s ({dt:.1f}s)"


def holds(*results) -> bool:
    """Print each verify-suite result as `dubrovnik verify` does; True when
    every one passed."""
    for name, ok, detail in results:
        print(f"  [{'PASS' if ok else 'FAIL'}] {name}: {detail}")
    return all(ok for _, ok, _ in results)


def test_criterion_01_ring_identities():
    t0 = time.perf_counter()
    report(1, holds(V.check_ring_identities()), "ring identities", t0, 1)


def test_criterion_02_normalization():
    t0 = time.perf_counter()
    report(2, holds(V.check_normalization(5, _SHARED)),
           "unknot and k disjoint circles", t0, 1)


def test_criterion_03_hopf():
    t0 = time.perf_counter()
    report(3, holds(V.check_hopf(_SHARED)), "Hopf link printed value", t0, 1)


BRAID_CORPUS = None


def braid_corpus() -> list[BraidWord]:
    global BRAID_CORPUS
    if BRAID_CORPUS is None:
        rng = random.Random(2024)
        BRAID_CORPUS = [random_braid(rng, max_strands=4, max_letters=8)
                        for _ in range(100)]
    return BRAID_CORPUS


def test_criterion_04_markov_battery():
    t0 = time.perf_counter()
    ok = holds(V.check_markov(braid_corpus(), random.Random(7), _SHARED))
    report(4, ok, "Reidemeister/Markov battery, 100 braids", t0, 60)


def test_criterion_05_dubrovnik_axioms():
    t0 = time.perf_counter()
    rng = random.Random(11)
    braids = (random_braid(rng, max_strands=4, max_letters=6, min_letters=1)
              for _ in range(50))
    ok = holds(V.check_dubrovnik_axioms(braids, rng, _SHARED))
    report(5, ok, "Dubrovnik relation and kink factors, 50 diagrams", t0, 60)


def test_criterion_06_path_agreement():
    t0 = time.perf_counter()
    # oracle agreement on small-braid closures in B2 and B3
    small = [b for b in braid_corpus()
             if b.strands <= 3 and len(b.letters) <= 6]
    rng = random.Random(13)
    while len(small) < 30:
        small.append(random_braid(rng, max_strands=3, max_letters=6))
    links = (braid_to_link(b) for b in braid_corpus())
    ok = holds(V.check_path_agreement(braid_corpus(), _SHARED),
               V.check_oracle((), small, (), _SHARED),
               V.check_link_z_dependence(links, _SHARED))
    report(6, ok, f"bracket vs state sum (100) and 4-valent oracle ({len(small)})",
           t0, 120)


def test_criterion_07_mirror_law():
    t0 = time.perf_counter()
    rng = random.Random(17)
    diagrams = (random_regraph(rng, max_crossings=6, max_wide=4)
                for _ in range(30))
    report(7, holds(V.check_mirror(diagrams, _SHARED)),
           "mirror law on 30 knotted-graph diagrams", t0, None)


def test_criterion_08_product_laws():
    t0 = time.perf_counter()
    rng = random.Random(19)
    pairs = ((random_regraph(rng, max_crossings=3, max_wide=2),
              random_regraph(rng, max_crossings=3, max_wide=2))
             for _ in range(20))
    report(8, holds(V.check_products(pairs, _SHARED)),
           "connected sum and disjoint union, 20 pairs", t0, None)


GRAPH_CORPUS = None


def graph_corpus():
    global GRAPH_CORPUS
    if GRAPH_CORPUS is None:
        rng = random.Random(4096)
        GRAPH_CORPUS = [random_trivalent_graph(rng, max_vertices=12)
                        for _ in range(190)] + dodecahedral_graphs(10)
    return GRAPH_CORPUS


def test_criterion_09_confluence():
    t0 = time.perf_counter()
    ok = holds(V.check_confluence(graph_corpus(), min_fallback=10))
    report(9, ok, "confluence, 200 graphs x 5 strategies, "
                  "at least 10 force the fallback", t0, None)


def test_criterion_10_n2():
    t0 = time.perf_counter()
    vanishing = n2_vanishing_diagrams(random.Random(23), 10)
    ok = holds(V.check_n2(graph_corpus(), vanishing, _SHARED))
    report(10, ok, "N=2 closed form, worked example, 10 vanishing graphs",
           t0, None)


def test_criterion_11_performance(tmp_path, monkeypatch):
    monkeypatch.delenv("DUBROVNIK_DEBUG", raising=False)
    cache = str(tmp_path / "cache.jsonl")
    job = JobSpec("braid", "n=3; 1 2 1 2 1 2 1 2 1 2", cache_path=cache)
    t0 = time.perf_counter()
    doc1 = run(job, EvalContext())
    cold = time.perf_counter() - t0
    t1 = time.perf_counter()
    doc2 = run(job, EvalContext())
    warm = time.perf_counter() - t1
    ok = (doc1["statesEvaluated"] == 59049
          and doc1["value"] == doc2["value"]
          and cold < 60 and cold / warm > 2)
    print(f"  cold {cold:.1f}s, warm {warm:.1f}s, speedup {cold / warm:.1f}x")
    report(11, ok, "59049 states under 60s, cache speedup > 2x", t0, None)
