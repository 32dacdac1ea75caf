"""Seeded job texts for the four workloads, and the map-to-text serializer.

Every job reaches the program as text: braid words in the ``n=<k>; ...``
grammar, and crossingless graphs as ``W(...)`` records.  The generators use
only `random.Random` seeded by (workload, seed) and their own wiring code, so
the inputs stay fixed while the package under test changes.

Graphs are built as rotation systems (twin, nxt, wide), wrapped in the
package's `PlanarMap` for validation, and written out by `map_to_text`;
the caller checks each round trip through `parse_regraph` by canonical
signature.
"""

from __future__ import annotations

import itertools
import random
from dataclasses import dataclass

DEFAULT_SEED = 1

# (strands, letters, jobs per run).  The state sum costs about 3^letters.
# The job set has three cost groups: 4 letters (20 jobs), 5 letters on 2 and
# 3 strands (16), and 6 letters (20).  As many jobs lie below the 5-letter
# group as above it, so the median job is the middle of that group; the
# tail (ten jobs beyond it) is the middle of the 6-letter group on 2 and 3
# strands.  Both sit in groups whose jobs cost within about 10% of each
# other, so the metrics measure the program rather than which words the
# seed drew; 5-letter words on 4 strands cost 30% more and would not.
# Longer words (7-9 letters, 0.4-5 s a job) made a pass too long to repeat
# often in a run.
LINK_CELLS = [(2, 4, 7), (3, 4, 7), (4, 4, 6),
              (2, 5, 8), (3, 5, 8),
              (2, 6, 8), (3, 6, 8), (4, 6, 4)]

# Cache stream: new diagrams cycle through this (strands, crossings)
# schedule, each a word not drawn before in the stream; every
# REPEAT_EVERY-th job repeats a seeded earlier diagram instead.  A job's
# time is mostly cache load and store, which grow with the file, so the
# median job is the one in the middle of the stream.  2-strand closures keep
# the file's growth, and so that job's time, the same from seed to seed:
# their rows vary 3% in size, against 22% on 3 or 4 strands, where the
# median job's time varied 20% between seeds.  Drawing with replacement let
# a seeded number of "new" diagrams be earlier ones, with the same effect.
CACHE_SCHEDULE = [(2, 5), (2, 4)]
CACHE_JOBS = 32
REPEAT_EVERY = 4

# (strands, letters, runs, positive, jobs per run) for the tangle sweep.
# The sweep's cost follows the number of runs: words of equal runs of two
# letters cost within about 10% of each other whatever the signs, while
# unequal runs, or longer words (3 strands, 16-20 letters; 4 strands,
# 10-12), varied up to tenfold between words of one size.  Three groups of
# twelve: 4-strand words of 6 letters, then 3-strand words of 8 letters,
# which hold the median job, then of 10 letters, which hold the tail.
# With 12-letter words in the top group a pass took 4-6 s, too long to
# repeat often in a run.
SWEEP_CELLS = [(4, 6, 3, False, 6), (4, 6, 3, True, 6),
               (3, 8, 4, False, 12),
               (3, 10, 5, False, 12)]

# Graph mix, smallest to largest: criterion-9 style random states, four for
# each vertex count 4, 6, ..., 12; seeded 4-strand wide-gadget words
# (strands, gadgets, jobs per run); the dodecahedral family; the alternating
# 3-strand gadget words of ALTERNATING_GADGETS gadgets in both orientations.
# A random 8-gadget word costs one of four amounts, set by the pattern of
# its outer gadgets; half of all words take the middle one, and the median
# job sits among them.  The dodecahedra and the alternating words are fixed
# and hold the tail.  4-strand words of 12 gadgets (0.06-0.6 s each) and
# alternating words of 12 and 18 made a pass too long to repeat often; the
# 12-gadget ones also cost less than a dodecahedron and would put the tail
# between the two groups.
RANDOM_GRAPH_SIZES = range(4, 13, 2)
RANDOM_GRAPHS_PER_SIZE = 4
GADGET_CELLS = [(4, 8, 30)]
DODECAHEDRA = 10
ALTERNATING_GADGETS = [14]


@dataclass(frozen=True)
class Job:
    kind: str          # braid | regraph | sweep
    text: str


def braid_text(n: int, letters) -> str:
    return f"n={n}; " + " ".join(str(x) for x in letters)


def _random_letters(rng: random.Random, n: int, k: int) -> list[int]:
    return [rng.randint(1, n - 1) * rng.choice((1, -1)) for _ in range(k)]


def run_word(rng: random.Random, n: int, k: int, runs: int,
             positive: bool) -> list[int]:
    """k letters in `runs` maximal runs of one generator, one sign per run.

    Run lengths are as equal as possible, in seeded order; neighbouring runs
    use adjacent generators (sigma_i, sigma_i+-1); the sign is constant within
    a run.  Unequal runs, far-commuting neighbours and cancelling
    sigma sigma^-1 pairs each made the sweep's cost vary tenfold between
    words of one size.
    """
    lengths = [k // runs + (j < k % runs) for j in range(runs)]
    rng.shuffle(lengths)
    letters: list[int] = []
    prev = None
    for length in lengths:
        i = rng.choice([j for j in range(1, n)
                        if prev is None or abs(j - prev) == 1])
        prev = i
        sign = 1 if positive else rng.choice((1, -1))
        letters += [sign * i] * length
    return letters


# -- graph construction ----------------------------------------------------------

def closure_arrays(n: int, word) -> tuple[list[int], list[int], list[bool]]:
    """Rotation system of the closure of a word of tangle generators.

    Items are ("c", i), the rigid wide gadget on strands (i, i+1), and
    ("t", i), the cup-cap.  Circles that meet no vertex are dropped, since
    W records cannot express them.
    """
    wide: list[bool] = []
    rotations: list[list[int]] = []
    wires: dict[int, list[int]] = {}
    twin: dict[int, int] = {}
    placeholder = itertools.count(-1, -1)

    def half(w: bool = False) -> int:
        wide.append(w)
        return len(wide) - 1

    def connect(x: int, y: int) -> None:
        wires.setdefault(x, []).append(y)
        wires.setdefault(y, []).append(x)

    top = [next(placeholder) for _ in range(n)]
    cur = list(top)
    for kind, i in word:
        a, b = i - 1, i
        if kind == "t":
            connect(cur[a], cur[b])
            cur[a], cur[b] = next(placeholder), next(placeholder)
            connect(cur[a], cur[b])
        else:
            w1, w2 = half(True), half(True)
            twin[w1], twin[w2] = w2, w1
            tl, tr, bl, br = half(), half(), half(), half()
            rotations += [[w1, tr, tl], [w2, bl, br]]
            connect(cur[a], tl)
            connect(cur[b], tr)
            cur[a], cur[b] = bl, br
    for j in range(n):
        if cur[j] != top[j]:
            connect(cur[j], top[j])
    for h in range(len(wide)):
        if h in twin:
            continue
        prev, e = h, wires[h][0]
        while e < 0:            # walk through arcs to the next real half-edge
            ends = wires[e]
            prev, e = e, ends[1] if ends[0] == prev else ends[0]
        twin[h], twin[e] = e, h
    nxt = [0] * len(wide)
    for cyc in rotations:
        for k, h in enumerate(cyc):
            nxt[h] = cyc[(k + 1) % len(cyc)]
    return [twin[h] for h in range(len(wide))], nxt, wide


def random_state_word(rng: random.Random) -> tuple[int, list]:
    """Criterion-9 style: a random state of a random knotted-graph word.

    One to three wide gadgets plus up to four crossings, each crossing
    resolved uniformly into identity, cup-cap or gadget.
    """
    n = rng.randint(2, 4)
    items = [("c", rng.randint(1, n - 1)) for _ in range(rng.randint(1, 3))]
    for _ in range(rng.randint(0, 4)):
        kind = rng.choice(("id", "t", "c"))
        if kind != "id":
            items.append((kind, rng.randint(1, n - 1)))
    rng.shuffle(items)
    return n, items


def gadget_word(rng: random.Random, n: int, k: int) -> list:
    """k wide gadgets, each on a strand pair next to the previous one's.

    Gadgets on far-apart pairs commute, and words with many such pairs
    evaluated several times faster than others of the same length.
    """
    word, prev = [], None
    for _ in range(k):
        i = rng.choice([j for j in range(1, n)
                        if prev is None or abs(j - prev) == 1])
        prev = i
        word.append(("c", i))
    return word


def dodecahedral_arrays(count: int) -> list[tuple[list[int], list[int], list[bool]]]:
    """Dodecahedron with wide edges along its first `count` perfect matchings.

    Every face is a pentagon, so no local rule applies and evaluation must go
    through the move search.
    """
    import networkx as nx
    g = nx.dodecahedral_graph()
    ok, emb = nx.check_planarity(g)
    if not ok:
        raise RuntimeError("dodecahedron reported non-planar")
    rotation = {v: list(emb.neighbors_cw_order(v)) for v in g.nodes()}
    out = []
    for matching in _perfect_matchings(g, count):
        wide_edges = {frozenset(e) for e in matching}
        twin: list[int] = []
        wide: list[bool] = []
        half_of: dict[tuple[int, int], int] = {}
        for u, v in sorted(tuple(sorted(e)) for e in g.edges()):
            w = frozenset((u, v)) in wide_edges
            h = len(twin)
            twin += [h + 1, h]
            wide += [w, w]
            half_of[(u, v)], half_of[(v, u)] = h, h + 1
        nxt = [0] * len(twin)
        for v in sorted(g.nodes()):
            cyc = [half_of[(v, u)] for u in rotation[v]]
            for k, h in enumerate(cyc):
                nxt[h] = cyc[(k + 1) % len(cyc)]
        out.append((twin, nxt, wide))
    return out


def _perfect_matchings(g, limit: int) -> list[tuple[tuple[int, int], ...]]:
    found: list[tuple[tuple[int, int], ...]] = []

    def extend(unmatched: list[int], acc: list[tuple[int, int]]) -> None:
        if len(found) >= limit:
            return
        if not unmatched:
            found.append(tuple(acc))
            return
        u = unmatched[0]
        for v in sorted(g.neighbors(u)):
            if v in unmatched:
                extend([x for x in unmatched if x not in (u, v)], acc + [(u, v)])

    extend(sorted(g.nodes()), [])
    return found


# -- serializer ------------------------------------------------------------------

def map_to_text(m) -> str:
    """W/X records for a map of trivalent vertices and crossings.

    Accepts any object with the `PlanarMap` attributes (twin, nxt, wide, over,
    free_loops, nodes()).  Standard edges are labelled 1, 2, ... in order of
    first use; X records start at an under-strand half-edge, W records list
    the strands counterclockwise around the wide edge, as the parsers expect.
    """
    if m.free_loops:
        raise ValueError("W/X records cannot express free loops")
    labels: dict[int, str] = {}

    def label(h: int) -> str:
        e = min(h, m.twin[h])
        if e not in labels:
            labels[e] = str(len(labels) + 1)
        return labels[e]

    records = []
    for cyc in m.nodes():
        if any(h in m.over for h in cyc):
            if len(cyc) != 4:
                raise ValueError("crossing of degree %d" % len(cyc))
            k = next(i for i, h in enumerate(cyc) if h not in m.over)
            hs = cyc[k:] + cyc[:k]
            records.append("X(%s)" % ",".join(label(h) for h in hs))
            continue
        wides = [h for h in cyc if m.wide[h]]
        if len(cyc) != 3 or len(wides) != 1:
            raise ValueError("node is neither a crossing nor a trivalent vertex")
        w = wides[0]
        t = m.twin[w]
        if w < t:
            records.append("W(%s,%s;%s,%s)" % (
                label(m.nxt[w]), label(m.nxt[m.nxt[w]]),
                label(m.nxt[t]), label(m.nxt[m.nxt[t]])))
    return " ".join(records)


# -- workloads --------------------------------------------------------------------

def _rng(workload: str, seed: int) -> random.Random:
    return random.Random(f"{workload}:{seed}")


def link_jobs(seed: int) -> list[Job]:
    rng = _rng("links", seed)
    return [Job("braid", braid_text(n, _random_letters(rng, n, k)))
            for n, k, count in LINK_CELLS for _ in range(count)]


def cache_jobs(seed: int) -> list[Job]:
    rng = _rng("links-cache", seed)
    jobs: list[Job] = []
    fresh = 0
    for j in range(CACHE_JOBS):
        if j % REPEAT_EVERY == REPEAT_EVERY - 1:
            jobs.append(rng.choice(jobs))
            continue
        n, k = CACHE_SCHEDULE[fresh % len(CACHE_SCHEDULE)]
        fresh += 1
        job = Job("braid", braid_text(n, _random_letters(rng, n, k)))
        while job in jobs:          # a fresh job is a diagram not seen before
            job = Job("braid", braid_text(n, _random_letters(rng, n, k)))
        jobs.append(job)
    return jobs


def sweep_jobs(seed: int) -> list[Job]:
    rng = _rng("braids-sweep", seed)
    return [Job("sweep", braid_text(n, run_word(rng, n, k, runs, positive)))
            for n, k, runs, positive, count in SWEEP_CELLS
            for _ in range(count)]


def graph_arrays(seed: int) -> list[tuple[list[int], list[int], list[bool]]]:
    rng = _rng("graphs", seed)
    by_size: dict[int, list] = {v: [] for v in RANDOM_GRAPH_SIZES}
    while any(len(g) < RANDOM_GRAPHS_PER_SIZE for g in by_size.values()):
        arrays = closure_arrays(*random_state_word(rng))
        same_size = by_size.get(len(arrays[0]) // 3)      # three halves a vertex
        if same_size is not None and len(same_size) < RANDOM_GRAPHS_PER_SIZE:
            same_size.append(arrays)
    out = [g for size in sorted(by_size) for g in by_size[size]]
    out += dodecahedral_arrays(DODECAHEDRA)
    for k in ALTERNATING_GADGETS:
        for start in (1, 2):
            out.append(closure_arrays(3, [("c", 1 + (start + j) % 2)
                                          for j in range(k)]))
    for n, k, count in GADGET_CELLS:
        for _ in range(count):
            out.append(closure_arrays(n, gadget_word(rng, n, k)))
    return out


def graph_jobs(seed: int) -> list[Job]:
    """Graph texts, each checked to parse back to its map."""
    from dubrovnik import PlanarMap, canonical_signature, parse_regraph
    jobs = []
    for i, arrays in enumerate(graph_arrays(seed)):
        m = PlanarMap(*arrays)
        text = map_to_text(m)
        if canonical_signature(parse_regraph(text)) != canonical_signature(m):
            raise RuntimeError(f"graph {i} does not survive the text round trip")
        jobs.append(Job("regraph", text))
    return jobs


GENERATORS = {
    "links": link_jobs,
    "links-cache": cache_jobs,
    "graphs": graph_jobs,
    "braids-sweep": sweep_jobs,
}


def make_jobs(workload: str, seed: int) -> list[Job]:
    return GENERATORS[workload](seed)
