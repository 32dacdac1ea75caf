"""Independent ground truth for braid closures: the plain Kauffman bracket.

Nothing here touches the trivalent engine.  The bracket of a braid closure is
the state sum over the 2^c smoothings of its crossings,

    <sigma_i> = t * (identity) + t^-1 * (cup-cap on strands i, i+1)
    <sigma_i^-1> = t^-1 * (identity) + t * (cup-cap)
    <D u O> = d <D>,  d = -t^2 - t^-2,  <O> = 1,

summed here letter by letter with the states grouped by how they connect the
braid's 2n endpoints (a Temperley-Lieb sweep), so long words stay cheap.
`bracket_2c` is the literal 2^c sum, kept as the reference the tests compare
the sweep against.

The engine's value P(a, A, B) of a link diagram maps to this bracket under
A -> t, B -> t^-1, a -> -t^3 (`specialize_value`).
"""

from __future__ import annotations

import itertools

Poly = dict[int, int]          # Laurent polynomial in t: {exponent: coeff}

D_LOOP: Poly = {2: -1, -2: -1}


def padd(p: Poly, q: Poly) -> Poly:
    r = dict(p)
    for e, c in q.items():
        s = r.get(e, 0) + c
        if s:
            r[e] = s
        else:
            r.pop(e, None)
    return r


def pmul(p: Poly, q: Poly) -> Poly:
    r: Poly = {}
    for e1, c1 in p.items():
        for e2, c2 in q.items():
            e = e1 + e2
            s = r.get(e, 0) + c1 * c2
            if s:
                r[e] = s
            else:
                r.pop(e, None)
    return r


def _identity(n: int) -> tuple[int, ...]:
    """Pairing of the 2n endpoints: top j (index j) to bottom j (index n+j)."""
    return tuple(list(range(n, 2 * n)) + list(range(n)))


def _cup_cap(pairing: tuple[int, ...], n: int, i: int) -> tuple[tuple[int, ...], int]:
    """Stack a cup-cap on strands (i, i+1) below; returns (pairing, loops closed)."""
    p = list(pairing)
    a, b = n + i - 1, n + i
    x, y = p[a], p[b]
    loops = 0
    if x == b:
        loops = 1
    else:
        p[x], p[y] = y, x
    p[a], p[b] = b, a
    return tuple(p), loops


def _closure_loops(pairing: tuple[int, ...], n: int) -> int:
    """Circles formed by joining top j to bottom j outside the braid."""
    seen = [False] * (2 * n)
    loops = 0
    for start in range(2 * n):
        if seen[start]:
            continue
        loops += 1
        h = start
        while not seen[h]:
            seen[h] = True
            m = pairing[h]
            seen[m] = True
            h = (m + n) % (2 * n)
    return loops


def _letter_parts(letter: int) -> list[tuple[int, bool]]:
    """(t-exponent, is_cup_cap) for the two smoothings of one crossing."""
    s = 1 if letter > 0 else -1
    return [(s, False), (-s, True)]


def bracket_sweep(n: int, letters) -> Poly:
    """Kauffman bracket of the closure, states merged by endpoint pairing."""
    states: dict[tuple[int, ...], Poly] = {_identity(n): {0: 1}}
    for letter in letters:
        i = abs(letter)
        nxt: dict[tuple[int, ...], Poly] = {}
        for pairing, coeff in states.items():
            for exp, cup in _letter_parts(letter):
                term = {e + exp: c for e, c in coeff.items()}
                if cup:
                    pairing2, loops = _cup_cap(pairing, n, i)
                    if loops:
                        term = pmul(term, D_LOOP)
                else:
                    pairing2 = pairing
                nxt[pairing2] = padd(nxt.get(pairing2, {}), term)
        states = {k: v for k, v in nxt.items() if v}
    return _close(states, n)


def bracket_2c(n: int, letters) -> Poly:
    """The same bracket as one term per smoothing choice (2^c terms)."""
    states: dict[tuple[int, ...], Poly] = {}
    for choice in itertools.product((0, 1), repeat=len(letters)):
        pairing = _identity(n)
        exp = 0
        loops = 0
        for letter, k in zip(letters, choice):
            e, cup = _letter_parts(letter)[k]
            exp += e
            if cup:
                pairing, closed = _cup_cap(pairing, n, abs(letter))
                loops += closed
        term = {exp: 1}
        for _ in range(loops):
            term = pmul(term, D_LOOP)
        states[pairing] = padd(states.get(pairing, {}), term)
    return _close(states, n)


def _close(states: dict[tuple[int, ...], Poly], n: int) -> Poly:
    total: Poly = {}
    for pairing, coeff in states.items():
        term = coeff
        for _ in range(_closure_loops(pairing, n) - 1):
            term = pmul(term, D_LOOP)
        total = padd(total, term)
    return total


def parse_braid_text(text: str) -> tuple[int, list[int]]:
    """The braid grammar the benchmark emits: ``n=<k>; <letters>``."""
    head, _, body = text.partition(";")
    n = int(head.strip().removeprefix("n=").strip())
    return n, [int(tok) for tok in body.split()]


def specialize_value(terms, dpow: int) -> Poly:
    """A -> t, B -> t^-1, a -> -t^3 on (ea, eA, eB, coeff) terms over (A-B)^dpow.

    (A - B) becomes t - t^-1 = t^-1 (t^2 - 1); the division is exact for
    every link value, and a remainder raises ValueError.
    """
    p: Poly = {}
    for ea, eA, eB, c in terms:
        p = padd(p, {3 * ea + eA - eB: -c if ea % 2 else c})
    for _ in range(dpow):
        p = _divide_t2_minus_1(p)
    return {e + dpow: c for e, c in p.items()}


def _divide_t2_minus_1(p: Poly) -> Poly:
    if not p:
        return {}
    rem = dict(p)
    lo = min(rem)
    quot: Poly = {}
    for e in range(max(rem), lo + 1, -1):
        c = rem.pop(e, 0)
        if c:
            quot[e - 2] = c
            rem[e - 2] = rem.get(e - 2, 0) + c
    if any(rem.values()):
        raise ValueError("value is not divisible by t - t^-1")
    return quot


def kink_factor(writhe: int) -> Poly:
    """(-t^3)^writhe, the image of a^writhe."""
    return {3 * writhe: -1 if writhe % 2 else 1}
