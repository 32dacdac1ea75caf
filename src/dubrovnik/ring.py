"""Exact arithmetic in the coefficient ring Z[A^±1, B^±1, a^±1, (A-B)^-1].

Every value is a Laurent polynomial in the commuting variables a, A, B divided
by a power of (A - B), kept in canonical form: the denominator exponent is 0,
or (A - B) does not divide the numerator.  Equality, hashing and printing all
go through the canonical form, so exact comparisons are cheap.

The four constants driving the graph skein relations are

    alpha = (a - a^-1)/(A - B) + 1
    beta  = (A a^-1 - B a)/(A - B) - A - B
    gamma = (B^2 a - A^2 a^-1)/(A - B) + A B
    delta = (B^3 a - A^3 a^-1)/(A - B)

and the SO(N) specialization sends A -> q, B -> q^-1, a -> q^(N-1).

Packed monomials.  A numerator is stored as {key: coeff} with the monomial
a^ea A^eA B^eB packed into one integer in signed digits of base S = 2^32:

    key = (ea * S + eA) * S + eB,        |ea|, |eA|, |eB| <= MAX_EXPONENT

so multiplying monomials adds their keys, and the integer order of keys is
the lexicographic order of (ea, eA, eB).  Each polynomial carries an upper
bound on its largest |exponent|; a product whose bound could leave the
packable range is checked exactly and raises OverflowError instead of letting
a digit wrap into its neighbour.  `LaurentPoly.terms` shows the numerator as
{(ea, eA, eB): coeff}.

Write D = A - B.  D is prime in this UFD, and normalization runs only where
D can divide; three shortcuts skip the rest:

* Sum.  x/D^d1 + y/D^d2 with d1 > d2 is canonical at d1: its numerator
  x + y D^(d1-d2) is x mod D, and D does not divide x.  Only sums of equal
  powers are tested.
* Product.  It needs no test when both powers are 0, or both positive: D
  divides neither numerator then, so, being prime, not their product.
  When exactly one power is 0, only that factor can carry D, so only it is
  divided, never the product.
* Sum of products.  `sum_of_products` multiplies the terms of every pair
  straight into buckets per denominator power and normalizes the whole
  sum once, so no product is normalized on its own.

The test groups the terms by (ea, eA + eB), the monomial left by A = B: D
divides p exactly when every group's coefficients sum to zero.  Aligning
powers multiplies once by D^k, expanded by the binomial theorem.
"""

from __future__ import annotations

from collections.abc import Mapping
from functools import lru_cache
from math import comb
import re

# A monomial is an exponent triple (ea, eA, eB) for a^ea * A^eA * B^eB.
Mono = tuple[int, int, int]

MAX_EXPONENT = 2 ** 30 - 1   # a product of two in-range keys cannot wrap

_SHIFT = 32
_S = 1 << _SHIFT
_H = _S >> 1
_M = _S - 1          # the key step of A/B (one more A, one fewer B)


def _pack(ea: int, eA: int, eB: int) -> int:
    if max(abs(ea), abs(eA), abs(eB)) > MAX_EXPONENT:
        raise OverflowError(f"exponent of a^{ea} A^{eA} B^{eB} is out of range")
    return (ea * _S + eA) * _S + eB


def _unpack(k: int) -> Mono:
    hi = (k + _H) >> _SHIFT              # ea * S + eA
    ea = (hi + _H) >> _SHIFT
    return ea, hi - (ea << _SHIFT), k - (hi << _SHIFT)


def _degree(t: dict[int, int]) -> int:
    """The largest |exponent| in t, raising when it is out of range."""
    deg = 0
    for k in t:
        d = max(map(abs, _unpack(k)))
        if d > deg:
            deg = d
    if deg > MAX_EXPONENT:
        raise OverflowError(f"exponent {deg} is out of range")
    return deg


class _Terms(Mapping):
    """Read-only {(ea, eA, eB): coeff} view of a packed numerator."""

    __slots__ = ("_t",)

    def __init__(self, t: dict[int, int]):
        self._t = t

    def __len__(self) -> int:
        return len(self._t)

    def __iter__(self):
        return map(_unpack, self._t)

    def __getitem__(self, m: Mono) -> int:
        try:
            return self._t[_pack(*m)]
        except OverflowError:
            raise KeyError(m) from None

    def items(self) -> list[tuple[Mono, int]]:
        return [(_unpack(k), c) for k, c in self._t.items()]


class LaurentPoly:
    """Integer Laurent polynomial in a, A, B over packed monomials.

    `_t` is {key: coeff} with no zero coefficient and `_deg` bounds every
    |exponent|; both are shared, never mutated, once the object exists.
    """

    __slots__ = ("_t", "_deg")

    def __init__(self, terms: Mapping[Mono, int] | None = None):
        t: dict[int, int] = {}
        deg = 0
        for (ea, eA, eB), c in (terms or {}).items():
            if c:
                t[_pack(ea, eA, eB)] = c
                deg = max(deg, abs(ea), abs(eA), abs(eB))
        self._t = t
        self._deg = deg

    @property
    def terms(self) -> Mapping[Mono, int]:
        return _Terms(self._t)

    @staticmethod
    def mono(ea: int, eA: int, eB: int, coeff: int = 1) -> "LaurentPoly":
        return LaurentPoly({(ea, eA, eB): coeff})

    def is_zero(self) -> bool:
        return not self._t

    def __eq__(self, other) -> bool:
        return isinstance(other, LaurentPoly) and self._t == other._t

    def __hash__(self) -> int:
        return hash(frozenset(self._t.items()))

    def __neg__(self) -> "LaurentPoly":
        return _poly({k: -c for k, c in self._t.items()}, self._deg)

    def __repr__(self) -> str:
        return f"LaurentPoly({dict(self.terms.items())!r})"


_new = object.__new__


def _poly(t: dict[int, int], deg: int) -> LaurentPoly:
    """A LaurentPoly owning the packed terms t (no zero coefficients)."""
    p = _new(LaurentPoly)
    p._t = t
    p._deg = deg
    return p


def _add(t1: dict[int, int], t2: dict[int, int]) -> dict[int, int]:
    if len(t1) < len(t2):
        t1, t2 = t2, t1
    r = t1.copy()
    get = r.get
    for k, c in t2.items():
        s = get(k, 0) + c
        if s:
            r[k] = s
        else:
            del r[k]
    return r


def _mul(p: LaurentPoly, q: LaurentPoly) -> LaurentPoly:
    t1, t2 = p._t, q._t
    if len(t1) > len(t2):
        t1, t2 = t2, t1
    if not t1:
        return _poly({}, 0)
    if len(t1) == 1:
        # Z has no zero divisors: no coefficient cancels.
        [(k1, c1)] = t1.items()
        if c1 == 1:
            r = {k1 + k: c for k, c in t2.items()}
        else:
            r = {k1 + k: c1 * c for k, c in t2.items()}
    else:
        items = iter(t1.items())
        k1, c1 = next(items)
        r = {k1 + k: c1 * c for k, c in t2.items()}
        get = r.get
        for k1, c1 in items:
            for k2, c2 in t2.items():
                k = k1 + k2
                r[k] = get(k, 0) + c1 * c2
        if 0 in r.values():
            r = {k: c for k, c in r.items() if c}
    deg = p._deg + q._deg
    if deg > MAX_EXPONENT:
        # Every factor exponent is in range, so no digit wrapped; check
        # the product exactly.
        deg = _degree(r)
    return _poly(r, deg)


@lru_cache(maxsize=32)
def _d_power(k: int) -> LaurentPoly:
    """(A - B)^k by the binomial theorem."""
    return _poly({i * _S + k - i: comb(k, i) * (-1) ** (k - i)
                  for i in range(k + 1)}, k)


def _quotient(t: dict[int, int]) -> dict[int, int] | None:
    """t / (A - B) as packed terms, or None when (A - B) does not divide t.

    A term's group (ea, eA + eB) is read off its key as g = ea * S + eA + eB.
    D divides t exactly when every group's coefficients sum to zero.  With
    t = (A - B) q, the coefficients of one group in rising powers of A give
    q_j = -(p_0 + ... + p_j), a running sum; q_j sits at key(p_j) - 1, and
    one step of A within a group adds S - 1 to a key.
    """
    sums: dict[int, int] = {}
    get = sums.get
    for k, c in t.items():
        hi = (k + _H) >> _SHIFT
        g = k + hi - (hi << _SHIFT)
        sums[g] = get(g, 0) + c
    if any(sums.values()):
        return None
    q: dict[int, int] = {}
    run: dict[int, int] = {}        # group -> running sum so far
    last: dict[int, int] = {}       # group -> key of its latest term
    get = run.get
    for k in sorted(t):
        hi = (k + _H) >> _SHIFT
        g = k + hi - (hi << _SHIFT)
        s0 = get(g)
        if s0:
            k0 = last[g]
            if k - k0 == _M:
                q[k0 - 1] = -s0
            else:
                for kq in range(k0 - 1, k - 1, _M):
                    q[kq] = -s0
            run[g] = s0 + t[k]
        else:
            run[g] = t[k]
        last[g] = k
    return q


class RingElem:
    """Canonical element num / (A - B)^dpow of the localized Laurent ring.

    The constructor always brings num / (A - B)^dpow to canonical form; a
    power of 0 is canonical as it stands.
    """

    __slots__ = ("num", "dpow")

    def __init__(self, num: LaurentPoly, dpow: int = 0):
        if dpow < 0:
            raise ValueError("denominator power must be non-negative")
        if dpow:
            num, dpow = _normalize(num, dpow)
        self.num = num
        self.dpow = dpow

    # -- constructors ------------------------------------------------------

    @staticmethod
    def zero() -> "RingElem":
        return _elem(_poly({}, 0), 0)

    @staticmethod
    def one() -> "RingElem":
        return _elem(_poly({0: 1}, 0), 0)

    @staticmethod
    def mono(ea: int, eA: int, eB: int, coeff: int = 1) -> "RingElem":
        return _elem(LaurentPoly.mono(ea, eA, eB, coeff), 0)

    # -- arithmetic --------------------------------------------------------

    def __add__(self, other: "RingElem") -> "RingElem":
        x, y = self.num, other.num
        d, d2 = self.dpow, other.dpow
        if d == d2:
            t = _add(x._t, y._t)
            if not t:
                return _elem(_poly(t, 0), 0)
            num = _poly(t, max(x._deg, y._deg))
            if d:
                num, d = _normalize(num, d)
            return _elem(num, d)
        if d < d2:
            x, y, d, d2 = y, x, d2, d
        # x is not divisible by (A - B), so neither is x + y (A - B)^(d - d2).
        y = _mul(y, _d_power(d - d2))
        return _elem(_poly(_add(x._t, y._t), max(x._deg, y._deg)), d)

    def __neg__(self) -> "RingElem":
        return _elem(-self.num, self.dpow)

    def __sub__(self, other: "RingElem") -> "RingElem":
        return self + (-other)

    def __mul__(self, other: "RingElem") -> "RingElem":
        x, y = self.num, other.num
        if not x._t or not y._t:
            return _elem(_poly({}, 0), 0)
        d, d2 = self.dpow, other.dpow
        # Only a factor over (A - B)^0 can carry (A - B), and a monomial
        # never does: divide that factor against the other's denominator.
        if not d2:
            if d and len(y._t) > 1:
                y, d = _normalize(y, d)
        elif not d:
            if len(x._t) > 1:
                x, d2 = _normalize(x, d2)
        return _elem(_mul(x, y), d + d2)

    def __pow__(self, k: int) -> "RingElem":
        if k < 0:
            raise ValueError("only non-negative powers are supported")
        r = None
        b = self
        while k:
            if k & 1:
                r = b if r is None else r * b
            k >>= 1
            if k:
                b = b * b
        return RingElem.one() if r is None else r

    def is_zero(self) -> bool:
        return not self.num._t

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, RingElem)
            and self.dpow == other.dpow
            and self.num._t == other.num._t
        )

    def __hash__(self) -> int:
        return hash((self.dpow, self.num))

    def __repr__(self) -> str:
        return f"RingElem({to_canonical_text(self)!r})"

    # -- substitutions -----------------------------------------------------

    def swap_AB_invert_a(self) -> "RingElem":
        """Apply A <-> B, a <-> a^-1 (the mirror substitution).

        (A-B) maps to -(A-B), so the denominator contributes a sign.
        """
        sign = -1 if self.dpow % 2 else 1
        t = {}
        for k, c in self.num._t.items():
            ea, eA, eB = _unpack(k)
            t[(-ea * _S + eB) * _S + eA] = sign * c
        return _elem(_poly(t, self.num._deg), self.dpow)


def _elem(num: LaurentPoly, dpow: int) -> RingElem:
    """A RingElem from a numerator and power already in canonical form:
    the one builder that skips normalization, private to the ring."""
    x = _new(RingElem)
    x.num = num
    x.dpow = dpow
    return x


def _normalize(num: LaurentPoly, dpow: int) -> tuple[LaurentPoly, int]:
    t = num._t
    if not t:
        return _poly({}, 0), 0
    d = dpow
    while d:
        q = _quotient(t)
        if q is None:
            break
        t = q
        d -= 1
    if d == dpow:
        return num, dpow
    # A quotient's exponents lie within the dividend's.
    return _poly(t, num._deg), d


def normalize(num: LaurentPoly, dpow: int) -> RingElem:
    """Canonical RingElem for num / (A - B)^dpow."""
    return RingElem(num, dpow)


def sum_of_products(pairs) -> RingElem:
    """The sum of x * y over the (x, y) pairs, normalized once.

    The kernel of every sum of products: each product's packed terms go
    straight into one mutable bucket per denominator power
    x.dpow + y.dpow, with no product formed or normalized on its own; the
    buckets are brought to the common power once and the sum is divided
    by (A - B) once.  A pair whose degree bound could leave the packable
    range is multiplied by `_mul` first, which checks it exactly and
    raises OverflowError as `x * y` does.  A lone pair is `x * y` itself.
    """
    pairs = list(pairs)
    if len(pairs) == 1:
        x, y = pairs[0]
        return x * y
    buckets: dict[int, dict[int, int]] = {}
    deg = 0                          # bounds the exponents of every bucket
    for x, y in pairs:
        p, q = x.num, y.num
        t1, t2 = p._t, q._t
        if not t1 or not t2:
            continue
        d = p._deg + q._deg
        if d > MAX_EXPONENT:
            p = _mul(p, q)
            t1, t2, d = {0: 1}, p._t, p._deg
        elif len(t1) > len(t2):
            t1, t2 = t2, t1
        if d > deg:
            deg = d
        dp = x.dpow + y.dpow
        bucket = buckets.get(dp)
        if bucket is None:
            bucket = buckets[dp] = {}
        get = bucket.get
        for k1, c1 in t1.items():
            for k2, c2 in t2.items():
                k = k1 + k2
                bucket[k] = get(k, 0) + c1 * c2
    top = max(buckets, default=0)
    total = buckets.pop(top, {})
    bound = deg
    get = total.get
    for dp, terms in buckets.items():
        terms = {k: c for k, c in terms.items() if c}
        if terms:
            num = _mul(_poly(terms, deg), _d_power(top - dp))
            bound = max(bound, num._deg)
            for k, c in num._t.items():
                total[k] = get(k, 0) + c
    if 0 in total.values():
        total = {k: c for k, c in total.items() if c}
    return _elem(*_normalize(_poly(total, bound), top))


def depends_on_z_only(x: RingElem) -> bool:
    """Whether x takes equal values at (a, A, B) and (a, A + t, B + t).

    Evaluated exactly in rationals at one fixed point.  A value that depends
    on A and B only through z = A - B (every link value does) always passes;
    a value that depends on A + B as well fails unless the point happens to
    be a root of its difference.
    """
    from fractions import Fraction      # only debug checks and verify use it

    a, A, B, t = Fraction(2, 3), Fraction(5, 7), Fraction(-3, 11), Fraction(13, 17)

    def at(A, B):
        num = sum(c * a ** ea * A ** eA * B ** eB
                  for (ea, eA, eB), c in x.num.terms.items())
        return num / (A - B) ** x.dpow

    return at(A, B) == at(A + t, B + t)


# -- named generators --------------------------------------------------------

_D = LaurentPoly({(0, 1, 0): 1, (0, 0, 1): -1})  # A - B

R_ZERO = RingElem.zero()
R_ONE = RingElem.one()
R_A = RingElem.mono(0, 1, 0)
R_B = RingElem.mono(0, 0, 1)
R_a = RingElem.mono(1, 0, 0)
R_a_inv = RingElem.mono(-1, 0, 0)
R_A_minus_B = _elem(_D, 0)


class Constants:
    """The four skein-relation constants, in canonical form."""

    __slots__ = ("alpha", "beta", "gamma", "delta")

    def __init__(self, alpha: RingElem, beta: RingElem, gamma: RingElem, delta: RingElem):
        self.alpha = alpha
        self.beta = beta
        self.gamma = gamma
        self.delta = delta


@lru_cache(maxsize=1)
def constants() -> Constants:
    alpha = RingElem(LaurentPoly({(1, 0, 0): 1, (-1, 0, 0): -1}), 1) + R_ONE
    beta = (
        RingElem(LaurentPoly({(-1, 1, 0): 1, (1, 0, 1): -1}), 1)
        - R_A
        - R_B
    )
    gamma = (
        RingElem(LaurentPoly({(1, 0, 2): 1, (-1, 2, 0): -1}), 1)
        + R_A * R_B
    )
    delta = RingElem(LaurentPoly({(1, 0, 3): 1, (-1, 3, 0): -1}), 1)
    return Constants(alpha, beta, gamma, delta)


# -- SO(N) specialization ----------------------------------------------------

# One-variable Laurent polynomials in q as {exponent: coeff}.
QLaurent = dict[int, int]


class DivisionFailure(ValueError):
    """(q - q^-1)^dpow does not divide the specialized numerator."""


def _q_divide_q2_minus_1(p: QLaurent) -> QLaurent | None:
    """Exact quotient p / (q^2 - 1) in Z[q^±1], or None."""
    if not p:
        return {}
    lo = min(p)
    coeffs = dict(p)
    hi = max(coeffs)
    quot: QLaurent = {}
    # Divide from the top: p = (q^2 - 1) q + r.
    for e in range(hi, lo + 1, -1):
        c = coeffs.get(e, 0)
        if c:
            quot[e - 2] = c
            coeffs[e - 2] = coeffs.get(e - 2, 0) + c
            del coeffs[e]
    rem = {e: c for e, c in coeffs.items() if c and e <= lo + 1}
    if rem:
        return None
    return quot


def specialize_soN(x: RingElem, N: int) -> QLaurent:
    """Substitute A -> q, B -> q^-1, a -> q^(N-1) and clear the denominator.

    Raises DivisionFailure when (q - q^-1)^dpow does not divide the
    substituted numerator; this never happens for values produced by the
    invariants (every invariant lies in the image of the specialization).
    """
    if N < 2:
        raise ValueError("N must be at least 2")
    p: QLaurent = {}
    for k, c in x.num._t.items():
        ea, eA, eB = _unpack(k)
        e = eA - eB + (N - 1) * ea
        s = p.get(e, 0) + c
        if s:
            p[e] = s
        elif e in p:
            del p[e]
    # (q - q^-1)^d = q^-d (q^2 - 1)^d
    for _ in range(x.dpow):
        q = _q_divide_q2_minus_1(p)
        if q is None:
            raise DivisionFailure(
                f"value is not divisible by (q - q^-1)^{x.dpow} at N={N}"
            )
        p = q
    if x.dpow:
        p = {e + x.dpow: c for e, c in p.items()}
    return p


def qlaurent_text(p: QLaurent) -> str:
    """Render a one-variable Laurent polynomial, highest power first."""
    if not p:
        return "0"
    parts: list[str] = []
    for e in sorted(p, reverse=True):
        c = p[e]
        if e == 0:
            body = str(abs(c))
        else:
            v = "q" if e == 1 else f"q^{e}"
            body = v if abs(c) == 1 else f"{abs(c)}*{v}"
        if not parts:
            parts.append(body if c > 0 else f"-{body}")
        else:
            parts.append(f"+ {body}" if c > 0 else f"- {body}")
    return " ".join(parts)


def qlaurent_mul(p: QLaurent, q: QLaurent) -> QLaurent:
    r: QLaurent = {}
    for e1, c1 in p.items():
        for e2, c2 in q.items():
            e = e1 + e2
            s = r.get(e, 0) + c1 * c2
            if s:
                r[e] = s
            elif e in r:
                del r[e]
    return r


# -- canonical text and parsing ----------------------------------------------

def _mono_factors(ea: int, eA: int, eB: int) -> str:
    out = []
    if ea:
        out.append("a" if ea == 1 else f"a^{ea}")
    if eA:
        out.append("A" if eA == 1 else f"A^{eA}")
    if eB:
        out.append("B" if eB == 1 else f"B^{eB}")
    return "*".join(out)


def to_canonical_text(x: RingElem) -> str:
    """Deterministic rendering; terms sorted by (expa, expA, expB) descending.

    Grammar: terms ``c*a^i*A^j*B^k`` joined by `` + `` / `` - ``; exponent 1
    and coefficient 1 are elided; an optional trailing ``/(A-B)^d`` carries
    the denominator.  Output round-trips through :func:`parse_ring_text`.
    """
    t = x.num._t
    if not t:
        return "0"
    parts: list[str] = []
    for k in sorted(t, reverse=True):
        c = t[k]
        hi = (k + _H) >> _SHIFT
        ea = (hi + _H) >> _SHIFT
        fac = _mono_factors(ea, hi - (ea << _SHIFT), k - (hi << _SHIFT))
        if not fac:
            body = str(abs(c))
        elif abs(c) == 1:
            body = fac
        else:
            body = f"{abs(c)}*{fac}"
        if not parts:
            parts.append(body if c > 0 else f"-{body}")
        else:
            parts.append(f"+ {body}" if c > 0 else f"- {body}")
    num = " ".join(parts)
    if x.dpow == 0:
        return num
    if len(t) > 1:
        num = f"({num})"
    return f"{num}/(A-B)^{x.dpow}"


# A term as to_canonical_text writes it: sign, coefficient, then a, A and B
# each at most once and in this order.  The lookahead keeps a term from
# being empty or beginning with "*".  The pattern is compiled on first use
# (re caches it), not at import.
_CANON_TERM = (r"(-?)(?=[\daAB])(\d*)(?:\*?(a)(?:\^(-?\d+))?)?"
               r"(?:\*?(A)(?:\^(-?\d+))?)?(?:\*?(B)(?:\^(-?\d+))?)?")


def parse_ring_text(text: str) -> RingElem:
    """Parse what `to_canonical_text` writes back into a RingElem.

    Every term must match the canonical term grammar; any other term (an
    empty one, one that begins with "*", or one that repeats a variable or
    writes them out of order, like "B*A") raises ValueError.  An exponent
    past `MAX_EXPONENT` raises OverflowError.
    """
    text = text.strip()
    if text == "0":
        return RingElem.zero()
    dpow = 0
    m = re.search(r"/\(A-B\)\^(\d+)$", text)
    if m:
        dpow = int(m.group(1))
        text = text[: m.start()].strip()
        if text.startswith("(") and text.endswith(")"):
            text = text[1:-1]
    toks = re.split(r"\s+(\+|-)\s+", text)
    # Each variable appears at most once in a term, so the largest exponent
    # written (or 1, left implicit) bounds every exponent.
    deg = max([1, *map(abs, map(int, re.findall(r"\^(-?\d+)", text)))])
    if deg > MAX_EXPONENT:
        raise OverflowError(f"exponent {deg} is out of range")
    terms: dict[int, int] = {}
    get = terms.get
    canon = re.compile(_CANON_TERM).fullmatch
    for i in range(0, len(toks), 2):
        mt = canon(toks[i])
        if mt is None:
            raise ValueError(f"bad term {toks[i]!r}")
        neg, coeff, a, xa, A, xA, B, xB = mt.groups()
        coeff = int(coeff) if coeff else 1
        if neg:
            coeff = -coeff
        if i and toks[i - 1] == "-":
            coeff = -coeff
        ea = int(xa or 1) if a else 0
        eA = int(xA or 1) if A else 0
        eB = int(xB or 1) if B else 0
        key = (ea * _S + eA) * _S + eB
        s = get(key, 0) + coeff
        if s:
            terms[key] = s
        elif key in terms:
            del terms[key]
    return RingElem(_poly(terms, deg), dpow)
