import pytest
from hypothesis import example, given, settings, strategies as st

from dubrovnik.ring import (MAX_EXPONENT, DivisionFailure, LaurentPoly, R_A,
                            R_A_minus_B, R_B, R_ONE, R_ZERO, R_a, R_a_inv,
                            RingElem, constants, normalize, parse_ring_text,
                            qlaurent_text, specialize_soN,
                            sum_of_products, to_canonical_text)

C = constants()

monomials = st.tuples(st.integers(-3, 3), st.integers(-3, 3), st.integers(-3, 3))
polys = st.dictionaries(monomials, st.integers(-9, 9).filter(bool), max_size=4)
elems = st.builds(lambda t, d: RingElem(LaurentPoly(t), d),
                  polys, st.integers(0, 2))


def test_identity_and_cancellation():
    x = RingElem.mono(2, -1, 3, 5)
    assert x + R_ZERO == x
    inv = RingElem(LaurentPoly.mono(0, 0, 0), 1)
    assert inv + (-inv) == R_ZERO
    assert (inv + (-inv)).dpow == 0


def test_alpha_minus_one():
    # alpha + (-1) = (a - a^-1)/(A - B)
    expected = RingElem(LaurentPoly({(1, 0, 0): 1, (-1, 0, 0): -1}), 1)
    assert C.alpha - R_ONE == expected


def test_unit_inverse():
    inv = RingElem(LaurentPoly.mono(0, 0, 0), 1)
    assert R_A_minus_B * inv == R_ONE


def test_paper_identities():
    assert R_A * C.alpha + R_B + C.beta == R_a
    assert (R_A * R_a_inv + R_B * R_B + R_B * C.beta + C.gamma).is_zero()
    assert (R_A * R_A + R_B * R_B + (R_A + R_B) * C.beta
            + R_A * R_B * C.alpha + C.gamma).is_zero()
    assert (R_A * R_B * C.beta + (R_A + R_B) * C.gamma - C.delta).is_zero()


def test_constants_mirror_invariant():
    for x in (C.alpha, C.beta, C.gamma, C.delta):
        assert x.swap_AB_invert_a() == x


def test_normalize_examples():
    # (A-B)*a over one power of (A-B) collapses to a
    num = (R_A_minus_B * R_a).num
    assert normalize(num, 1) == R_a
    # a - a^-1 + A - B is not divisible: canonical form keeps the denominator
    num = LaurentPoly({(1, 0, 0): 1, (-1, 0, 0): -1, (0, 1, 0): 1, (0, 0, 1): -1})
    x = normalize(num, 1)
    assert x.dpow == 1 and x.num == num
    assert normalize(LaurentPoly(), 3) == R_ZERO


def test_normalize_idempotent():
    x = normalize((R_A_minus_B * R_A_minus_B * C.beta).num, 5)
    y = RingElem(x.num, x.dpow)
    assert x == y


@settings(max_examples=150, deadline=None)
@given(elems, elems, elems)
def test_ring_axioms(x, y, z):
    assert (x + y) + z == x + (y + z)
    assert x + y == y + x
    assert (x * y) * z == x * (y * z)
    assert x * y == y * x
    assert x * (y + z) == x * y + x * z
    assert x * R_ONE == x
    assert x + R_ZERO == x


def test_sum_of_products_fixed_cases():
    inv = RingElem(LaurentPoly.mono(0, 0, 0), 1)         # 1/(A-B)
    inv2 = RingElem(LaurentPoly.mono(0, 0, 0), 2)
    # all-zero pairs
    zero = sum_of_products([(R_ZERO, C.alpha), (C.beta, R_ZERO)])
    assert zero == R_ZERO and zero.dpow == 0
    assert sum_of_products([]) == R_ZERO
    # mixed denominator powers
    pairs = [(C.alpha, C.gamma), (R_A, R_B), (inv2, C.delta), (inv, R_a)]
    assert sum_of_products(pairs) == (C.alpha * C.gamma + R_A * R_B
                                      + inv2 * C.delta + inv * R_a)
    # a sum that cancels to 0
    nil = sum_of_products([(C.delta, inv), (-C.delta, inv), (R_A, R_B),
                           (R_B, -R_A)])
    assert nil == R_ZERO and nil.dpow == 0 and not nil.num.terms
    # a sum divisible by (A-B)^2 comes back at a lower power:
    # A^2/(A-B)^2 - 2AB/(A-B)^2 + B^2/(A-B)^2 = 1
    one = sum_of_products([(R_A * inv, R_A * inv),
                           (RingElem.mono(0, 0, 0, -2) * inv, R_A * R_B * inv),
                           (R_B * inv, R_B * inv)])
    assert one == R_ONE and one.dpow == 0
    # (A-B)/(A-B)^2 + a/(A-B) = (1 + a)/(A-B)
    low = sum_of_products([(R_A_minus_B, inv2), (R_a, inv)])
    assert low == (R_ONE + R_a) * inv and low.dpow == 1


@settings(max_examples=80, deadline=None)
@given(elems, elems, st.integers(2, 5))
def test_specialize_is_multiplicative(x, y, n):
    try:
        sx, sy, sxy = (specialize_soN(x, n), specialize_soN(y, n),
                       specialize_soN(x * y, n))
    except DivisionFailure:
        return
    prod = {}
    for e1, c1 in sx.items():
        for e2, c2 in sy.items():
            prod[e1 + e2] = prod.get(e1 + e2, 0) + c1 * c2
    assert {e: c for e, c in prod.items() if c} == sxy


def test_specialize_constants_n2():
    assert specialize_soN(C.alpha, 2) == {0: 2}
    assert specialize_soN(C.beta, 2) == {1: -1, -1: -1}
    assert specialize_soN(C.gamma, 2) == {}
    assert specialize_soN(C.delta, 2) == {1: -1, -1: -1}
    assert specialize_soN(R_ONE, 7) == {0: 1}


@pytest.mark.parametrize("n", [2, 3, 4, 5])
def test_specialize_constants_general_n(n):
    # closed forms of the constants under A=q, B=q^-1, a=q^(N-1)
    def frac(hi, lo):
        # (q^hi - q^-hi) / (q - q^-1) = q^(hi-1) + q^(hi-3) + ...
        return {e: 1 for e in range(hi - 1, -hi, -2)}

    got = specialize_soN(C.alpha, n)
    want = dict(frac(n - 1, 1))
    want[0] = want.get(0, 0) + 1
    assert got == {e: c for e, c in want.items() if c}

    got = specialize_soN(C.delta, n)
    want = {e: -1 for e in range(n - 5, 4 - n + 1, 2)} if n != 4 else {}
    # delta = (q^(N-4) - q^(4-N)) / (q - q^-1)
    hi = n - 4
    if hi > 0:
        want = {e: 1 for e in range(hi - 1, -hi, -2)}
    elif hi < 0:
        want = {e: -1 for e in range(-hi - 1, hi, -2)}
    else:
        want = {}
    assert got == want


def test_division_failure():
    with pytest.raises(DivisionFailure):
        specialize_soN(RingElem(LaurentPoly.mono(0, 0, 0), 1), 2)


def test_text_examples():
    assert to_canonical_text(R_ZERO) == "0"
    assert to_canonical_text(C.alpha) == "(a + A - B - a^-1)/(A-B)^1"
    assert to_canonical_text(RingElem.mono(1, -2, 0)) == "a*A^-2"
    assert qlaurent_text(specialize_soN(C.beta, 2)) == "-q - q^-1"
    assert qlaurent_text({}) == "0"


@settings(max_examples=120, deadline=None)
@given(elems)
def test_text_round_trip(x):
    assert parse_ring_text(to_canonical_text(x)) == x


@pytest.mark.parametrize("text", ["", "  ", "-", "/(A-B)^2", "()/(A-B)^1",
                                  "*A", "A + *B", "-*A",
                                  "B*A", "A*A", "a^2*a", "A*a"])
def test_parse_ring_text_rejects_malformed(text):
    """No text reads as a value unless each of its terms is written out as
    `to_canonical_text` writes it: once "" and "  " read as 1, "-" as -1,
    a bare denominator as 1/(A-B)^d, "*A" as A, and a term that repeats a
    variable or writes a, A and B out of order as their product."""
    with pytest.raises(ValueError):
        parse_ring_text(text)


# -- an independent reference kernel over {(ea, eA, eB): coeff} dicts ---------

REF_D = {(0, 1, 0): 1, (0, 0, 1): -1}     # A - B


def ref_add(x, y):
    r = dict(x)
    for m, c in y.items():
        r[m] = r.get(m, 0) + c
    return {m: c for m, c in r.items() if c}


def ref_mul(x, y):
    r = {}
    for (a1, A1, B1), c1 in x.items():
        for (a2, A2, B2), c2 in y.items():
            m = (a1 + a2, A1 + A2, B1 + B2)
            r[m] = r.get(m, 0) + c1 * c2
    return {m: c for m, c in r.items() if c}


def ref_vanishes_at_A_eq_B(x):
    r = {}
    for (ea, eA, eB), c in x.items():
        r[(ea, eA + eB)] = r.get((ea, eA + eB), 0) + c
    return not any(r.values())


def ref_div(x):
    """x / (A - B) for x vanishing at A = B: cancel the top power of A."""
    rest, q = dict(x), {}
    while rest:
        ea, eA, eB = max(rest, key=lambda m: (m[1], m))
        c = rest[(ea, eA, eB)]
        q[(ea, eA - 1, eB)] = c
        rest = ref_add(rest, ref_mul({(ea, eA - 1, eB): -c}, REF_D))
    return q


def ref_normalize(x, d):
    if not x:
        return {}, 0
    while d and ref_vanishes_at_A_eq_B(x):
        x, d = ref_div(x), d - 1
    return x, d


def ref_elem_add(x, y):
    (nx, dx), (ny, dy) = x, y
    for _ in range(dy - dx):
        nx = ref_mul(nx, REF_D)
    for _ in range(dx - dy):
        ny = ref_mul(ny, REF_D)
    return ref_normalize(ref_add(nx, ny), max(dx, dy))


def ref_elem_mul(x, y):
    return ref_normalize(ref_mul(x[0], y[0]), x[1] + y[1])


def as_pair(x):
    return dict(x.num.terms), x.dpow


wide_monos = st.tuples(st.integers(-4, 4), st.integers(-4, 4), st.integers(-4, 4))
raw_nums = st.builds(
    lambda t, k: ref_mul(t, {(0, 0, 0): 1} if k == 0 else
                         ref_mul(REF_D, REF_D) if k == 2 else REF_D),
    st.dictionaries(wide_monos, st.integers(-9, 9).filter(bool), max_size=5),
    st.integers(0, 2))
raws = st.tuples(raw_nums, st.integers(0, 3))
ZERO_OVER_D = ({}, 1)


@settings(max_examples=200, deadline=None)
@given(raws, raws, raws, st.integers(0, 3))
@example(({(0, 0, 0): 1}, 1), ({}, 0), ZERO_OVER_D, 2)
def test_ring_matches_reference_kernel(rx, ry, rz, k):
    x, y, z = (RingElem(LaurentPoly(t), d) for t, d in (rx, ry, rz))
    ex, ey, ez = (ref_normalize(t, d) for t, d in (rx, ry, rz))
    assert as_pair(x) == ex
    assert as_pair(normalize(LaurentPoly(rx[0]), rx[1])) == ex
    assert as_pair(x + y) == ref_elem_add(ex, ey)
    assert as_pair(x - y) == ref_elem_add(ex, ({m: -c for m, c in ey[0].items()},
                                              ey[1]))
    assert as_pair(x * y) == ref_elem_mul(ex, ey)
    assert (as_pair(sum_of_products([(x, R_ONE), (y, R_ONE), (z, R_ONE)]))
            == ref_elem_add(ref_elem_add(ex, ey), ez))
    want = ({(0, 0, 0): 1}, 0)
    for _ in range(k):
        want = ref_elem_mul(want, ex)
    assert as_pair(x ** k) == want


@settings(max_examples=150, deadline=None)
@given(raws, raws, st.integers(0, 3))
@example(({(0, 0, 0): 1}, 1), ({}, 0), 1)
def test_every_result_is_canonical_under_the_reference(rx, ry, k):
    x, y = RingElem(LaurentPoly(rx[0]), rx[1]), RingElem(LaurentPoly(ry[0]), ry[1])
    for r in (x, y, x + y, x - y, y - x, x * y, x ** k,
              sum_of_products([(x, R_ONE), (y, R_ONE), (x, R_ONE)]),
              x.swap_AB_invert_a(), parse_ring_text(to_canonical_text(x * y))):
        num, d = as_pair(r)
        assert d == 0 or (num and not ref_vanishes_at_A_eq_B(num))


# elements whose numerators often carry (A - B) before normalization
mixed_elems = st.one_of(elems, st.builds(lambda r: RingElem(LaurentPoly(r[0]), r[1]),
                                         raws))


@settings(max_examples=150, deadline=None)
@given(st.lists(st.tuples(mixed_elems, mixed_elems), max_size=6))
def test_sum_of_products_matches_fold(pairs):
    want = R_ZERO
    for x, y in pairs:
        want = want + x * y
    got = sum_of_products(pairs)
    assert got == want
    assert got.dpow == 0 or (got.num.terms and not ref_vanishes_at_A_eq_B(
        dict(got.num.terms)))


def test_zero_factor_has_no_denominator():
    inv = RingElem(LaurentPoly.mono(0, 0, 0), 1)
    for r in (inv * R_ZERO, R_ZERO * inv, inv * (R_A_minus_B - R_A_minus_B)):
        assert r == R_ZERO and r.dpow == 0 and not r.num.terms


def test_exponents_past_the_packable_range_raise():
    top = MAX_EXPONENT
    assert RingElem.mono(top, -top, top).num.terms == {(top, -top, top): 1}
    for bad in ((top + 1, 0, 0), (0, -top - 1, 0), (0, 0, top + 1)):
        with pytest.raises(OverflowError):
            LaurentPoly({bad: 1})
        with pytest.raises(OverflowError):
            RingElem.mono(*bad)
    with pytest.raises(OverflowError):
        parse_ring_text(f"a*A^{top + 1}")
    with pytest.raises(OverflowError):
        parse_ring_text(f"a^-{top + 1}")
    half = RingElem.mono(0, 0, top // 2 + 1)
    with pytest.raises(OverflowError):
        half * half
    with pytest.raises(OverflowError):
        sum_of_products([(R_ONE, R_A), (half, half)])
    with pytest.raises(OverflowError):
        R_a ** (top + 1)
    with pytest.raises(OverflowError):
        (R_A + R_B) ** 2 * RingElem.mono(0, top - 1, 0)
    # A loose degree bound alone never raises: the exact check decides.
    up, down = RingElem.mono(top, 0, 0), RingElem.mono(-top, 0, 0)
    assert up * down * (up + R_ONE) * down == R_ONE + down
    assert sum_of_products([(up, down), (up + R_ONE, down)]) == \
        R_ONE + R_ONE + down
    assert parse_ring_text(to_canonical_text(up * R_A)) == up * R_A
