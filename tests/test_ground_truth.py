"""Checks whose expected side shares no code with the engine.

The 2-strand torus links are valued by their skein recurrence in exact
rationals at one point, and every braid-closure value is checked for the
parity that the Dubrovnik relation forces on its terms.  Nothing on the
expected side is imported from the package.
"""

import random
from fractions import Fraction

import pytest

from dubrovnik.diagrams import braid_to_link, parse_braid
from dubrovnik.invariants import bracket, kauffman_state_sum
from dubrovnik.skein import EvalContext

# the point of `ring.depends_on_z_only`
POINT_a, POINT_A, POINT_B = Fraction(2, 3), Fraction(5, 7), Fraction(-3, 11)


def at_point(x) -> Fraction:
    """x at (a, A, B) = POINT, read off its numerator terms and its power of
    (A - B) (the evaluator of `ring.depends_on_z_only`)."""
    a, A, B = POINT_a, POINT_A, POINT_B
    num = sum(c * a ** ea * A ** eA * B ** eB
              for (ea, eA, eB), c in x.num.terms.items())
    return num / (A - B) ** x.dpow


def torus_values(a: Fraction, z: Fraction, count: int) -> list[Fraction]:
    """P_0, ..., P_count: the unnormalized value of the closure of s1^n on
    2 strands, by the Dubrovnik relation at its last crossing,
    P_n - P_(n-2) = z (P_(n-1) - a^(-(n-1))), the last term being the
    other smoothing of that crossing, an unknot with n - 1 curls."""
    P = [(a - 1 / a) / z + 1, a]
    for n in range(2, count + 1):
        P.append(P[n - 2] + z * (P[n - 1] - a ** (1 - n)))
    return P


def word(n: int) -> str:
    sign = "-" if n < 0 else ""
    return "n=2; " + " ".join([sign + "1"] * abs(n))


@pytest.mark.parametrize("sign", [1, -1])
def test_two_strand_torus_links_follow_their_recurrence(sign):
    # s1^(-n) is the mirror of s1^n: a -> 1/a and z -> -z
    a = POINT_a if sign > 0 else 1 / POINT_a
    z = sign * (POINT_A - POINT_B)
    expected = torus_values(a, z, 30)
    for n in range(9):
        d = braid_to_link(parse_braid(word(sign * n)))
        assert at_point(kauffman_state_sum(d).value) == expected[n], n
    ctx = EvalContext()
    for n in range(31):
        value = at_point(bracket(parse_braid(word(sign * n)), ctx))
        assert POINT_a ** (sign * n) * value == expected[n], n


def test_closure_values_have_the_parity_of_their_crossings():
    # every numerator term a^i A^j B^k over (A - B)^d of the unnormalized
    # value of a diagram with c crossings has i + j + k - d = c (mod 2)
    rng = random.Random(15)
    for _ in range(60):
        strands = rng.randint(2, 4)
        letters = [rng.choice([-1, 1]) * rng.randint(1, strands - 1)
                   for _ in range(rng.randint(1, 7))]
        text = f"n={strands}; " + " ".join(map(str, letters))
        value = kauffman_state_sum(braid_to_link(parse_braid(text))).value
        for i, j, k in value.num.terms:
            assert (i + j + k - value.dpow - len(letters)) % 2 == 0, text
