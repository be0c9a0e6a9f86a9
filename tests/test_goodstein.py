"""Goodstein arithmetic as an oracle for the ordinal kernel below epsilon_0.

A natural m written in hereditary base b, with every b replaced by w, is an
ordinal o_b(m) below epsilon_0.  Its shape comes from integer arithmetic
alone, so two classical facts check the package's ordinal functions without
using them to build the expected side:

- m < m' exactly when o_b(m) < o_b(m');
- o_b(m - 1) = P_b(o_b(m)), where P_b takes the fundamental sequence at b
  until a successor remains, then its predecessor.  This is one step of a
  Goodstein sequence (Goodstein, JSL 9, 1944; Cichon, Proc. AMS 87, 1983).
"""

import random

from hypothesis import given, settings, strategies as st

from tmlab.codec import _ord_bits, _read_ord
from tmlab.ordinals import (
    EQUAL,
    GREATER,
    LESS,
    OrdinalCNF,
    fundamental_sequence,
    is_limit,
    ord_compare,
    predecessor,
)


def _cnf(terms: tuple) -> OrdinalCNF:
    """An OrdinalCNF with these terms, built without the constructor's check
    of descending exponents, which calls ord_compare, a function under test."""
    a = object.__new__(OrdinalCNF)
    object.__setattr__(a, "terms", terms)
    return a


def hereditary(m: int, b: int) -> OrdinalCNF:
    """o_b(m): the base-b digits of m, highest first, each exponent again in
    hereditary base b."""
    terms = []
    exponent = 0
    while m:
        m, digit = divmod(m, b)
        if digit:
            terms.append((hereditary(exponent, b), digit))
        exponent += 1
    return _cnf(tuple(reversed(terms)))


# Most fundamental-sequence steps P_b may take: from o_b(m) with m <= 2^64
# the descent takes at most 156.  A wrong sequence can descend for minutes.
DESCENT_STEPS = 400


def goodstein_step(a: OrdinalCNF, b: int) -> OrdinalCNF:
    """P_b: descend along fundamental sequences at b, then subtract one."""
    for _ in range(DESCENT_STEPS):
        if not is_limit(a):
            return predecessor(a)
        a = fundamental_sequence(a, b)
    raise AssertionError("still a limit after %d steps: %r" % (DESCENT_STEPS, a))


def bump(m: int, b: int) -> int:
    """m in hereditary base b, with every b replaced by b + 1."""
    total, exponent = 0, 0
    while m:
        m, digit = divmod(m, b)
        total += digit * (b + 1) ** bump(exponent, b)
        exponent += 1
    return total


def test_hereditary_shapes():
    # 2 = 2^1, 3 = 2^1 + 1, 4 = 2^2, 9 = 2^(2+1) + 1; 10 = 3^2 + 1 in base 3
    zero = _cnf(())
    w = _cnf(((_cnf(((zero, 1),)), 1),))
    assert hereditary(0, 2) == zero
    assert hereditary(2, 2) == w
    assert hereditary(3, 2) == _cnf(w.terms + ((zero, 1),))
    assert hereditary(4, 2) == _cnf(((hereditary(2, 2), 1),))
    assert hereditary(9, 2) == _cnf(((hereditary(3, 2), 1), (zero, 1)))
    assert hereditary(10, 3) == _cnf(((hereditary(2, 3), 1), (zero, 1)))
    assert bump(3, 2) == 4 and bump(4, 2) == 27 and bump(9, 2) == 3 ** 4 + 1


def test_step_is_subtraction_in_every_small_base():
    for b in range(2, 7):
        below = hereditary(0, b)
        for m in range(1, 1000):
            here = hereditary(m, b)
            assert goodstein_step(here, b) == below, (m, b)
            below = here


@settings(max_examples=150, deadline=None, derandomize=True)
@given(m=st.integers(1, 1 << 64), b=st.integers(2, 9))
def test_step_is_subtraction_for_large_naturals(m, b):
    assert goodstein_step(hereditary(m, b), b) == hereditary(m - 1, b)


def test_compare_matches_integer_order_on_small_naturals():
    for b in (2, 3):
        ords = [hereditary(m, b) for m in range(48)]
        for i, a in enumerate(ords):
            for j, c in enumerate(ords):
                assert ord_compare(a, c) == (LESS if i < j else GREATER if i > j else EQUAL)


def test_compare_matches_integer_order_on_random_pairs():
    rng = random.Random(1944)
    for _ in range(1200):
        b = rng.randint(2, 9)
        m, n = rng.randrange(1 << 40), rng.randrange(1 << 40)
        want = LESS if m < n else GREATER if m > n else EQUAL
        # rebuilt, so that the identity shortcut in ord_compare cannot answer
        assert ord_compare(hereditary(m, b), hereditary(n, b)) == want, (m, n, b)


def test_codec_blocks_round_trip():
    for b in (2, 3):
        for m in range(1000):
            a = hereditary(m, b)
            bits = _ord_bits(a)
            assert _read_ord(bits, 0) == (a, len(bits)), (m, b)


@settings(max_examples=100, deadline=None, derandomize=True)
@given(m=st.integers(0, 1 << 200), b=st.integers(2, 9))
def test_codec_blocks_round_trip_for_large_naturals(m, b):
    a = hereditary(m, b)
    bits = _ord_bits(a) + "1"  # a trailing bit the block must not consume
    assert _read_ord(bits, 0) == (a, len(bits) - 1)


def test_goodstein_lengths():
    # G(m): bump the base, subtract one, until 0.  The ordinal descent takes
    # the same number of steps, and matches the integers at every step.
    lengths = []
    for m in range(4):
        value, a, b, steps = m, hereditary(m, 2), 2, 0
        while value:
            value = bump(value, b) - 1
            a = goodstein_step(a, b + 1)
            b += 1
            steps += 1
            assert a == hereditary(value, b), (m, steps)
        assert not a.terms
        lengths.append(steps)
    assert lengths == [0, 1, 3, 5]
