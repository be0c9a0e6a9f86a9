"""Cantor normal form ordinals and fundamental sequences."""

import random

import pytest
from hypothesis import given, settings, strategies as st

from tmlab.ordinals import (
    GREATER,
    LESS,
    MAX_NESTING,
    OMEGA,
    ONE,
    ZERO,
    NotLimit,
    OrdinalCNF,
    ParseError,
    clock_index_ordinal,
    from_nat,
    fundamental_sequence,
    is_limit,
    is_successor,
    omega_power,
    ord_add,
    ord_compare,
    ord_format,
    ord_mult_nat,
    ord_parse,
    predecessor,
)


@pytest.mark.parametrize("text", [
    "0", "1", "7", "w", "w*5", "w+1", "w*2+1", "w^2", "w^w",
    "w^w+w*3+2", "w^(w+1)*2", "w^(w^w+1)+w^2*4+3", "w^w^w",
])
def test_parse_format_roundtrip(text):
    assert ord_format(ord_parse(text)) == text


def test_parse_normalizes_addition():
    assert ord_parse("w+1+w") == ord_parse("w*2")
    assert ord_parse("1+w") == OMEGA
    assert ord_parse("w+w") == ord_parse("w*2")
    assert ord_parse("w^2+w+w^2") == ord_parse("w^2*2")


def test_parse_tower_is_right_associative():
    assert ord_parse("w^w^w") == omega_power(omega_power(OMEGA))


@pytest.mark.parametrize("bad", ["", "w^", "2^w", "w*", "+", "w)(", "x", "w^()",
                                 "\u0661", "w*\u0663", "1\u0660", "\u00b2"])
def test_parse_rejects_garbage(bad):
    with pytest.raises(ParseError):
        ord_parse(bad)


def test_parse_bounds_nesting_depth():
    deepest = "w^" * (MAX_NESTING - 1) + "(" + "1" + ")"
    tower = ord_parse(deepest)
    for _ in range(MAX_NESTING - 1):
        tower = tower.terms[0][0]
    assert tower == ONE
    for text in ["w^" * MAX_NESTING + "(1)", "(" * (MAX_NESTING + 1) + "1" + ")" * (MAX_NESTING + 1),
                 "w^(" * (MAX_NESTING // 2) + "w^1" + ")" * (MAX_NESTING // 2)]:
        with pytest.raises(ParseError, match="nests deeper"):
            ord_parse(text)
    # depth is nesting, not length: siblings at the same depth do not add up
    assert ord_parse("+".join(["(w^w^2)"] * 400)) == ord_parse("w^w^2*400")


def test_nat_embedding():
    assert from_nat(0) == ZERO and from_nat(1) == ONE


def test_compare_chain():
    chain = ["0", "1", "2", "w", "w+1", "w*2", "w^2", "w^2+w", "w^w", "w^w^w"]
    terms = [ord_parse(s) for s in chain]
    for i, a in enumerate(terms):
        assert ord_compare(a, a) == 0
        for b in terms[i + 1:]:
            assert ord_compare(a, b) == LESS
            assert ord_compare(b, a) == GREATER


def test_add_is_associative_on_samples():
    samples = [ord_parse(s) for s in ["0", "3", "w", "w+2", "w^2*2", "w^w"]]
    for a in samples:
        for b in samples:
            for c in samples:
                assert ord_add(ord_add(a, b), c) == ord_add(a, ord_add(b, c))


def test_mult_nat():
    assert ord_mult_nat(OMEGA, 3) == ord_parse("w*3")
    assert ord_mult_nat(ord_parse("w^2+w"), 2) == ord_parse("w^2*2+w")
    assert ord_mult_nat(ord_parse("w"), 0) == ZERO
    assert ord_mult_nat(from_nat(4), 3) == from_nat(12)


def test_classification():
    assert not ZERO.terms
    assert is_successor(ONE) and is_successor(ord_parse("w+3"))
    assert is_limit(OMEGA) and is_limit(ord_parse("w^2")) and is_limit(ord_parse("w^w+w"))
    assert not is_limit(ZERO)


def test_predecessor():
    assert predecessor(ord_parse("w+3")) == ord_parse("w+2")
    assert predecessor(ONE) == ZERO
    with pytest.raises(ValueError):
        predecessor(OMEGA)


@pytest.mark.parametrize("lam,x,expect", [
    ("w", 5, "5"),
    ("w", 0, "0"),
    ("w^w", 2, "w^2"),
    ("w^w", 0, "1"),
    ("w^2", 2, "w*2"),
    ("w*3", 4, "w*2+4"),
    ("w^(w+1)", 3, "w^w*3"),
    ("w^w*2", 3, "w^w+w^3"),
    ("w^w+w", 6, "w^w+6"),
    ("w^w^w", 2, "w^w^2"),
])
def test_fundamental_sequence_pins(lam, x, expect):
    assert fundamental_sequence(ord_parse(lam), x) == ord_parse(expect)


def test_fundamental_sequence_is_increasing_and_below():
    for text in ["w", "w^2", "w^w", "w^w*2+w^2", "w^(w^w)"]:
        lam = ord_parse(text)
        prev = None
        for x in range(6):
            member = fundamental_sequence(lam, x)
            assert ord_compare(member, lam) == LESS
            if prev is not None:
                assert ord_compare(prev, member) == LESS
            prev = member


def test_fundamental_sequence_rejects_non_limits():
    with pytest.raises(NotLimit):
        fundamental_sequence(ord_parse("w+1"), 2)
    with pytest.raises(NotLimit):
        fundamental_sequence(ZERO, 2)


def test_clock_index_ordinal_towers():
    assert clock_index_ordinal(0) == OMEGA
    assert clock_index_ordinal(1) == ord_parse("w^w")
    assert clock_index_ordinal(2) == ord_parse("w^w^w")


def _random_ordinal(rng: random.Random, depth: int) -> OrdinalCNF:
    if depth == 0 or rng.random() < 0.4:
        return from_nat(rng.randint(0, 5))
    out = ZERO
    for _ in range(rng.randint(1, 3)):
        term = ord_mult_nat(omega_power(_random_ordinal(rng, depth - 1)),
                            rng.randint(1, 4))
        out = ord_add(out, term)
    return ord_add(out, from_nat(rng.randint(0, 3)))


@settings(deadline=None, max_examples=200)
@given(st.integers(0, 2 ** 30))
def test_random_roundtrip_and_canonicity(seed):
    rng = random.Random(seed)
    a = _random_ordinal(rng, 3)
    assert ord_parse(ord_format(a)) == a
    for e, c in a.terms:
        assert c >= 1
