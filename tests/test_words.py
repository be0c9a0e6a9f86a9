"""Word enumeration and pairing."""

import pytest
from hypothesis import given, strategies as st

from conftest import all_words
from tmlab.words import decimal, index_word, pair, proj1, proj2, unpair, word_index

FIRST_SEVEN = ["", "0", "1", "00", "01", "10", "11"]


def test_first_seven_words():
    assert [index_word(i) for i in range(7)] == FIRST_SEVEN


@pytest.mark.parametrize("i,w", [(0, ""), (6, "11"), (7, "000"), (8, "001")])
def test_index_word_pins(i, w):
    assert index_word(i) == w
    assert word_index(w) == i


def test_roundtrip_small_indices():
    for i in range(2048):
        assert word_index(index_word(i)) == i


def test_roundtrip_words_up_to_len_10():
    for w in all_words(10):
        assert index_word(word_index(w)) == w


def test_word_index_rejects_nonbinary():
    with pytest.raises(ValueError, match=r"input word must be over \{0,1\}: '01a'"):
        word_index("01a")


@pytest.mark.parametrize("x,y,z", [(0, 0, 0), (1, 2, 8), (2, 1, 7), (3, 0, 6),
                                   (4, 2, 23), (8, 1, 46), (9, 2, 68), (10, 4, 109)])
def test_pair_pins(x, y, z):
    assert pair(x, y) == z
    assert unpair(z) == (x, y)
    assert proj1(z) == x and proj2(z) == y


def test_pair_bijection_small():
    seen = {}
    for x in range(200):
        for y in range(200):
            z = pair(x, y)
            assert z not in seen
            seen[z] = (x, y)
            assert (proj1(z), proj2(z)) == (x, y)


def test_pair_monotone_in_each_argument():
    for x in range(50):
        for y in range(50):
            assert pair(x + 1, y) > pair(x, y)
            assert pair(x, y + 1) > pair(x, y)


def test_pair_diagonal_closed_form():
    # degree-2 polynomial: the diagonal is exactly 2n^2 + 2n
    for n in range(10 ** 4):
        assert pair(n, n) == 2 * n * n + 2 * n


@given(st.integers(min_value=0, max_value=10 ** 18))
def test_unpair_inverts_pair(z):
    assert pair(*unpair(z)) == z


@given(st.integers(min_value=0, max_value=10 ** 9),
       st.integers(min_value=0, max_value=10 ** 9))
def test_pair_inverts_unpair(x, y):
    assert unpair(pair(x, y)) == (x, y)


def test_decimal_reads_ascii_numerals_only():
    assert decimal("0") == 0
    assert decimal("007") == 7
    assert decimal("12345678901234567890") == 12345678901234567890
    assert decimal("-3", signed=True) == -3
    # int() accepts most of these; a desk numeral is ASCII digits only
    for bad in ["", "-3", "+3", "1_000", " 5", "5 ", "\u0664", "\u00b2", "\uff15", "0x1"]:
        with pytest.raises(ValueError, match="invalid literal for int"):
            decimal(bad)
    for bad in ["-", "--3", "+3", "-\u0663", "- 3"]:
        with pytest.raises(ValueError, match="invalid literal for int"):
            decimal(bad, signed=True)
