"""Canonical enumeration of binary words and the quadratic pairing bijection.

The enumeration lists words by length, then numerically: position of a word of
length L and binary value v is 2^L - 1 + v, so it starts

    0 -> "" (empty), 1 -> "0", 2 -> "1", 3 -> "00", 4 -> "01", ...

Every natural number used as a machine input/output or SAT component in this
package denotes the word at that position.
"""

from math import isqrt


def index_word(i: int) -> str:
    """Word at position i of the canonical enumeration."""
    if i < 0:
        raise ValueError("word position must be >= 0")
    return bin(i + 1)[3:]  # i + 1 = 2^L + v: drop the "0b1" in front of v's L bits


def binary_word(w: str) -> str:
    """w itself when it is over {0,1}, else a ValueError."""
    if w.strip("01"):
        raise ValueError("input word must be over {0,1}: %r" % w)
    return w


def word_index(w: str) -> int:
    """Position of word w; inverse of index_word."""
    binary_word(w)
    if not w:
        return 0
    return (1 << len(w)) - 1 + int(w, 2)


def decimal(text: str, signed: bool = False) -> int:
    """The integer an ASCII decimal numeral spells: one or more of 0-9, after
    one leading "-" when signed.  Any other text, the non-ASCII digits, "_",
    "+" and spaces that int() accepts among them, is a ValueError with
    int()'s message."""
    digits = text[1:] if signed and text.startswith("-") else text
    if not (digits.isascii() and digits.isdigit()):
        raise ValueError("invalid literal for int() with base 10: %r" % text)
    return int(text)


def pair(x: int, y: int) -> int:
    """Cantor pairing (x+y)(x+y+1)/2 + y; a degree-2 polynomial bijection."""
    s = x + y
    return s * (s + 1) // 2 + y


def unpair(z: int) -> tuple[int, int]:
    """Inverse of pair."""
    if z < 0:
        raise ValueError("pair codes are >= 0")
    s = (isqrt(8 * z + 1) - 1) // 2
    y = z - s * (s + 1) // 2
    return s - y, y


def proj1(z: int) -> int:
    return unpair(z)[0]


def proj2(z: int) -> int:
    return unpair(z)[1]
