"""Goedel coding: tables, clocks and (machine, clock) pairs as word positions.

Plain machine tables serialize to a text over an 8-symbol alphabet packed
3 bits per character; the text writes state indices in binary so the alphabet
stays at 8 code points.  A strictly valid text always starts with a '0'/'1'
character (first bits 000/001), which leaves bit patterns starting with '1'
free for tagged words:

    sigma word   "11"  ++ clockspec ++ machine block
    family word  "101" ++ width byte ++ n field ++ alpha block ++ E_MARKER
    clock word   "100" ++ clockspec ++ C_MARKER

All tagged layouts are self-delimiting and parsed strictly; any word that is
not a strictly valid table text or tagged word decodes to the trivial machine.
The fixed-width n/k fields make family and clock indices exactly affine in n.
"""

from dataclasses import dataclass
from typing import Optional, Union

from .clocks import (
    EPS0,
    BudgetExceeded,
    ClockedMachine,
    ClockSpec,
    Parametrized,
    PlainPoly,
)
from .machines import BLANK, InvalidTable, MachineTable, Rule, trivial_machine
from .ordinals import OrdinalCNF
from .words import index_word, word_index

TAG_SIGMA = "11"
TAG_FAMILY = "101"
TAG_CLOCK = "100"
E_MARKER = "01011101"  # stands in for the fixed solver-dispatch instruction block
C_MARKER = "10110011"  # stands in for the fixed clock instruction block

_CHARS = "01" + BLANK + "LRN \n"
_CODE = {c: format(i, "03b") for i, c in enumerate(_CHARS)}
_CHAR = {v: k for k, v in _CODE.items()}
_MAX_ORD_DEPTH = 64  # parse limit; no desk-scale ordinal nests deeper


class InvalidPair(ValueError):
    pass


@dataclass(frozen=True, slots=True)
class ClockedTable(ClockedMachine):
    """Decoded sigma word: a machine table together with its embedded clock.
    It runs as it is, under the clock's semantics."""


# --- plain table text -------------------------------------------------------

def table_text(t: MachineTable) -> str:
    """Internal serialization: `q a q' a' d` per line, binary state indices."""
    return "".join(
        "%s %s %s %s %s\n"
        % (format(r.state, "b"), r.read, format(r.next_state, "b"), r.write, r.move)
        for r in t.rules
    )


def _parse_table_text(text: str) -> Optional[MachineTable]:
    # Strict: exactly the format table_text emits (single spaces, newline after
    # every rule, binary numerals without leading zeros).  MachineTable
    # rejects bad symbols and moves.
    if text and not text.endswith("\n"):
        return None
    rules = []
    for line in text.splitlines():
        fields = line.split(" ")
        if len(fields) != 5:
            return None
        q, a, q2, a2, d = fields
        for numeral in (q, q2):
            if not numeral or numeral.strip("01") or (numeral[0] == "0" and numeral != "0"):
                return None
        rules.append(Rule(int(q, 2), a, int(q2, 2), a2, d))
    try:
        return MachineTable(tuple(rules))
    except InvalidTable:
        return None


def _pack(text: str) -> str:
    return "".join(_CODE[c] for c in text)


def _unpack(bits: str) -> Optional[str]:
    if len(bits) % 3:
        return None
    return "".join(_CHAR[bits[i:i + 3]] for i in range(0, len(bits), 3))


def encode_table(t: MachineTable) -> int:
    """Word position of the table's packed serialization (0 for the trivial
    machine); rule order is preserved, so permuted tables get distinct codes."""
    return word_index(_pack(table_text(t)))


# --- self-delimiting number/ordinal blocks ----------------------------------

def _gamma(k: int) -> str:
    # k >= 1: (bitlen-1) zeros, then k in binary
    b = format(k, "b")
    return "0" * (len(b) - 1) + b


def _read_gamma(bits: str, pos: int):
    z = 0
    while pos + z < len(bits) and bits[pos + z] == "0":
        z += 1
    end = pos + 2 * z + 1
    if pos + z >= len(bits) or end > len(bits):
        return None
    return int(bits[pos + z:end], 2), end


def _ord_bits(a: OrdinalCNF) -> str:
    out = [_gamma(len(a.terms) + 1)]
    for e, c in a.terms:
        out.append(_ord_bits(e))
        out.append(_gamma(c))
    return "".join(out)


def _read_ord(bits: str, pos: int, depth: int = 0):
    if depth > _MAX_ORD_DEPTH:
        return None
    got = _read_gamma(bits, pos)
    if got is None:
        return None
    count, pos = got[0] - 1, got[1]
    terms = []
    for _ in range(count):
        got = _read_ord(bits, pos, depth + 1)
        if got is None:
            return None
        e, pos = got
        got = _read_gamma(bits, pos)
        if got is None:
            return None
        c, pos = got
        terms.append((e, c))
    try:
        return OrdinalCNF(tuple(terms)), pos
    except ValueError:
        return None  # not in canonical descending form


def _alpha_bits(alpha) -> str:
    if alpha == EPS0:
        return "1"
    return "0" + _ord_bits(alpha)


def _read_alpha(bits: str, pos: int):
    if pos >= len(bits):
        return None
    if bits[pos] == "1":
        return EPS0, pos + 1
    return _read_ord(bits, pos + 1)


def _param_bits(alpha, k: int, width: int) -> str:
    """The layout clock specs and family words share: a width byte, k in a
    field of that many bits, then the level block."""
    return format(width, "08b") + format(k, "0%db" % width) + _alpha_bits(alpha)


def _read_param(bits: str, pos: int):
    """Strict parse of _param_bits at pos: ((alpha, k, width), end) or None."""
    if pos + 8 > len(bits):
        return None
    width = int(bits[pos:pos + 8], 2)
    pos += 8
    if width < 1 or pos + width > len(bits):
        return None
    k = int(bits[pos:pos + width], 2)
    got = _read_alpha(bits, pos + width)
    if got is None:
        return None
    return (got[0], k, width), got[1]


# --- clock specs and clock words ---------------------------------------------

def _clockspec_bits(c: ClockSpec) -> str:
    if isinstance(c, PlainPoly):
        return "0" + _gamma(c.p + 1)
    return "1" + _param_bits(c.alpha, c.k, c.width)


def _read_clockspec(bits: str, pos: int):
    """Structural parse: returns ("poly", p) or ("fgh", alpha, k, width).
    No hierarchy evaluation happens here, so recognition never needs a budget."""
    if pos >= len(bits):
        return None
    if bits[pos] == "0":
        got = _read_gamma(bits, pos + 1)
        if got is None:
            return None
        return ("poly", got[0] - 1), got[1]
    got = _read_param(bits, pos + 1)
    if got is None:
        return None
    return ("fgh",) + got[0], got[1]


# Decoding must stay a desk operation: clock exponents and family thresholds
# that need more ticks than this to evaluate make the word fall back to the
# trivial machine.
DECODE_EVAL_BUDGET = 10 ** 4


def clocked_pair(machine: MachineTable, spec) -> Union[ClockedTable, MachineTable]:
    """The machine under the clock of _read_clockspec's fields, materialized
    at the decoder's budget; the trivial machine when it is out of reach."""
    try:
        if spec[0] == "poly":
            return ClockedTable(machine, PlainPoly(spec[1]))
        _, alpha, k, width = spec
        return ClockedTable(machine, Parametrized(alpha, k, width,
                                                  eval_budget=DECODE_EVAL_BUDGET))
    except BudgetExceeded:
        return trivial_machine()  # clock exponent out of desk reach


def clock_word_bits(c: ClockSpec) -> str:
    return TAG_CLOCK + _clockspec_bits(c) + C_MARKER


def clock_index(c: ClockSpec) -> int:
    """Position of the clock's own code word in the enumeration."""
    return word_index(clock_word_bits(c))


# --- family words -------------------------------------------------------------

def family_word_bits(alpha, n: int, width: int) -> str:
    if not (1 <= width <= 255):
        raise ValueError("width must be in 1..255")
    if not 0 <= n < (1 << width):
        raise ValueError("n must fit the %d-bit field" % width)
    return TAG_FAMILY + _param_bits(alpha, n, width) + E_MARKER


def family_index(alpha, n: int, width: int) -> int:
    return word_index(family_word_bits(alpha, n, width))


def _read_family(bits: str):
    """Full-word strict parse of a family word: (alpha, n, width) or None."""
    if not bits.startswith(TAG_FAMILY):
        return None
    got = _read_param(bits, len(TAG_FAMILY))
    if got is None or bits[got[1]:] != E_MARKER:
        return None
    return got[0]


# (alpha, n, width) -> the member a family word decodes to.  `families`,
# which imports this module, installs its builder here at its own import.
_family_table = None


# --- sigma embedding -----------------------------------------------------------

def _machine_block_bits(machine: MachineTable) -> str:
    key = getattr(machine, "family_key", None)
    if key is not None:
        return family_word_bits(*key)
    return _pack(table_text(machine))


def sigma_embed(p: ClockedMachine) -> int:
    """Position of the pair's flat code word: clock parameter and instruction
    prefix, then the machine block.  Injective on pairs."""
    if not isinstance(p.machine, MachineTable):
        raise InvalidPair("machine part must be a plain table")
    if not isinstance(p.clock, (PlainPoly, Parametrized)):
        raise InvalidPair("clock part must be a clock spec")
    return word_index(TAG_SIGMA + _clockspec_bits(p.clock) + _machine_block_bits(p.machine))


def _split_sigma(bits: str):
    """Structural parse of a sigma word: (clockspec fields, machine bits)."""
    if not bits.startswith(TAG_SIGMA):
        return None
    got = _read_clockspec(bits, len(TAG_SIGMA))
    if got is None:
        return None
    return got[0], bits[got[1]:]


def _machine_block(bits: str):
    """Strict parse of a machine block: the parsed table of a table text (the
    empty block is the trivial machine), the (alpha, n, width) fields of a
    family word, or None.  Builds nothing, so recognition needs no budget,
    and needs no more than this parse: _parse_table_text accepts exactly
    table_text's image."""
    if bits.startswith(TAG_FAMILY):
        return _read_family(bits)
    if not bits:
        return trivial_machine()
    if not bits.endswith(_CODE["\n"]):
        return None  # every non-empty table text ends with a newline
    text = _unpack(bits)
    return None if text is None else _parse_table_text(text)


def is_sigma_image(i: int) -> bool:
    """Recognize the recursive image of the pair embedding, syntactically."""
    got = _split_sigma(index_word(i))
    return got is not None and _machine_block(got[1]) is not None


def decode_index(i: int) -> Union[MachineTable, ClockedTable]:
    """Total: every position names a machine; garbage falls back to trivial."""
    bits = index_word(i)
    spec = None
    if bits.startswith(TAG_SIGMA):
        got = _split_sigma(bits)
        if got is None:
            return trivial_machine()
        spec, bits = got
    elif bits.startswith(TAG_CLOCK):
        return trivial_machine()  # clock words name clocks, not runnable tables
    block = _machine_block(bits)  # a family word or a table text
    if block is None:
        return trivial_machine()
    machine = _family_table(*block) if isinstance(block, tuple) else block.canonical()
    return machine if spec is None else clocked_pair(machine, spec)
