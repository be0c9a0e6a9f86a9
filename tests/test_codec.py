"""Word positions for tables, clocks, families, and clocked pairs."""

import random

import pytest
from hypothesis import given, settings, strategies as st

from conftest import random_table
from tmlab import codec
from tmlab.clocks import ClockedMachine, Parametrized, PlainPoly, compose
from tmlab.codec import (
    ClockedTable,
    InvalidPair,
    clock_index,
    decode_index,
    encode_table,
    family_index,
    family_word_bits,
    is_sigma_image,
    sigma_embed,
)
from tmlab.families import build_q_table
from tmlab.machines import BLANK, MOVES, MachineTable, Rule, trivial_machine
from tmlab.ordinals import OrdinalCNF, omega_power, ord_parse
from tmlab.words import index_word, word_index

ORD1 = ord_parse("1")
ORD2 = ord_parse("2")


def test_trivial_table_is_position_zero():
    assert encode_table(trivial_machine()) == 0
    assert decode_index(0) == trivial_machine()


def test_empty_machine_block_is_the_shared_trivial_machine():
    # position 0 and a sigma word with an empty block (the eps0 clock at
    # k = 2) build no zero-rule table of their own
    assert decode_index(0) is trivial_machine()
    assert decode_index(1970180).machine is trivial_machine()


def test_plain_fallbacks_are_the_shared_trivial_machine(monkeypatch):
    # Every word of length 1..15.  A plain zero-rule answer past position 0
    # is a fallback, and it allocates nothing.  At a decoder budget of 100
    # the eps0 clocks near k = 3 fall back at once instead of after seconds.
    monkeypatch.setattr(codec, "DECODE_EVAL_BUDGET", 100)
    trivial = trivial_machine()
    fallbacks = 0
    for i in range(1, (1 << 16) - 1):
        got = decode_index(i)
        if isinstance(got, MachineTable) and not got.rules:
            assert got is trivial, i
            fallbacks += 1
    assert fallbacks == 65459


def test_machine_block_rejects_by_last_code_as_the_parser_does():
    # Every word of length 1..15 without the family tag, and table texts
    # (none fits in 15 bits) with each of the 8 last codes and a bit more or
    # less: testing the last code first answers what unpacking and parsing
    # the whole text would.
    words = [index_word(i) for i in range(1, (1 << 16) - 1)]
    rng = random.Random(14)
    for _ in range(60):
        packed = codec._pack(codec.table_text(random_table(rng)))
        words += [packed[:-3] + format(c, "03b") for c in range(8)] if packed else []
        words += [packed + "1", packed[:-1]]
    accepted = 0
    for bits in words:
        if bits.startswith(codec.TAG_FAMILY):
            continue
        text = codec._unpack(bits)
        want = None if text is None else codec._parse_table_text(text)
        assert codec._machine_block(bits) == want, bits
        accepted += want is not None
    assert accepted > 40


def test_encode_decode_roundtrip_random_tables():
    rng = random.Random(5)
    for _ in range(80):
        t = random_table(rng)
        assert decode_index(encode_table(t)) == t.canonical()


def test_permuted_rules_get_distinct_codes_same_decode():
    a = Rule(1, "0", 0, "0", "N")
    b = Rule(1, "1", 0, "1", "N")
    t1, t2 = MachineTable((a, b)), MachineTable((b, a))
    assert encode_table(t1) != encode_table(t2)
    assert decode_index(encode_table(t1)) == decode_index(encode_table(t2)) == t1


def test_garbage_decodes_to_trivial():
    # word "011" is the packed character 'L', not a table text
    assert index_word(10) == "011"
    assert decode_index(10) == trivial_machine()
    # a clock word names a clock, not a runnable table
    assert decode_index(clock_index(PlainPoly(2))) == trivial_machine()


def test_decode_is_total_and_sigma_flag_matches():
    # at this scale every structurally valid sigma word also materializes,
    # so the syntactic flag and the decoded type agree exactly
    for i in range(16000):
        decoded = decode_index(i)
        assert isinstance(decoded, (MachineTable, ClockedTable))
        assert is_sigma_image(i) == isinstance(decoded, ClockedTable)


def test_sigma_pin_trivial_pair():
    i = sigma_embed(ClockedMachine(trivial_machine(), PlainPoly(0)))
    assert i == 28
    assert index_word(i) == "1101"
    assert decode_index(i) == ClockedTable(trivial_machine(), PlainPoly(0))
    assert is_sigma_image(i)


def test_sigma_roundtrip_random_pairs():
    rng = random.Random(17)
    for _ in range(60):
        t = random_table(rng).canonical()
        clock = PlainPoly(rng.randint(0, 4))
        i = sigma_embed(ClockedMachine(t, clock))
        assert is_sigma_image(i)
        assert decode_index(i) == ClockedTable(t, clock)


def test_sigma_roundtrip_family_machine():
    table = build_q_table(ORD1, 2)
    clock = Parametrized(ORD1, 2)
    i = sigma_embed(ClockedMachine(table, clock))
    assert is_sigma_image(i)
    got = decode_index(i)
    assert got == ClockedTable(table, clock)
    assert got.machine.family_key == (ORD1, 2, 16)


def test_sigma_injective():
    rng = random.Random(29)
    pairs = {ClockedMachine(trivial_machine(), PlainPoly(p)) for p in range(10)}
    while len(pairs) < 110:
        pairs.add(ClockedMachine(random_table(rng).canonical(),
                                 PlainPoly(rng.randint(0, 3))))
    indices = {sigma_embed(p) for p in pairs}
    assert len(indices) == len(pairs)


def test_sigma_rejects_non_pairs():
    p = ClockedMachine(trivial_machine(), PlainPoly(1))
    with pytest.raises(InvalidPair):
        sigma_embed(compose(p, p))
    with pytest.raises(InvalidPair):
        sigma_embed(ClockedMachine(decode_index(28), PlainPoly(1)))
    with pytest.raises(InvalidPair):
        sigma_embed(ClockedMachine(trivial_machine(), "poly:1"))


def test_non_images_are_rejected():
    assert not is_sigma_image(encode_table(trivial_machine()))
    assert not is_sigma_image(family_index(ORD1, 3, 16))
    assert not is_sigma_image(clock_index(PlainPoly(1)))
    rng = random.Random(41)
    for _ in range(40):
        assert not is_sigma_image(encode_table(random_table(rng)))


def test_corrupted_sigma_words_are_rejected():
    good = index_word(sigma_embed(ClockedMachine(
        MachineTable((Rule(1, "1", 0, "1", "N"),)), PlainPoly(1))))
    assert not is_sigma_image(word_index(good + "1"))  # tail no longer 3-bit packed
    fam = index_word(sigma_embed(ClockedMachine(build_q_table(ORD1, 1),
                                                Parametrized(ORD1, 1))))
    flipped = fam[:-1] + ("0" if fam[-1] == "1" else "1")
    assert not is_sigma_image(word_index(flipped))  # broken trailing marker


def test_family_word_decodes_to_built_table():
    for n in range(4):
        assert decode_index(family_index(ORD1, n, 16)) == build_q_table(ORD1, n, 16)


def test_family_word_shape_and_stride():
    assert len(index_word(family_index(ORD1, 0, 16))) == 41
    for alpha, stride in [(ORD1, 1 << 14), (ORD2, 1 << 16)]:
        idx = [family_index(alpha, n, 16) for n in range(9)]
        assert {b - a for a, b in zip(idx, idx[1:])} == {stride}
        assert idx == [idx[0] + n * stride for n in range(9)]


def test_clock_word_stride():
    idx = [clock_index(Parametrized(ORD1, n, 16)) for n in range(9)]
    assert {b - a for a, b in zip(idx, idx[1:])} == {1 << 14}


def test_family_out_of_desk_reach_decodes_to_trivial():
    # threshold F_1(3000) = 6000 exceeds the materialization bound
    assert decode_index(family_index(ORD1, 3000, 16)) == trivial_machine()


def test_sigma_with_unmaterializable_clock():
    # hand-assembled pair word: the clock exponent F_w(2000) is far beyond
    # desk evaluation, so recognition (syntactic) and decoding (budgeted) split
    bits = (codec.TAG_SIGMA + "1" + format(16, "08b") + format(2000, "016b")
            + codec._alpha_bits(ord_parse("w")))
    i = word_index(bits)
    assert is_sigma_image(i)
    assert decode_index(i) == trivial_machine()


def test_gamma_block_pins_and_roundtrip():
    assert [codec._gamma(k) for k in (1, 2, 3, 4)] == ["1", "010", "011", "00100"]
    for k in range(1, 200):
        got = codec._read_gamma(codec._gamma(k), 0)
        assert got == (k, len(codec._gamma(k)))


def test_ordinal_block_pins():
    assert codec._ord_bits(ord_parse("0")) == "1"
    assert codec._ord_bits(ord_parse("1")) == "01011"
    for text in ["w", "w^w+w*2+1", "w^(w^w)*3", "w^2*7+5"]:
        a = ord_parse(text)
        bits = codec._ord_bits(a)
        assert codec._read_ord(bits, 0) == (a, len(bits))


def test_family_word_field_validation():
    with pytest.raises(ValueError):
        family_word_bits(ORD1, 0, 0)
    with pytest.raises(ValueError):
        family_word_bits(ORD1, 256, 8)


def test_family_words_at_the_width_bounds():
    # widths 1 and 255 are the ends of the 8-bit width field; each reads back
    for width in (1, 255):
        n = (1 << width) - 1
        bits = family_word_bits(ORD1, n, width)
        assert codec._read_family(bits) == (ORD1, n, width)
    with pytest.raises(ValueError):
        family_word_bits(ORD1, 0, 256)


def _tower(height):
    """w^w^...^0 with height w's: its ordinal block nests height levels deep."""
    a = ord_parse("0")
    for _ in range(height):
        a = omega_power(a)
    return a


def test_ordinal_block_depth_bound():
    # is_sigma_image parses the level block and evaluates nothing
    def sigma_word(alpha):
        block = family_word_bits(alpha, 0, 1)
        return word_index(codec.TAG_SIGMA + codec._clockspec_bits(PlainPoly(1)) + block)

    assert is_sigma_image(sigma_word(_tower(codec._MAX_ORD_DEPTH)))
    assert not is_sigma_image(sigma_word(_tower(codec._MAX_ORD_DEPTH + 1)))


def _fields(level_block):
    """Clock-spec and family-word fields: width 4, k or n = 1, and a level
    block given as bits."""
    return format(4, "08b") + format(1, "04b") + "0" + level_block


def _fgh_sigma_word(level_block, machine_bits=""):
    """A sigma word under an fgh clock with _fields(level_block); the empty
    machine block is the trivial machine."""
    return word_index(codec.TAG_SIGMA + "1" + _fields(level_block) + machine_bits)


def _crafted_block(terms):
    """An ordinal block with the given (exponent, coefficient) terms, written
    in the given order whether or not they descend."""
    return codec._gamma(len(terms) + 1) + "".join(
        codec._ord_bits(e) + codec._gamma(c) for e, c in terms)


def _assert_rejected(i):
    assert not is_sigma_image(i)
    assert decode_index(i) is trivial_machine()


def test_ordinal_blocks_out_of_normal_form_are_rejected():
    zero, one = ord_parse("0"), ord_parse("1")
    assert is_sigma_image(_fgh_sigma_word(_crafted_block([(one, 1), (zero, 1)])))  # w + 1
    for terms in ([(zero, 1), (one, 1)], [(one, 1), (one, 2)], [(zero, 3), (zero, 1)]):
        block = _crafted_block(terms)
        with pytest.raises(ValueError, match="strictly descending"):
            OrdinalCNF(tuple(terms))
        assert codec._read_ord(block, 0) is None, terms
        _assert_rejected(_fgh_sigma_word(block))


def test_truncated_ordinal_coefficient_is_rejected():
    # one term with exponent 0, then the start of a coefficient of at least 4
    block = codec._gamma(2) + codec._ord_bits(ord_parse("0")) + "00"
    assert codec._read_ord(block, 0) is None
    _assert_rejected(_fgh_sigma_word(block))
    _assert_rejected(word_index(codec.TAG_FAMILY + _fields(block)))


def test_family_word_with_a_wrong_tail_is_rejected():
    head = codec.TAG_FAMILY + codec._param_bits(ORD1, 1, 4)
    good = head + codec.E_MARKER
    assert decode_index(word_index(good)) == build_q_table(ORD1, 1, 4)
    assert is_sigma_image(_fgh_sigma_word(_crafted_block([]), good))
    flipped = codec.E_MARKER[:-1] + ("0" if codec.E_MARKER[-1] == "1" else "1")
    for tail in ("", codec.E_MARKER[:-1], flipped, codec.E_MARKER + "0", codec.E_MARKER * 2):
        assert codec._read_family(head + tail) is None, tail
        _assert_rejected(word_index(head + tail))
        _assert_rejected(_fgh_sigma_word(_crafted_block([]), head + tail))


_SYMBOL = st.sampled_from(("0", "1", BLANK))
_RULE = st.tuples(st.integers(1, 9), _SYMBOL, st.integers(0, 9), _SYMBOL,
                  st.sampled_from(MOVES))


_TABLES = st.lists(_RULE, max_size=6, unique_by=lambda r: r[:2]).map(
    lambda rules: MachineTable(tuple(Rule(*r) for r in rules)))


@st.composite
def _near_table_texts(draw):
    """table_text of a random table, then at most one near-miss edit: a
    doubled space, a leading zero, an empty line or no final newline."""
    text = codec.table_text(draw(_TABLES))
    edit = draw(st.sampled_from(("none", "space", "zero", "empty line", "no newline")))
    if edit == "no newline":
        return text[:-1]
    spots = {"space": [i for i, c in enumerate(text) if c == " "],
             "zero": [i for i, c in enumerate(text) if c in "01"],
             "empty line": [i + 1 for i, c in enumerate(text) if c == "\n"] + [0]}.get(edit)
    if not spots:
        return text
    i = draw(st.sampled_from(spots))
    insert = {"space": " ", "zero": "0", "empty line": "\n"}[edit]
    return text[:i] + insert + text[i:]


@settings(deadline=None, max_examples=400)
@given(st.one_of(_near_table_texts(), st.text(alphabet=codec._CHARS, max_size=40)))
def test_table_text_parser_accepts_only_its_image(text):
    # recognition relies on this: a text the strict parser accepts is exactly
    # table_text of the parsed table, so no re-serialization check is needed
    table = codec._parse_table_text(text)
    assert table is None or codec.table_text(table) == text


@settings(deadline=None, max_examples=200)
@given(_TABLES)
def test_table_text_parser_reads_its_image_back(table):
    # the other direction: a parser that rejected everything would pass the
    # test above, but must give back every table from its unedited text
    assert codec._parse_table_text(codec.table_text(table)) == table
