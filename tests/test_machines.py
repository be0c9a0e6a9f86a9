"""Machine model: stepping, running, output convention, table text, and
the run kernel against the step oracle in tm_oracle."""

import copy
import dataclasses
import pickle
import random

import pytest
from hypothesis import given, settings, strategies as st

from conftest import all_words, random_table
from tm_oracle import (
    ALREADY_HALTED,
    Configuration,
    NotHalted,
    initial_config,
    iterate,
    output_word,
    step,
)
from tmlab.machines import (
    Halted,
    InvalidTable,
    MachineTable,
    OutOfFuel,
    Rule,
    format_tm_text,
    parse_tm_text,
    run,
    trivial_machine,
)
from tmlab.families import QTable

LOOP = MachineTable((Rule(1, "_", 1, "_", "N"),))
FLIP_ONE = MachineTable((Rule(1, "1", 0, "0", "N"),))


def test_step_applies_matching_rule():
    c = initial_config(FLIP_ONE, "1")
    nxt = step(FLIP_ONE, c)
    assert nxt.state == 0 and nxt.tape.get(0) == "0" and nxt.steps == 1


def test_step_missing_rule_halts_in_one_step():
    c = initial_config(LOOP, "1")  # reads '1', no rule for it
    nxt = step(LOOP, c)
    assert nxt.state == 0 and nxt.steps == 1 and nxt.tape.get(0) == "1"


def test_step_when_already_halted():
    c = Configuration({}, 0, 0, 3)
    assert step(trivial_machine(), c) is ALREADY_HALTED


def test_run_trivial_machine_is_identity():
    got = run(trivial_machine(), "101", 10)
    assert isinstance(got, Halted) and got.output == "101" and got.steps <= 1


def test_run_loop_exhausts_fuel():
    assert run(LOOP, "", 10) == OutOfFuel(10)


def test_run_single_step_halt():
    assert run(FLIP_ONE, "1", 10) == Halted("0", 1)


def test_run_far_state_index_compiles_small():
    # only mentioned states get a row, so state 2^40 costs one row, not 2^40
    far = MachineTable((Rule(1, "0", 1 << 40, "1", "R"),))
    assert len(far.program) == 12  # states 0, 1, 2^40 and the loop row
    assert run(far, "01", 10) == iterate(far, "01", 10) == Halted("11", 2)


def test_identity_law_all_words_up_to_8():
    t = trivial_machine()
    for w in all_words(8):
        assert run(t, w, 2) == Halted(w, 0)


def test_output_word_contiguous_under_head():
    c = Configuration({0: "1", 1: "0", 2: "1"}, 1, 0, 0)
    assert output_word(c) == "101"


def test_output_word_blank_head_is_empty():
    assert output_word(Configuration({1: "1"}, 0, 0, 0)) == ""


def test_output_word_picks_word_under_head_only():
    tape = {0: "1", 1: "1", 3: "0", 4: "0"}
    assert output_word(Configuration(tape, 4, 0, 0)) == "00"


def test_output_word_requires_halt():
    with pytest.raises(NotHalted):
        output_word(Configuration({}, 0, 2, 0))


def test_duplicate_source_rejected():
    with pytest.raises(InvalidTable, match=r"two rules for \(1, '0'\)"):
        MachineTable((Rule(1, "0", 0, "0", "N"), Rule(1, "0", 1, "1", "N")))
    # one source may hold a rule for each symbol; the repeat is found among them
    with pytest.raises(InvalidTable, match=r"two rules for \(2, '_'\)"):
        MachineTable((Rule(2, "_", 0, "0", "N"), Rule(2, "0", 0, "0", "N"),
                      Rule(1, "_", 0, "0", "N"), Rule(2, "1", 0, "0", "N"),
                      Rule(2, "_", 1, "1", "R")))


def test_rule_from_final_state_rejected():
    with pytest.raises(InvalidTable, match="state 0 is final and cannot be a rule source"):
        MachineTable((Rule(0, "0", 0, "0", "N"),))


def test_bad_symbol_rejected():
    with pytest.raises(InvalidTable, match="symbols must be 0, 1 or blank"):
        MachineTable((Rule(1, "x", 0, "0", "N"),))


@pytest.mark.parametrize("rule, message", [
    (Rule(1, ["0"], 0, "0", "N"), "symbols must be 0, 1 or blank"),
    (Rule(1, "0", 0, ["0"], "N"), "symbols must be 0, 1 or blank"),
    (Rule(1, "0", 0, "0", ["N"]), "move must be L, R or N"),
])
def test_unhashable_field_rejected_as_invalid_table(rule, message):
    with pytest.raises(InvalidTable, match=message):
        MachineTable((rule,))


@pytest.mark.parametrize("rules, message", [
    ((Rule(0, "x", 0, "0", "N"),), "state 0 is final"),  # final source and bad symbol
    ((Rule(1, "0", -1, "0", "X"),), "negative state index"),  # and a bad move
    ((Rule(1, "0", 0, "0", "N"), Rule(1, "0", 0, "0", "X")),  # a repeat with a bad move
     "move must be L, R or N"),
])
def test_rule_with_two_faults_reports_the_first_check(rules, message):
    with pytest.raises(InvalidTable, match=message):
        MachineTable(rules)


@pytest.mark.parametrize("rule", [
    Rule(1.5, "0", 0, "1", "N"),  # accepted and run at one time, then unencodable
    Rule("1", "0", 0, "1", "N"),
    Rule(1, "0", None, "1", "N"),
])
def test_non_integer_state_rejected(rule):
    with pytest.raises(InvalidTable, match="states must be integers"):
        MachineTable((rule,))


def test_equal_entries_are_one_object_across_tables():
    a = MachineTable((Rule(1, "0", 0, "1", "R"),))
    b = MachineTable((Rule(1, "1", 0, "1", "R"), Rule(1, "_", 1, "0", "L")))
    assert a.program[3] == b.program[4] == (1, 1, 0)
    assert a.program[3] is b.program[4]
    other = MachineTable((Rule(1, "1", 1, "_", "N"), Rule(1, "_", 1, "_", "N")))
    assert LOOP.program[5] is other.program[5]  # the entries that jump to the loop row
    assert run(b, "1", 10) == iterate(b, "1", 10)


def test_compiling_changes_neither_equality_nor_hash():
    compiled, fresh = MachineTable(BOUNCER.rules), MachineTable(BOUNCER.rules)
    assert run(compiled, "11", 100) == Halted("", 6)
    assert compiled == fresh and hash(compiled) == hash(fresh)


def test_tables_hold_only_their_rules():
    assert [f.name for f in dataclasses.fields(MachineTable)] == ["rules"]
    member = QTable(FLIP_ONE.rules, threshold=1)
    for table in (FLIP_ONE, member):
        assert not hasattr(table, "__dict__")
    assert run(member, "1", 10) == Halted("0", 1)


@pytest.mark.parametrize("table", [FLIP_ONE, QTable(FLIP_ONE.rules, threshold=1)])
def test_tables_copy_and_pickle(table):
    run(table, "1", 10)
    for twin in (copy.copy(table), copy.deepcopy(table), pickle.loads(pickle.dumps(table))):
        assert twin == table and type(twin) is type(table)
        assert run(twin, "1", 10) == Halted("0", 1)


def test_canonical_sorts_rules():
    t = MachineTable((Rule(2, "_", 0, "0", "N"), Rule(1, "1", 2, "0", "R"),
                      Rule(1, "0", 2, "1", "R")))
    assert [r.state for r in t.canonical().rules] == [1, 1, 2]
    assert [r.read for r in t.canonical().rules] == ["0", "1", "_"]


def test_canonical_of_a_sorted_table_is_itself():
    t = MachineTable((Rule(1, "0", 2, "1", "R"), Rule(1, "1", 2, "0", "R"),
                      Rule(2, "_", 0, "0", "N")))
    assert t.canonical() is t
    assert trivial_machine().canonical() is trivial_machine()


def test_tm_text_roundtrip():
    text = "1 0 2 1 R\n1 1 0 0 N\n2 _ 0 1 N\n"
    t = parse_tm_text(text)
    assert format_tm_text(t) == text
    assert parse_tm_text("\n" + text + "\n") == t  # blank lines ignored


def test_tm_text_rejects_garbage():
    with pytest.raises(InvalidTable):
        parse_tm_text("1 0 2 1\n")
    with pytest.raises(InvalidTable):
        parse_tm_text("1 2 0 0 N\n")
    # an Arabic-Indic one, a superscript two, "_" and a sign are not states
    for state in ["\u0661", "\u00b2", "1_0", "+1"]:
        with pytest.raises(InvalidTable, match="states must be decimal naturals"):
            parse_tm_text("%s 0 0 1 R\n" % state)
        with pytest.raises(InvalidTable, match="states must be decimal naturals"):
            parse_tm_text("1 0 %s 1 R\n" % state)


def _runs_equal(a, b):
    return a == b


@settings(deadline=None, max_examples=150)
@given(st.integers(0, 2 ** 30), st.integers(0, 63), st.integers(0, 40))
def test_determinism_and_fuel_laws(seed, word_value, fuel):
    rng = random.Random(seed)
    t = random_table(rng)
    w = format(word_value, "b") if word_value else ""
    first = run(t, w, fuel)
    assert _runs_equal(first, run(t, w, fuel))  # determinism
    if isinstance(first, Halted):
        assert first.steps <= fuel
        for extra in (1, 7):  # fuel monotonicity
            assert run(t, w, fuel + extra) == first
        assert "_" not in first.output
    else:
        assert first == OutOfFuel(fuel)


def test_run_rejects_non_binary_words():
    t = parse_tm_text("1 0 1 0 R\n")
    for word in ("0_1", "_", "012", "1 0"):
        with pytest.raises(ValueError):
            run(t, word, 10)


# --- the run kernel against the step oracle -----------------------------------

@settings(deadline=None, max_examples=200)
@given(st.integers(0, 2 ** 30), st.text("01", max_size=12), st.integers(0, 3000))
def test_run_agrees_with_step_oracle(seed, w, fuel):
    t = random_table(random.Random(seed), max_states=6)
    want = iterate(t, w, fuel)
    assert run(t, w, fuel) == want
    if isinstance(want, Halted):  # the fuel edge around the halting step
        s = want.steps
        if s:
            assert run(t, w, s - 1) == OutOfFuel(s - 1)
        assert run(t, w, s) == want
        assert run(t, w, s + 1) == want


def _walker(right, left):
    """Writes 1 on `right` cells going right from cell 0, then writes 0 on
    `left` cells going left, steps back onto the last cell written and halts
    there, so the output is the whole block written."""
    rules = [Rule(q, a, q + 1, "1", "R") for q in range(1, right + 1) for a in "01_"]
    rules += [Rule(q, a, q + 1, "0", "L")
              for q in range(right + 1, right + left + 1) for a in "01_"]
    back = right + left + 1
    rules += [Rule(back, a, back + 1, a, "R" if left else "L") for a in "01_"]
    return MachineTable(tuple(rules))


@pytest.mark.parametrize("right, left, word", [
    (100, 300, ""), (150, 160, "1011"), (0, 90, "11"), (90, 0, "0"),
])
def test_run_grows_the_tape_past_both_ends(right, left, word):
    t = _walker(right, left)
    got = run(t, word, 10 ** 4)
    assert got == iterate(t, word, 10 ** 4)
    assert got.steps == right + left + 2


FLIPPER = MachineTable((Rule(1, "0", 1, "1", "N"), Rule(1, "1", 1, "0", "N"),
                        Rule(1, "_", 1, "0", "N")))
# (1, _) -> (2, 1) -> (1, _); the rules on 0 and 1 lead into the cycle
TWO_STATE_CYCLE = MachineTable((Rule(1, "_", 2, "1", "N"), Rule(2, "1", 1, "_", "N"),
                                Rule(1, "0", 1, "_", "N"), Rule(1, "1", 1, "0", "N")))


@pytest.mark.parametrize("table", [FLIPPER, TWO_STATE_CYCLE])
@pytest.mark.parametrize("word", ["", "0", "10"])
@pytest.mark.parametrize("fuel", [0, 1, 10 ** 6])
def test_head_still_loops_run_out_of_any_fuel(table, word, fuel):
    assert run(table, word, fuel) == iterate(table, word, fuel, cycles=True) == OutOfFuel(fuel)


def test_head_still_chain_that_halts_is_not_a_loop():
    chain = MachineTable((Rule(1, "0", 2, "1", "N"), Rule(2, "1", 3, "0", "N"),
                          Rule(3, "0", 4, "1", "N"), Rule(4, "1", 0, "1", "N")))
    assert run(chain, "0", 10) == iterate(chain, "0", 10) == Halted("1", 4)
    assert run(chain, "0", 3) == OutOfFuel(3)
    # the same chain ending in a missing rule, and in a move that leaves
    missing = MachineTable(chain.rules[:3])
    assert run(missing, "01", 10) == iterate(missing, "01", 10) == Halted("11", 4)
    leaves = MachineTable(chain.rules[:3] + (Rule(4, "1", 1, "1", "R"),))
    assert run(leaves, "0", 10 ** 3) == iterate(leaves, "0", 10 ** 3)


BOUNCER = MachineTable(tuple(Rule(*r) for r in (
    (1, "1", 2, "_", "R"), (1, "_", 0, "_", "N"),
    (2, "1", 2, "1", "R"), (2, "_", 3, "_", "L"),
    (3, "1", 4, "_", "L"), (3, "_", 0, "_", "N"),
    (4, "1", 4, "1", "L"), (4, "_", 1, "_", "R"),
)))


def test_bouncer_closed_form():
    """Passing over a block of m ones costs m + 1 steps; one more step halts
    on the empty block."""
    n = 50
    steps = sum(m + 1 for m in range(1, n + 1)) + 1
    assert run(BOUNCER, "1" * n, 10 ** 6) == Halted("", steps)
    assert run(BOUNCER, "1" * n, steps - 1) == OutOfFuel(steps - 1)
    assert iterate(BOUNCER, "1" * n, 10 ** 6) == Halted("", steps)
