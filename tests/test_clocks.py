"""Polynomial clocks, clocked execution, and composition."""

import random

import pytest

from conftest import all_words, random_table
from tmlab.clocks import (
    BOUND_BITS,
    STEP_CAP,
    BudgetExceeded,
    ClockedMachine,
    Parametrized,
    PlainPoly,
    clock_bound,
    clocked_run,
    compose,
    format_clock,
    parse_clock,
)
from tmlab.machines import Halted, MachineTable, Rule, run, trivial_machine
from tmlab.ordinals import ord_parse

LOOP_ON_ONES = MachineTable((Rule(1, "1", 1, "1", "N"),))


def test_clock_bound_values():
    assert clock_bound(PlainPoly(0), 5) == 1
    assert clock_bound(PlainPoly(1), 2) == 3
    assert clock_bound(PlainPoly(2), 3) == 11
    assert clock_bound(PlainPoly(3), 0) == 3


def test_clock_bound_past_desk_reach_answers_at_once():
    # |x|^E is refused from E and the bit length of |x| alone
    assert clock_bound(PlainPoly(BOUND_BITS // 2), 3) == 3 ** (BOUND_BITS // 2) + BOUND_BITS // 2
    assert clock_bound(PlainPoly(1 << 40), 1) == 1 + (1 << 40)
    assert clock_bound(PlainPoly(1 << 40), 0) == 1 << 40
    for e, n in [(BOUND_BITS // 2 + 1, 2), (1 << 40, 3), (2 ** 1000, 2)]:
        with pytest.raises(BudgetExceeded):
            clock_bound(PlainPoly(e), n)
    with pytest.raises(BudgetExceeded):
        clocked_run(ClockedMachine(LOOP_ON_ONES, parse_clock("fgh:2:40")), "11")


def test_step_cap():
    # a head-still loop is cut at once, so only the bound decides here
    loop = ClockedMachine(LOOP_ON_ONES, PlainPoly(STEP_CAP - 1))
    assert clocked_run(loop, "1") == ("0", STEP_CAP, True)  # bound 1 + E
    with pytest.raises(BudgetExceeded, match="still going at the %d-step cap" % STEP_CAP):
        clocked_run(ClockedMachine(LOOP_ON_ONES, PlainPoly(STEP_CAP)), "1")
    # a walker really runs STEP_CAP steps before it is given up
    walker = MachineTable(tuple(Rule(1, a, 1, a, "R") for a in "01_"))
    assert clocked_run(ClockedMachine(walker, PlainPoly(18)), "11") \
        == ("0", 2 ** 18 + 18, True)
    with pytest.raises(BudgetExceeded):
        clocked_run(ClockedMachine(walker, PlainPoly(40)), "11")
    # a run that halts under a bound past the cap answers as before
    assert clocked_run(ClockedMachine(trivial_machine(), PlainPoly(40)), "11") \
        == ("11", 0, False)


def test_plain_poly_validation():
    with pytest.raises(ValueError):
        PlainPoly(-1)


def test_parametrized_materializes_exponent():
    c = Parametrized(ord_parse("1"), 3)
    assert c.exponent == 6  # F_1(3) = 2*3
    assert Parametrized(ord_parse("2"), 4).exponent == 16
    assert Parametrized("eps0", 2).exponent == 4


def test_parametrized_budget_exceeded():
    with pytest.raises(BudgetExceeded):
        Parametrized(ord_parse("3"), 10, eval_budget=100)


def test_parametrized_field_validation():
    with pytest.raises(ValueError):
        Parametrized(ord_parse("1"), 3, width=0)
    with pytest.raises(ValueError):
        Parametrized(ord_parse("1"), 300, width=8)


def test_parametrized_k_fills_its_field():
    assert Parametrized(ord_parse("1"), 255, width=8).exponent == 510
    with pytest.raises(ValueError, match="k must fit the 8-bit field"):
        Parametrized(ord_parse("1"), 256, width=8)


def test_clocked_identity_halts_before_bound():
    got = clocked_run(ClockedMachine(trivial_machine(), PlainPoly(1)), "11")
    assert got.output == "11" and got.steps <= 1 and not got.cut


def test_clocked_cut_outputs_zero_word():
    got = clocked_run(ClockedMachine(LOOP_ON_ONES, PlainPoly(1)), "11")
    assert got == ("0", 3, True)  # bound 2^1 + 1 = 3, cut at the bound


def test_cut_iff_fueled_run_does_not_halt():
    rng = random.Random(11)
    words = all_words(5)
    for _ in range(60):
        t = random_table(rng)
        clock = PlainPoly(rng.randint(0, 3))
        for w in rng.sample(words, 12):
            bound = clock_bound(clock, len(w))
            clocked = clocked_run(ClockedMachine(t, clock), w)
            plain = run(t, w, bound)
            assert clocked.steps <= bound
            if isinstance(plain, Halted):
                assert clocked == (plain.output, plain.steps, False)
            else:
                assert clocked == ("0", bound, True)


@pytest.mark.parametrize("text,clock", [
    ("poly:2", PlainPoly(2)),
    ("fgh:1:3", Parametrized(ord_parse("1"), 3)),
    ("fgh:w:2", Parametrized(ord_parse("w"), 2)),
    ("fgh:eps0:2", Parametrized("eps0", 2)),
])
def test_clock_text_roundtrip(text, clock):
    assert parse_clock(text) == clock
    assert format_clock(clock) == text


def test_parse_clock_rejects_garbage():
    for bad in ["", "poly:", "poly:x", "fgh:w", "lin:3",
                "poly:1_0", "poly:+3", "poly: 3", "poly:\u0663", "fgh:1:\u0663", "fgh:1:+2"]:
        with pytest.raises(ValueError):
            parse_clock(bad)


def test_clock_level_grammar_pins():
    # a clock's level is ordinal text or eps0, the same level syntax the CLI reads
    assert parse_clock("fgh:eps0:1") == Parametrized("eps0", 1)
    assert format_clock(parse_clock("fgh:eps0:1")) == "fgh:eps0:1"
    for bad, message in [("fgh:eps0", "expected fgh:ALPHA:K in 'fgh:eps0'"),
                         ("fgh:eps1:1", "expected ordinal at 0 in 'eps1'")]:
        with pytest.raises(ValueError) as info:
            parse_clock(bad)
        assert str(info.value) == message


def test_compose_exponent_pin():
    p = compose(ClockedMachine(trivial_machine(), PlainPoly(1)),
                ClockedMachine(trivial_machine(), PlainPoly(2)))
    assert p.clock == PlainPoly(12)  # (1+2)*(2+2)


def test_compose_identity_law():
    p = compose(ClockedMachine(trivial_machine(), PlainPoly(1)),
                ClockedMachine(trivial_machine(), PlainPoly(1)))
    assert clocked_run(p, "101").output == "101"


def test_compose_functional_law_on_corpus():
    rng = random.Random(23)
    words = all_words(8)
    for _ in range(40):
        p1 = ClockedMachine(random_table(rng), PlainPoly(rng.randint(0, 2)))
        p2 = ClockedMachine(random_table(rng), PlainPoly(rng.randint(0, 2)))
        comp = compose(p1, p2)
        for w in rng.sample(words, 10):
            mid = clocked_run(p1, w)
            expected = clocked_run(p2, mid.output)
            got = clocked_run(comp, w)
            assert got.output == expected.output
            assert got.steps == mid.steps + expected.steps
            assert got.cut == (mid.cut or expected.cut)


def test_compose_bound_inequality_exhaustive():
    # L^E + E >= (L^E1 + E1)^E2 + E2 + L^E1 + E1 for E = (E1+2)(E2+2),
    # checked over the whole supported exponent range and L = 0..64
    for e1 in range(3):
        for e2 in range(3):
            e = (e1 + 2) * (e2 + 2)
            for length in range(65):
                inner = length ** e1 + e1
                assert length ** e + e >= inner ** e2 + e2 + inner


def test_compose_bound_inequality_boundary():
    # the chosen envelope is exactly tight to exponents <= 2: at (3, 2) the
    # stated inequality already fails for L = 1, so the corpus stays inside
    e1, e2, length = 3, 2, 1
    e = (e1 + 2) * (e2 + 2)
    inner = length ** e1 + e1
    assert length ** e + e < inner ** e2 + e2 + inner
