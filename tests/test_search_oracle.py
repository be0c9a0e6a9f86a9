"""f_neg_A against the plain per-z scan.

The oracle checks every z below the budget with verify(z) and then judges the
machine's answer with verify(pair(x, answer)), consulting the machine at the
first verified z of each formula word, and answers with the search's own
values.  f_neg_A must give an equal one: the same Found or Exhausted, and
Indeterminate at the same z when a plain machine runs out of fuel.
"""

import random
import sys

import pytest
from hypothesis import given, settings, strategies as st

from conftest import random_table
from tmlab import clocks, machines, sat
from tmlab.clocks import ClockedMachine, PlainPoly, clocked_run
from tmlab.codec import ClockedTable, decode_index, encode_table, family_index, sigma_embed
from tmlab.machines import OutOfFuel, run
from tmlab.ordinals import ord_parse
from tmlab.sat import Exhausted, Found, Indeterminate, f_neg_A, verify
from tmlab.words import index_word, pair, proj1, word_index

ORD1 = ord_parse("1")


class _Starved(Exception):
    pass


def _oracle_runner(m: int, fuel: int):
    decoded = decode_index(m)
    if isinstance(decoded, ClockedTable):
        p = ClockedMachine(decoded.machine, decoded.clock)
        return lambda word: clocked_run(p, word).output

    def plain(word: str) -> str:
        got = run(decoded, word, fuel)
        if isinstance(got, OutOfFuel):
            raise _Starved()
        return got.output

    return plain


def per_z_scan(m: int, budget: int, fuel: int):
    runner = _oracle_runner(m, fuel)
    answers = {}
    for z in range(budget):
        if verify(z) != 1:
            continue
        x = proj1(z)
        if x not in answers:
            try:
                answers[x] = word_index(runner(index_word(x)))
            except _Starved:
                return Indeterminate(z)
        if verify(pair(x, answers[x])) == 0:
            return Found(z, z)
    return Exhausted(budget)


def _machine(kind: str, rng: random.Random) -> int:
    if kind == "table":
        return encode_table(random_table(rng))
    if kind == "clocked":
        return sigma_embed(ClockedMachine(random_table(rng), PlainPoly(rng.randint(0, 3))))
    n = rng.randint(0, 40)  # a family member: alpha 1, a plain dispatch table
    return family_index(ORD1, n, rng.randint(max(1, n.bit_length()), 16))


@settings(deadline=None, max_examples=120)
@given(st.sampled_from(("table", "clocked", "family")), st.integers(0, 2 ** 30),
       st.integers(0, 3000), st.one_of(st.integers(0, 40), st.just(10 ** 6)))
def test_scan_matches_per_z_oracle(kind, seed, budget, fuel):
    m = _machine(kind, random.Random(seed))
    assert f_neg_A(m, budget, fuel) == per_z_scan(m, budget, fuel)


def test_fuel_starved_member_stops_at_the_same_z():
    # the member answers short formula words within 5 steps, so the scan
    # consults it several times before a longer word runs it out of fuel
    m = family_index(ORD1, 30, 16)
    got = f_neg_A(m, 3000, 5)
    assert got == per_z_scan(m, 3000, 5) == Indeterminate(234)


def _logged(log: list, runner):
    def call(machine, word, *rest):
        log.append(word)
        return runner(machine, word, *rest)
    return call


def _consults(m: int, budget: int, fuel: int) -> tuple:
    """(f_neg_A's outcome, the words it ran the machine on, the oracle's
    outcome, the words the oracle ran the machine on)."""
    ran, consulted = [], []
    with pytest.MonkeyPatch.context() as patch:
        for module, log in ((sat, ran), (sys.modules[__name__], consulted)):
            patch.setattr(module, "run", _logged(log, machines.run))
            patch.setattr(module, "clocked_run", _logged(log, clocks.clocked_run))
        got, want = f_neg_A(m, budget, fuel), per_z_scan(m, budget, fuel)
    return got, ran, want, consulted


@settings(deadline=None, max_examples=120)
@given(st.sampled_from(("table", "clocked", "family")), st.integers(0, 2 ** 30),
       st.integers(0, 3000), st.one_of(st.integers(0, 40), st.just(10 ** 6)))
def test_scan_consults_the_machine_in_the_oracle_order(kind, seed, budget, fuel):
    m = _machine(kind, random.Random(seed))
    got, ran, want, consulted = _consults(m, budget, fuel)
    assert got == want
    assert ran == consulted


def test_a_later_formula_word_can_fail_first():
    # The member with threshold 76 answers "0" past position 76.  That fails
    # formula word 77 (not x3), first verified at z = 3577, and word 80
    # (x1 and x1), first verified at z = 3405: the counterexample is the
    # later word's smaller z, and word 77 is never run.
    assert pair(80, word_index("1")) == 3405 < pair(77, word_index("000")) == 3577
    m = family_index(ORD1, 38, 16)
    got, ran, want, consulted = _consults(m, 5000, 10 ** 6)
    assert got == want == Found(3405, 3405)
    assert ran == consulted
    assert ran[-1] == index_word(80) and index_word(77) not in ran
