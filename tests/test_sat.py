"""CNF word coding, the pair checker, the brute solver, and the failure scan."""

import os
import random
import subprocess
import sys
import time
from itertools import groupby, product
from pathlib import Path

import pytest

import tmlab
from tmlab import registry, sat
from tmlab.clocks import ClockedMachine, Parametrized, PlainPoly, clocked_run
from tmlab.codec import decode_index, encode_table, is_sigma_image, sigma_embed
from tmlab.families import build_q_table
from tmlab.machines import Halted, MachineTable, Rule, run
from tmlab.ordinals import ord_parse
from tmlab.sat import (
    DEFAULT_FUEL,
    CnfFormula,
    Exhausted,
    Found,
    Indeterminate,
    MalformedCnf,
    decode_cnf,
    encode_cnf,
    encoded_length,
    f_neg_A,
    f_prime,
    parse_dimacs,
    scan,
    solve_E,
    verify,
    verify_cost,
)
from tmlab.words import index_word, pair, proj1, unpair, word_index

EMPTY_FORMULA = CnfFormula()
V1 = CnfFormula((((1, True),),), 1)

MALFORMED_X = [2, 5, 6, 7, 11, 12, 13, 14, 15, 16, 19]
SOLVED_X = {0: 0, 1: 0, 3: 0, 4: 2, 8: 1, 9: 2, 10: 4, 17: 1, 20: 2, 21: 4}


def _random_formula(rng: random.Random) -> CnfFormula:
    clauses = []
    for _ in range(rng.randint(1, 3)):
        clause = tuple((rng.randint(1, 4), rng.random() < 0.5)
                       for _ in range(rng.randint(1, 3)))
        clauses.append(clause)
    top = max(var for cl in clauses for var, _ in cl)
    return CnfFormula(tuple(clauses), top)


def test_single_positive_literal_pin():
    assert encode_cnf(V1) == "010"
    assert decode_cnf("010") == V1


def test_all_ones_word_is_malformed():
    with pytest.raises(MalformedCnf):
        decode_cnf("111")


def test_empty_formula_codings():
    assert encode_cnf(EMPTY_FORMULA) == ""
    assert encoded_length(EMPTY_FORMULA) == 0
    for w in ["", "0", "00"]:
        assert decode_cnf(w) == EMPTY_FORMULA
    with pytest.raises(MalformedCnf):
        decode_cnf("000")


def test_malformed_word_table():
    for x in MALFORMED_X:
        with pytest.raises(MalformedCnf):
            decode_cnf(index_word(x))
        assert solve_E(x) == 0


def test_solver_value_table():
    for x, e in SOLVED_X.items():
        assert solve_E(x) == e, "E(%d)" % x


def test_solver_returns_first_witness():
    # (v1 OR v2): "01" fails, "10" is the first satisfier in word order
    f = CnfFormula((((1, True), (2, True)),), 2)
    witness = solve_E(word_index(encode_cnf(f)))
    assert index_word(witness) == "01"  # assignment v1=0, v2=1 comes first


def test_solver_unsat_contradiction():
    f = CnfFormula((((1, True),), ((1, False),)), 1)
    assert encode_cnf(f) == "01000010"
    assert solve_E(word_index("01000010")) == 0


def test_roundtrip_generated_formulas():
    rng = random.Random(7)
    for _ in range(200):
        f = _random_formula(rng)
        assert decode_cnf(encode_cnf(f)) == f
        assert encoded_length(f) == len(encode_cnf(f))


def test_decode_then_encode_normalizes():
    for x in range(400):
        try:
            f = decode_cnf(index_word(x))
        except MalformedCnf:
            continue
        assert decode_cnf(encode_cnf(f)) == f


def _groupby_decode_cnf(word):
    """Reference for decode_cnf, over groupby runs."""
    if "1" not in word:
        if len(word) <= 2:
            return EMPTY_FORMULA
        raise MalformedCnf("over-long empty coding")
    runs = [(ch, len(list(grp))) for ch, grp in groupby(word)]
    if runs[0][0] != "0":
        raise MalformedCnf("missing polarity prefix")
    if runs[0][1] > 2:
        raise MalformedCnf("over-long polarity prefix")
    positive = runs[0][1] == 1
    clauses, clause = [], []
    i = 1
    while i < len(runs):
        clause.append((runs[i][1], positive))
        i += 1
        if i == len(runs):
            break
        gap = runs[i][1]
        i += 1
        if i == len(runs):
            if gap > 1:
                raise MalformedCnf("over-long trailing zeros")
            break
        if gap in (1, 2):
            positive = gap == 1
        elif gap in (3, 4):
            clauses.append(tuple(clause))
            clause = []
            positive = gap == 3
        else:
            raise MalformedCnf("separator run of length %d" % gap)
    clauses.append(tuple(clause))
    return CnfFormula(tuple(clauses), max(var for cl in clauses for var, _ in cl))


def _decoded_or_message(decoder, word):
    try:
        return decoder(word)
    except MalformedCnf as err:
        return str(err)


def test_decode_cnf_matches_groupby_oracle():
    messages = set()
    for x in range((1 << 15) - 1):  # every word up to length 14
        w = index_word(x)
        got = _decoded_or_message(decode_cnf, w)
        assert got == _decoded_or_message(_groupby_decode_cnf, w), w
        assert sat._formula_or_none(w) == (None if isinstance(got, str) else got), w
        if isinstance(got, str):
            messages.add(got.split(" of length")[0])
    assert messages == {"over-long empty coding", "missing polarity prefix",
                        "over-long polarity prefix", "over-long trailing zeros",
                        "separator run"}


def test_verify_pins():
    assert verify(pair(0, 0)) == 1
    for z in [1, 6, 23, 46, 68]:
        assert verify(z) == 1, "z=%d" % z
    assert verify(pair(9, 4)) == 0  # assignment word longer than num_vars
    assert verify(pair(0, 1)) == 0  # empty formula wants the empty assignment
    assert verify(pair(9, 1)) == 0  # wrong truth value
    assert verify(pair(2, 0)) == 0  # malformed formula word


def test_verify_against_direct_evaluation():
    rng = random.Random(13)
    for _ in range(150):
        f = _random_formula(rng)
        x = word_index(encode_cnf(f))
        for bits in product("01", repeat=f.num_vars):
            assignment = "".join(bits)
            expected = all(any(assignment[var - 1] == ("1" if pos else "0")
                               for var, pos in clause)
                           for clause in f.clauses)
            assert verify(pair(x, word_index(assignment))) == int(expected)


def test_verify_cost_is_quadratic():
    rng = random.Random(19)
    zs = list(range(600)) + [rng.randrange(10 ** 9) for _ in range(200)]
    for z in zs:
        bit, ops = verify_cost(z)
        assert bit == verify(z)
        assert ops <= 64 * (z.bit_length() + 2) ** 2


def _verify_cost_oracle(z):
    """Reference for verify_cost: the run scan |wx| + |wy| + 1, then one op
    per literal looked at, clause by clause up to the first true literal."""
    x, y = unpair(z)
    wx, wy = index_word(x), index_word(y)
    ops = len(wx) + len(wy) + 1
    try:
        f = decode_cnf(wx)
    except MalformedCnf:
        return 0, ops
    if len(wy) != f.num_vars:
        return 0, ops
    for clause in f.clauses:
        hits = [wy[var - 1] == ("1" if pos else "0") for var, pos in clause]
        if True not in hits:
            return 0, ops + len(clause)
        ops += hits.index(True) + 1
    return 1, ops


def test_verify_cost_matches_literal_count():
    for z in range(20000):
        got = verify_cost(z)
        assert got == _verify_cost_oracle(z), z
        assert verify(z) == got[0], z


def test_verify_cost_matches_literal_count_on_long_words():
    # formula words of 14 to 29 bits: separators of 5 or more zeros, 1-runs
    # longer than 4, and a longest 1-run that need not be the first; half the
    # assignments are random, half are a well-formed word's least solution,
    # so the length check passes and the clauses are read
    rng = random.Random(47)
    zs = [pair(rng.randrange(1 << 14, 1 << 30), rng.randrange(1 << 12))
          for _ in range(10000)]
    while len(zs) < 20000:
        x = rng.randrange(1 << 14, 1 << 30)
        y = solve_E(x)
        if y:
            zs.append(pair(x, y))
    for z in zs:
        assert verify_cost(z) == _verify_cost_oracle(z), z


def test_dimacs_parsing():
    f = parse_dimacs("c header\np cnf 3 2\n1 -2 0\n2 3 0\n")
    assert f == CnfFormula((((1, True), (2, False)), ((2, True), (3, True))), 3)
    assert parse_dimacs("p cnf 5 1\n1 0\n").num_vars == 5  # spare variables ok
    assert parse_dimacs("p cnf 2 1\n1 2\n").clauses == (((1, True), (2, True)),)


def test_dimacs_rejects():
    for bad in ["1 2 0\n", "p sat 2 1\n1 0\n", "p cnf 1 1\n2 0\n", "p cnf 3 x\n1 0\n",
                "p cnf 3 -7\n1 0\n", "p cnf 3 \u0661\n1 0\n"]:
        with pytest.raises(MalformedCnf):
            parse_dimacs(bad)
    for bad in ["p cnf \u0663 1\n1 0\n", "p cnf 3 1\n\u0661 0\n", "p cnf 3 1\n1_0 0\n",
                "p cnf 3 1\n+1 0\n", "p cnf -1 0\n"]:
        with pytest.raises(ValueError):
            parse_dimacs(bad)


def test_formula_constructor_validation():
    with pytest.raises(MalformedCnf):
        CnfFormula(((),), 0)
    with pytest.raises(MalformedCnf):
        CnfFormula((((0, True),),), 1)
    with pytest.raises(MalformedCnf):
        CnfFormula((((1, 1),),), 1)
    with pytest.raises(MalformedCnf):
        CnfFormula((((2, True),),), 1)


def neg_A(m: int, z: int, fuel: int = DEFAULT_FUEL) -> bool:
    """Oracle for the failure scan: True iff z is a verified satisfiable pair
    whose formula machine m answers incorrectly, that is verify(z) = 1 but
    verify(pair(x, m(x))) = 0."""
    if verify(z) != 1:
        return False
    x = proj1(z)
    machine = decode_index(m)
    if isinstance(machine, ClockedMachine):
        got = clocked_run(machine, index_word(x))
    else:
        got = run(machine, index_word(x), fuel)
        assert isinstance(got, Halted), "machine %d out of fuel" % m
    return verify(pair(x, word_index(got.output))) == 0


def test_neg_a_on_identity_machine():
    assert neg_A(0, pair(9, 2)) is True  # identity echoes the formula word
    assert neg_A(0, 0) is False  # empty formula, empty answer: correct
    assert neg_A(0, pair(2, 0)) is False  # not a verified pair at all
    assert neg_A(0, f_neg_A(0, 100).witness) is True


def test_failure_scan_identity_machine():
    assert f_neg_A(0, 100) == Found(1, 1)


def test_failure_scan_exhausts_on_correct_solver():
    table = build_q_table(ord_parse("1"), 2)  # answers positions 0..4 correctly
    sigma = sigma_embed(ClockedMachine(table, Parametrized(ord_parse("1"), 2)))
    assert f_neg_A(sigma, 7) == Exhausted(7)


def test_failure_scan_indeterminate_on_looping_machine():
    loop = MachineTable((Rule(1, "0", 1, "0", "N"), Rule(1, "1", 1, "1", "N"),
                         Rule(1, "_", 1, "_", "N")))
    assert f_neg_A(encode_table(loop), 10, fuel=50) == Indeterminate(0)


def test_failure_scan_indeterminate_at_step_cap():
    # erases a lone "0" and halts with the empty word, the answer for the empty
    # formula "0"; on "00", the same formula, it walks right forever
    walker = MachineTable((Rule(1, "0", 2, "_", "R"), Rule(2, "0", 3, "0", "R"),
                           *(Rule(3, a, 3, a, "R") for a in "01_")))
    # z = pair(3, 0) = 6 consults the walker on "00" under a bound of 2^40 + 40
    assert scan(ClockedMachine(walker, PlainPoly(40)), 10, DEFAULT_FUEL) == Indeterminate(6)


def test_failure_scan_cost_follows_formula_words_not_budget():
    # the level-1 member with threshold 4096: the counterexample at a budget
    # of 10^8 is z = 10,716,138, and the scan visits the 4,630 formula words
    # x with pair(x, 0) below it, not the pair codes
    machine = decode_index(3590626216796)
    start = time.perf_counter()
    got = scan(machine, 10 ** 8, DEFAULT_FUEL)
    assert time.perf_counter() - start < 0.3
    assert got == Found(10716138, 10716138)


_FAR_CLOCK_SCAN = """
from tmlab.clocks import ClockedMachine, Parametrized
from tmlab.codec import sigma_embed
from tmlab.families import build_q_table
from tmlab.ordinals import from_nat
from tmlab.sat import f_neg_A
table = build_q_table(from_nat(1), 2)
m = sigma_embed(ClockedMachine(table, Parametrized(from_nat(2), 40, 8)))
print(f_neg_A(m, 30))
"""


def test_failure_scan_indeterminate_when_clock_bound_is_out_of_reach():
    # the clock fgh:2:40 decodes within budget, but its bound 2^(2^40) on a
    # formula word is out of desk reach; run in a child so a hang fails
    src = str(Path(tmlab.__file__).resolve().parent.parent)
    env = dict(os.environ, PYTHONPATH=src)
    got = subprocess.run([sys.executable, "-c", _FAR_CLOCK_SCAN], env=env,
                         capture_output=True, text=True, timeout=10)
    assert got.returncode == 0, got.stderr
    assert got.stdout == "Indeterminate(z=6)\n"


def test_guarded_scan_defaults_outside_known_indices():
    rng = random.Random(31)
    m = encode_table(MachineTable((Rule(1, "0", 0, "1", "N"),)))
    assert f_prime(m, 100) == Found(0, 0)
    picked = 0
    while picked < 20:
        i = rng.randrange(10 ** 6, 10 ** 9)
        if is_sigma_image(i):
            continue
        picked += 1
        assert f_prime(i, 5) == Found(0, 0)


def test_guarded_scan_searches_registered_indices():
    m = encode_table(MachineTable((Rule(1, "0", 0, "1", "N"),)))
    registry.register(m)
    assert f_prime(m, 100) == f_neg_A(m, 100)


def test_guarded_scan_searches_pair_images():
    sigma = 28  # trivial machine under the constant clock
    assert f_prime(sigma, 100) == f_neg_A(sigma, 100) == Found(1, 1)
