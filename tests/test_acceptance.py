"""Acceptance suite: one check per numbered criterion, one verdict line each.

Every check computes its result first, prints
    ACCEPTANCE <n>: <PASS|FAIL> - <detail> (<elapsed>s)
and only then asserts, so the verdict line always appears in the run log.
Oracles here are written from scratch (truth tables, closed forms, run-length
re-readers, arithmetic models); they share no evaluation code with the package.
"""

import random
import re
import time
from itertools import combinations, combinations_with_replacement, groupby
from math import isqrt

from conftest import all_words, random_table
from tmlab.clocks import ClockedMachine, PlainPoly, clocked_run, compose
from tmlab.codec import (ClockedTable, decode_index, encode_table, is_sigma_image,
                         sigma_embed)
from tmlab.families import build_Q, clock_stride_analysis, peak_probe, stride_analysis
from tmlab.hierarchy import Value, fgh_at_least, fgh_eval
from tmlab.machines import Halted, MachineTable, run, trivial_machine
from tmlab.ordinals import ord_parse
from tmlab.sat import CnfFormula, Found, encode_cnf, f_neg_A, f_prime, solve_E, verify
from tmlab.words import index_word, pair, word_index

TIME_LIMITS = {1: 1.0, 2: 60.0, 3: 60.0, 4: 60.0, 5: 60.0, 6: 1.0,
               7: 60.0, 8: 60.0, 9: 300.0, 10: 60.0, 11: 60.0}


def _verdict(capsys, num: int, ok: bool, detail: str, t0: float):
    elapsed = time.perf_counter() - t0
    with capsys.disabled():
        print("ACCEPTANCE %d: %s - %s (%.2fs)" %
              (num, "PASS" if ok else "FAIL", detail, elapsed))
    assert ok, "criterion %d: %s" % (num, detail)
    assert elapsed < TIME_LIMITS[num], "criterion %d overran: %.2fs" % (num, elapsed)


# --- independent oracle helpers (no shared evaluation code) -------------------

def _own_pair(x: int, y: int) -> int:
    return (x + y) * (x + y + 1) // 2 + y


def _own_unpair(z: int) -> tuple:
    s = (isqrt(8 * z + 1) - 1) // 2
    y = z - s * (s + 1) // 2
    return s - y, y


LITERALS = [(v, pol) for v in (1, 2, 3) for pol in (True, False)]


def _clause_true(clause, bits: str) -> bool:
    return any((bits[v - 1] == "1") is pol for v, pol in clause)


def _own_read_formula(bits: str):
    """From-scratch reading of the run-length clause grammar.  Returns a
    clause list ([] for the empty formula) or None when malformed."""
    if "1" not in bits:
        return [] if len(bits) <= 2 else None
    runs = [(ch, len(list(grp))) for ch, grp in groupby(bits)]
    if runs[0][0] != "0" or runs[0][1] > 2:
        return None
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
                return None
            break
        if gap in (1, 2):
            positive = gap == 1
        elif gap in (3, 4):
            clauses.append(clause)
            clause = []
            positive = gap == 3
        else:
            return None
    clauses.append(clause)
    return clauses


def _own_verify(x: int, assignment: str) -> int:
    clauses = _own_read_formula(index_word(x))
    if clauses is None:
        return 0
    top = max((v for c in clauses for v, _ in c), default=0)
    if len(assignment) != top:
        return 0
    return int(all(_clause_true(c, assignment) for c in clauses))


def _own_first_sat(x: int):
    """Least assignment position accepted by formula word x: 0 for the empty
    formula, 0 when nothing satisfies, None when malformed."""
    clauses = _own_read_formula(index_word(x))
    if clauses is None:
        return None
    top = max((v for c in clauses for v, _ in c), default=0)
    for value in range(1 << top):
        bits = format(value, "b").zfill(top) if top else ""
        if all(_clause_true(c, bits) for c in clauses):
            return word_index(bits)
    return 0


def _formula_corpus():
    """Every CNF over v1..v3 with at most 3 clauses: clauses are the 63
    nonempty literal sets, formulas their multisets of size 0..3."""
    clauses = [c for r in range(1, 7) for c in combinations(LITERALS, r)]
    corpus = []
    for k in range(4):
        corpus.extend(combinations_with_replacement(clauses, k))
    return corpus


def _formula_word_index(clauses) -> int:
    top = max((v for c in clauses for v, _ in c), default=0)
    return word_index(encode_cnf(CnfFormula(tuple(clauses), top)))


# --- criteria -----------------------------------------------------------------

def test_criterion_01_enumeration_fidelity(capsys):
    t0 = time.perf_counter()
    first = [index_word(i) for i in range(7)]
    ok = first == ["", "0", "1", "00", "01", "10", "11"]
    bad = sum(1 for i in range(10 ** 4) if word_index(index_word(i)) != i)
    ok = ok and bad == 0
    _verdict(capsys, 1, ok,
             "first seven words %s, %d round-trip mismatches below 10^4"
             % ("|".join(w or "(empty)" for w in first), bad), t0)


def test_criterion_02_pair_checker_matches_truth_tables(capsys):
    t0 = time.perf_counter()
    mismatches = 0
    checks = 0
    corpus = _formula_corpus()
    for clauses in corpus:
        x = _formula_word_index(clauses)
        top = max((v for c in clauses for v, _ in c), default=0)
        for value in range(1 << top):
            bits = format(value, "b").zfill(top) if top else ""
            expected = all(_clause_true(c, bits) for c in clauses)
            checks += 1
            if verify(_own_pair(x, word_index(bits))) != int(expected):
                mismatches += 1
    base_ok = verify(pair(0, 0)) == 1
    ok = mismatches == 0 and base_ok
    _verdict(capsys, 2, ok,
             "%d formulas, %d assignment checks, %d disagreements, "
             "empty-pair check %s" % (len(corpus), checks, mismatches,
                                      "1" if base_ok else "wrong"), t0)


def test_criterion_03_solver_sound_and_complete(capsys):
    t0 = time.perf_counter()
    corpus = _formula_corpus()
    wrong = 0
    satisfiable = 0
    for clauses in corpus:
        x = _formula_word_index(clauses)
        top = max((v for c in clauses for v, _ in c), default=0)
        first_sat = None
        for value in range(1 << top):
            bits = format(value, "b").zfill(top) if top else ""
            if all(_clause_true(c, bits) for c in clauses):
                first_sat = word_index(bits)
                break
        y = solve_E(x)
        if first_sat is None:
            if y != 0:
                wrong += 1
        else:
            satisfiable += 1
            if y != first_sat or verify(_own_pair(x, y)) != 1:
                wrong += 1
    ok = wrong == 0
    _verdict(capsys, 3, ok,
             "%d formulas (%d satisfiable), %d solver disagreements"
             % (len(corpus), satisfiable, wrong), t0)


def test_criterion_04_clock_semantics(capsys):
    t0 = time.perf_counter()
    rng = random.Random(401)
    words = all_words(6)
    violations = 0
    runs = 0
    for k in range(200):
        table = random_table(rng)
        p = k % 4
        for w in words:
            bound = len(w) ** p + p
            got = clocked_run(ClockedMachine(table, PlainPoly(p)), w)
            plain = run(table, w, bound)
            runs += 1
            if got.steps > bound:
                violations += 1
            elif isinstance(plain, Halted):
                # an early halt must pass through untouched
                if got != (plain.output, plain.steps, False):
                    violations += 1
            elif got != ("0", bound, True):
                violations += 1
    ok = violations == 0
    _verdict(capsys, 4, ok,
             "200 machines x %d words x exponents 0..3: %d runs, %d violations"
             % (len(words), runs, violations), t0)


_CHAR_OF = {format(i, "03b"): c for i, c in enumerate("01_LRN \n")}
_RULE_LINE = re.compile(r"(0|1[01]*) ([01_]) (0|1[01]*) ([01_]) ([LRN])\n")


def _own_plain_valid(bits: str) -> bool:
    # from-scratch grammar: 3-bit chars, strict rule lines, live sources only
    if len(bits) % 3:
        return False
    text = "".join(_CHAR_OF[bits[i:i + 3]] for i in range(0, len(bits), 3))
    pos = 0
    sources = set()
    while pos < len(text):
        m = _RULE_LINE.match(text, pos)
        if m is None:
            return False
        q, a = m.group(1), m.group(2)
        if q == "0" or (q, a) in sources:
            return False
        sources.add((q, a))
        pos = m.end()
    return True


def test_criterion_05_codec_totality_and_fallback(capsys):
    t0 = time.perf_counter()
    trivial = trivial_machine()
    bad = 0
    for i in range(10 ** 5):
        bits = index_word(i)
        decoded = decode_index(i)
        if not isinstance(decoded, (MachineTable, ClockedTable)):
            bad += 1
        elif bits.startswith("11"):
            if is_sigma_image(i):
                # the clock may still be out of desk reach: fallback allowed
                if not isinstance(decoded, ClockedTable) and decoded != trivial:
                    bad += 1
            elif decoded != trivial:
                bad += 1
        elif bits.startswith("101") or bits.startswith("100"):
            if decoded != trivial:  # no runnable-family word fits below 10^5
                bad += 1
        else:
            expect_trivial = bits == "" or not _own_plain_valid(bits)
            if (decoded == trivial) != expect_trivial:
                bad += 1
    # hand-built grammar violators beyond the sweep range
    _, family_godel, _ = build_Q(ord_parse("1"), 3)
    family_bits = index_word(family_godel)
    sigma_bits = index_word(sigma_embed(ClockedMachine(trivial, PlainPoly(0))))
    violators = [
        "101" + "00000000" + "1" + "01011101",  # zero width byte
        family_bits[:-1] + ("1" if family_bits[-1] == "0" else "0"),
        "100" + "01" + "10110010",  # clock word, last marker bit flipped
        sigma_bits + "0",  # packed tail knocked off 3-bit alignment
        "1",
        "10",
    ]
    for wbits in violators:
        if decode_index(word_index(wbits)) != trivial:
            bad += 1
    rng = random.Random(501)
    flips = 0
    for _ in range(10 ** 3):
        table = random_table(rng)
        if decode_index(encode_table(table)) != table.canonical():
            flips += 1
    ok = bad == 0 and flips == 0
    _verdict(capsys, 5, ok,
             "10^5 indices + %d crafted violators, %d fallback errors; "
             "10^3 table round-trips, %d failures"
             % (len(violators), bad, flips), t0)


def _reference_fgh(alpha, x: int) -> int:
    """Recurrence reference: iterate successors from 1, dive at limits."""
    from tmlab.ordinals import ONE, fundamental_sequence, is_limit, predecessor
    if not alpha.terms:
        return 0
    if alpha == ONE:
        return 2 * x
    if is_limit(alpha):
        return _reference_fgh(fundamental_sequence(alpha, x), x)
    out = 1
    below = predecessor(alpha)
    for _ in range(x):
        out = _reference_fgh(below, out)
    return out


def test_criterion_06_hierarchy_values(capsys):
    t0 = time.perf_counter()
    wrong = 0
    cases = []
    for x in range(11):
        cases.append((ord_parse("1"), x, 2 * x))
        cases.append((ord_parse("2"), x, 2 ** x))
    cases += [(ord_parse("3"), 2, 4), (ord_parse("3"), 3, 16), (ord_parse("w"), 2, 4)]
    for alpha, x, closed in cases:
        got = fgh_eval(alpha, x, 10 ** 6)
        if not isinstance(got, Value) or got.value != closed:
            wrong += 1
        elif got.value != _reference_fgh(alpha, x):
            wrong += 1
    ok = wrong == 0
    _verdict(capsys, 6, ok,
             "%d values against closed forms and the recurrence iterator, "
             "%d mismatches" % (len(cases), wrong), t0)


def test_criterion_07_level_six_majorizes_doubled_square(capsys):
    t0 = time.perf_counter()
    six = ord_parse("6")
    legs = {}
    for x in (2, 3, 4):
        threshold = 2 * x * x + 1  # strictly above the level-1 value at x^2
        legs[x] = fgh_at_least(six, x, threshold, 10 ** 6)
    ok = all(v is True for v in legs.values())
    exact = fgh_eval(six, 2, 10 ** 6)
    detail = ("legs x=2:%s x=3:%s x=4:%s; the level-6 value at 2 is %s, "
              "not above 8, so the x=2 leg cannot hold"
              % (legs[2], legs[3], legs[4],
                 exact.value if isinstance(exact, Value) else "?"))
    _verdict(capsys, 7, ok, detail, t0)


def test_criterion_08_family_index_strides(capsys):
    t0 = time.perf_counter()
    problems = []
    ns = range(9)
    for alpha_text in ("1", "2"):
        alpha = ord_parse(alpha_text)
        machines = stride_analysis(alpha, ns)
        clocks = clock_stride_analysis(alpha, ns)
        for label, report in (("machine", machines), ("clock", clocks)):
            if report.stride is None:
                problems.append("level %s %s indices not affine" % (alpha_text, label))
            elif report.indices != tuple(report.base + n * report.stride for n in ns):
                problems.append("level %s %s progression broken" % (alpha_text, label))
        pairs = [_own_pair(m, c) for m, c in zip(machines.indices, clocks.indices)]
        d1 = [b - a for a, b in zip(pairs, pairs[1:])]
        d2 = [b - a for a, b in zip(d1, d1[1:])]
        d3 = [b - a for a, b in zip(d2, d2[1:])]
        if len(set(d2)) != 1 or any(d3):
            problems.append("level %s pair indices not quadratic" % alpha_text)
    ok = not problems
    _verdict(capsys, 8, ok,
             "levels 1 and 2, n=0..8: %s"
             % ("; ".join(problems) if problems else
                "machine and clock indices affine, pair indices quadratic"), t0)


def _own_peak_scan(threshold: int, budget: int):
    """Arithmetic model of the embedded solver: its answer is the least
    satisfying position in range, the one-char word "0" above the range."""
    for z in range(budget):
        x, y = _own_unpair(z)
        if _own_verify(x, index_word(y)) != 1:
            continue
        answer = _own_first_sat(x) if x <= threshold else 1
        if _own_verify(x, index_word(answer)) != 1:
            return z
    return None


def test_criterion_09_counterexample_peaks(capsys):
    t0 = time.perf_counter()
    alpha = ord_parse("1")
    problems = []
    witnesses = []
    for n in range(3):
        probe = peak_probe(alpha, n, budget=10 ** 4)
        threshold = 2 * n  # level-1 bound at n
        expected = _own_peak_scan(threshold, 10 ** 4)
        if probe.threshold != threshold:
            problems.append("n=%d built threshold %d" % (n, probe.threshold))
        if not isinstance(probe.outcome, Found):
            problems.append("n=%d found nothing, scan says %s" % (n, expected))
            continue
        z = probe.outcome.witness
        witnesses.append(z)
        if z != expected:
            problems.append("n=%d witness %d, scan says %s" % (n, z, expected))
        if _own_unpair(z)[0] <= threshold:
            problems.append("n=%d witness coordinate %d not above threshold"
                            % (n, _own_unpair(z)[0]))
    if len(witnesses) != 3 or witnesses != sorted(set(witnesses)):
        problems.append("witnesses %s not strictly increasing" % witnesses)
    ok = not problems
    _verdict(capsys, 9, ok,
             "witnesses %s against the independent scan, thresholds 0/2/4%s"
             % (witnesses, "" if ok else ": " + "; ".join(problems)), t0)


def test_criterion_10_guarded_search_extension_law(capsys):
    t0 = time.perf_counter()
    registered = []
    for alpha_text in ("1", "2"):
        for n in range(10):
            _, godel, _ = build_Q(ord_parse(alpha_text), n)
            registered.append(godel)
    known = set(registered)
    rng = random.Random(1001)
    defaults_wrong = 0
    tried = 0
    while tried < 100:
        i = rng.randrange(10 ** 6, 10 ** 12)
        if i in known or is_sigma_image(i):
            continue
        tried += 1
        if f_prime(i, 1000) != Found(0, 0):
            defaults_wrong += 1
    agree_wrong = sum(1 for godel in registered
                      if f_prime(godel, 2000) != f_neg_A(godel, 2000))
    ok = defaults_wrong == 0 and agree_wrong == 0 and len(registered) == 20
    _verdict(capsys, 10, ok,
             "100 outside indices (%d wrong defaults), %d registered indices "
             "(%d search disagreements)" % (defaults_wrong, len(registered),
                                            agree_wrong), t0)


def test_criterion_11_composition_closure(capsys):
    t0 = time.perf_counter()
    rng = random.Random(1101)
    words = all_words(6)
    law_breaks = 0
    bound_breaks = 0
    for _ in range(50):
        p1 = ClockedMachine(random_table(rng), PlainPoly(rng.randint(0, 2)))
        p2 = ClockedMachine(random_table(rng), PlainPoly(rng.randint(0, 2)))
        comp = compose(p1, p2)
        e1, e2, e = p1.clock.p, p2.clock.p, comp.clock.p
        for w in words:
            stage = clocked_run(p2, clocked_run(p1, w).output).output
            if clocked_run(comp, w).output != stage:
                law_breaks += 1
        for length in range(7):
            inner = length ** e1 + e1
            if length ** e + e < inner ** e2 + e2 + inner:
                bound_breaks += 1
    ok = law_breaks == 0 and bound_breaks == 0
    _verdict(capsys, 11, ok,
             "50 pairs x %d words: %d law violations, %d composed-bound "
             "violations" % (len(words), law_breaks, bound_breaks), t0)
