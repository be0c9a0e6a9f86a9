"""Dispatch-table builders, index families, and the peak probe."""

import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

import tmlab
from tmlab import codec, families, registry
from tmlab.clocks import BudgetExceeded, ClockedMachine, Parametrized
from tmlab.codec import clock_index, decode_index, family_index, is_sigma_image, sigma_embed
from tmlab.families import (
    PeakResult,
    QSpec,
    _dispatch_rules,
    build_Q,
    build_q_table,
    clock_stride_analysis,
    differences,
    peak_probe,
    stride_analysis,
)
from tmlab.machines import BLANK, Halted, Rule, run, trivial_machine
from tmlab.ordinals import ord_parse
from tmlab.registry import FRegistry
from tmlab.sat import Exhausted, Found, f_neg_A, f_prime, solve_E
from tmlab.words import index_word, pair, proj1, word_index

ORD1 = ord_parse("1")
ORD2 = ord_parse("2")


def test_q_table_answers_solver_in_range():
    table = build_q_table(ORD1, 2)  # threshold F_1(2) = 4
    assert table.threshold == 4
    for x in range(5):
        w = index_word(x)
        expected = index_word(solve_E(x))
        got = run(table, w, 10 ** 4)
        assert isinstance(got, Halted) and got.output == expected
        assert got.steps == len(w) + max(1, len(expected))


def test_q_table_defaults_above_threshold():
    table = build_q_table(ORD1, 2)
    for x in range(5, 40):
        w = index_word(x)
        got = run(table, w, 10 ** 4)
        assert isinstance(got, Halted)
        assert got.output == "0" and got.steps == len(w) + 1


def test_q_table_worst_steps_and_canonical_order():
    table = build_q_table(ORD1, 2)
    observed = max(run(table, index_word(x), 10 ** 4).steps for x in range(5))
    assert table.worst_steps == observed
    assert table.canonical().rules == table.rules


# members of levels 1 and 2 in any order, so that thresholds rise and fall
MEMBERS = st.one_of(st.tuples(st.just(ORD1), st.integers(0, 300)),
                    st.tuples(st.just(ORD2), st.integers(0, 8)))


@settings(deadline=None, max_examples=25)
@given(st.lists(st.tuples(MEMBERS, st.integers(9, 20)), min_size=1, max_size=4))
def test_builds_in_any_order_match_a_fresh_solve(members):
    for (alpha, n), width in members:
        table = build_q_table(alpha, n, width)
        threshold = Parametrized(alpha, n, width).exponent
        outputs = [index_word(solve_E(x)) for x in range(threshold + 1)]
        assert table.threshold == threshold
        assert table.rules == _dispatch_rules(outputs)
        assert table.worst_steps == max(len(index_word(x)) + max(1, len(out))
                                        for x, out in enumerate(outputs))


def test_repeat_build_still_self_checks_every_position(monkeypatch):
    calls = []

    def counting(table, word, fuel):
        calls.append(word)
        return run(table, word, fuel)

    build_q_table(ORD1, 5)  # threshold F_1(5) = 10
    monkeypatch.setattr(families, "run", counting)
    build_q_table(ORD1, 5)
    assert calls == [index_word(x) for x in range(11)]


def test_member_build_peak_memory():
    # a warm T = 4,094 build holds its 12,411 rules (1.45 MB) and, at its peak,
    # the compile's rows beside them; validation adds only a mask per state
    build_q_table(ORD1, 2047)  # solve the positions once
    tracemalloc.start()
    try:
        build_q_table(ORD1, 2047)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2.2e6, peak


def test_q_table_zero_threshold():
    table = build_q_table(ORD1, 0)  # F_1(0) = 0: only position 0 in range
    assert table.threshold == 0
    assert run(table, "", 100) == Halted("", 1)
    assert run(table, "11", 100) == Halted("0", 3)


def test_q_build_overflow_and_budget():
    solved = families._solved.cache_info().currsize
    with pytest.raises(BudgetExceeded, match="out of desk reach"):
        build_q_table(ORD1, 3000)  # threshold 6000 exceeds the desk cap
    with pytest.raises(BudgetExceeded):
        build_q_table(ord_parse("3"), 8, eval_budget=10 ** 4)
    # refused before any position is solved, so the cache stays within the cap
    assert families._solved.cache_info().currsize == solved
    assert families.DESK_THRESHOLD_BOUND == 1 << 12


_FRESH_DECODE = """
from tmlab.codec import decode_index, family_index
from tmlab.ordinals import ord_parse
print(decode_index(family_index(ord_parse("1"), 2, 16)).threshold)
"""


def test_family_word_decodes_to_its_member_in_a_fresh_interpreter():
    # the decoder's member builder lives in families; importing codec alone
    # must still decode family words to built members
    src = str(Path(tmlab.__file__).resolve().parent.parent)
    env = dict(os.environ, PYTHONPATH=src)
    got = subprocess.run([sys.executable, "-c", _FRESH_DECODE], env=env,
                         capture_output=True, text=True, timeout=60)
    assert got.returncode == 0, got.stderr
    assert got.stdout == "4\n"


_CORRUPT_BUILD = """
from tmlab import families
from tmlab.ordinals import from_nat
real = families._dispatch_rules
families._dispatch_rules = lambda outputs: real([out + "1" for out in outputs])
try:
    table = families.build_q_table(from_nat(1), 3)
except AssertionError as err:
    print("refused:", err)
else:
    print("built unchecked, threshold", table.threshold)
"""


def test_family_self_check_survives_optimized_mode():
    # python -O strips assert statements; the self-check must still refuse a
    # member whose table answers wrongly
    src = str(Path(tmlab.__file__).resolve().parent.parent)
    env = dict(os.environ, PYTHONPATH=src)
    got = subprocess.run([sys.executable, "-O", "-c", _CORRUPT_BUILD], env=env,
                         capture_output=True, text=True, timeout=60)
    assert got.returncode == 0, got.stderr
    assert got.stdout == "refused: dispatch self-check failed at position 0\n"


def test_build_q_registers_family_word():
    table, godel, spec = build_Q(ORD1, 1)
    assert godel == family_index(ORD1, 1, 16)
    assert spec == QSpec(ORD1, 1, 2, 16)
    assert table.family_key == (ORD1, 1, 16)
    assert registry.registered(godel)


def test_family_stride_is_exact():
    report = stride_analysis(ORD1, range(5))
    assert report.stride == 1 << 14
    assert report.base == family_index(ORD1, 0, 16)
    assert report.indices == tuple(report.base + n * (1 << 14) for n in range(5))
    for i in report.indices:
        assert registry.registered(i)


def test_clock_stride_matches_family_stride():
    report = clock_stride_analysis(ORD1, range(5))
    assert report.stride == 1 << 14
    assert report.indices[0] == clock_index(Parametrized(ORD1, 0, 16))


def test_wider_level_changes_stride():
    assert stride_analysis(ORD2, range(3)).stride == 1 << 16


def test_pair_position_is_quadratic_in_n():
    ps = [pair(family_index(ORD1, n, 16),
               clock_index(Parametrized(ORD1, n, 16))) for n in range(9)]
    d2 = differences(differences(ps))
    assert set(d2) == {1 << 30}
    assert set(differences(d2)) == {0}


def test_peak_probe_pins():
    probes = [peak_probe(ORD1, n) for n in range(3)]
    assert [p.outcome for p in probes] == [Found(1, 1), Found(6, 6), Found(68, 68)]
    assert [p.threshold for p in probes] == [0, 2, 4]
    assert [p.first_coord for p in probes] == [1, 3, 9]
    for p in probes:
        assert p.first_coord > p.threshold
        # f_prime recognizes the sigma word by syntax and searches it
        assert is_sigma_image(p.sigma_index)
        assert f_prime(p.sigma_index, 10 ** 4) == f_neg_A(p.sigma_index, 10 ** 4)
    witnesses = [p.outcome.witness for p in probes]
    assert witnesses == sorted(set(witnesses))  # strictly increasing peaks


def test_peak_probe_registers_the_family_word_only(tmp_path):
    reg = FRegistry(tmp_path / "fregistry.txt")
    probe = peak_probe(ORD1, 2, registry=reg)
    assert reg.load() == {family_index(ORD1, 2, 16)}
    assert not registry.registered(probe.sigma_index)


def test_peak_probe_exhausts_under_small_budget():
    probe = peak_probe(ORD1, 2, budget=50)
    assert probe.outcome == Exhausted(50)
    assert probe.first_coord is None


def _old_peak_probe(alpha, n, budget):
    """Reference for peak_probe: build, embed, then search the sigma index
    through the decoder, which builds the member a second time."""
    table, _, spec = build_Q(alpha, n)
    sigma = sigma_embed(ClockedMachine(table, Parametrized(alpha, n, 16)))
    outcome = f_neg_A(sigma, budget)
    first = proj1(outcome.witness) if isinstance(outcome, Found) else None
    return PeakResult(sigma, outcome, spec.threshold, first)


PROBED = ([(ORD1, n) for n in range(41)] + [(ORD2, n) for n in range(12)]
          + [(ord_parse("w"), n) for n in range(4)])


@pytest.mark.parametrize("decode_budget", [None, 0])
def test_peak_probe_matches_decoding_the_sigma_word(decode_budget, monkeypatch):
    if decode_budget is not None:
        # the decoder cannot materialize the clock: the sigma word decodes
        # to the trivial machine, and peak_probe must search that one
        monkeypatch.setattr(codec, "DECODE_EVAL_BUDGET", decode_budget)
    outcomes = set()
    for alpha, n in PROBED:
        got = peak_probe(alpha, n)
        assert got == _old_peak_probe(alpha, n, 10 ** 4), (alpha, n)
        fallback = decode_index(got.sigma_index) == trivial_machine()
        assert fallback == (decode_budget is not None)
        outcomes.add(type(got.outcome))
    assert outcomes == ({Found, Exhausted} if decode_budget is None else {Found})


def test_peak_probe_builds_once(monkeypatch):
    calls = []

    def counting(*args, **kwargs):
        calls.append(args)
        return build_q_table(*args, **kwargs)

    monkeypatch.setattr(families, "build_q_table", counting)
    peak_probe(ORD1, 3)
    assert calls == [(ORD1, 3, 16)]
    calls.clear()
    f_neg_A(sigma_embed(ClockedMachine(build_q_table(ORD1, 3), Parametrized(ORD1, 3))), 10)
    assert len(calls) == 1  # the decoder still builds the member it decodes


def _reference_trie(outputs):
    """Reference for _dispatch_rules: each node's children are found by
    appending a character to its word."""
    t = len(outputs) - 1
    out_state = t + 2
    rules, chain_rules, chains = [], [], {}
    next_free = t + 3
    for x in range(t + 1):
        w = index_word(x)
        for c in "01":
            x2 = word_index(w + c)
            rules.append(Rule(1 + x, c, 1 + x2 if x2 <= t else out_state, BLANK, "R"))
        answer = outputs[x]
        if len(answer) <= 1:
            rules.append(Rule(1 + x, BLANK, 0, answer or BLANK, "N"))
            continue
        if answer not in chains:
            chains[answer] = next_free
            for j in range(1, len(answer)):
                last = j == len(answer) - 1
                chain_rules.append(Rule(next_free + j - 1, BLANK, 0 if last else next_free + j,
                                        answer[j], "N" if last else "R"))
            next_free += len(answer) - 1
        rules.append(Rule(1 + x, BLANK, chains[answer], answer[0], "R"))
    rules += [Rule(out_state, "0", out_state, BLANK, "R"),
              Rule(out_state, "1", out_state, BLANK, "R"),
              Rule(out_state, BLANK, 0, "0", "N")]
    return tuple(rules + chain_rules)


def test_dispatch_rules_match_reference_trie():
    solver = [index_word(solve_E(x)) for x in range(2048)]
    mixed = [index_word((7 * x) % 97) for x in range(2048)]  # outputs up to 6 characters
    for t in list(range(301)) + [2047]:
        for outputs in (solver[:t + 1], mixed[:t + 1]):
            rules = _dispatch_rules(outputs)
            assert rules == _reference_trie(outputs), t
            assert all(type(r) is Rule for r in rules), t


def test_file_registry_roundtrip(tmp_path):
    reg = FRegistry(tmp_path / "fregistry.txt")
    assert reg.load() == set()
    reg.add(7)
    reg.add(3)
    reg.add(7)
    assert reg.load() == {3, 7}
    assert 3 in reg and 8 not in reg
    text = (tmp_path / "fregistry.txt").read_text()
    assert text == "fregistry 1\n3\n7\n"


def test_file_registry_header_validation(tmp_path):
    path = tmp_path / "bogus.txt"
    path.write_text("something else\n3\n")
    with pytest.raises(ValueError):
        FRegistry(path).load()


def test_file_registry_overwrites_a_stale_temp_file(tmp_path):
    # a writer killed between its write and its rename leaves the temp file
    path = tmp_path / "fregistry.txt"
    (tmp_path / "fregistry.txt.tmp").write_text("torn")
    FRegistry(path).add(5)
    assert FRegistry(path).load() == {5}
    assert sorted(p.name for p in tmp_path.iterdir()) == ["fregistry.txt", "fregistry.txt.lock"]


def test_register_with_file_backing(tmp_path):
    reg = FRegistry(tmp_path / "f.txt")
    registry.register(42, reg)
    assert registry.registered(42)
    assert 42 in reg
    registry.clear()
    assert not registry.registered(42)
    assert registry.registered(42, reg)  # file backing survives the clear


_ADDER = """
import sys
from tmlab.registry import FRegistry
reg = FRegistry(sys.argv[1])
for i in range(int(sys.argv[2]), int(sys.argv[3])):
    reg.add(i)
"""


def test_file_registry_concurrent_processes_lose_nothing(tmp_path):
    path = tmp_path / "fregistry.txt"
    src = str(Path(tmlab.__file__).resolve().parent.parent)
    env = dict(os.environ, PYTHONPATH=src + os.pathsep + os.environ.get("PYTHONPATH", ""))
    # three writers on two cores, each adding 100 indices of its own
    starts = (0, 1000, 2000)
    procs = [subprocess.Popen([sys.executable, "-c", _ADDER, str(path), str(lo), str(lo + 100)],
                              env=env, stderr=subprocess.PIPE, text=True)
             for lo in starts]
    for proc in procs:
        _, err = proc.communicate(timeout=120)
        assert proc.returncode == 0, err
    assert FRegistry(path).load() == {lo + i for lo in starts for i in range(100)}
    assert sorted(p.name for p in tmp_path.iterdir()) == ["fregistry.txt", "fregistry.txt.lock"]
