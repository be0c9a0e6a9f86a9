"""Command-line surface: records, exit codes, and determinism."""

import json
import os
import resource
import subprocess
import sys
import time
from pathlib import Path

import pytest

import tmlab
from tmlab import cli
from tmlab.clocks import BOUND_BITS
from tmlab.codec import encode_table
from tmlab.machines import MachineTable, Rule, format_tm_text

GOLDEN = Path(__file__).parent / "golden"
IDENTITY = ""  # zero rules: halts immediately, tape untouched
LOOPER = "1 0 1 0 N\n1 1 1 1 N\n1 _ 1 _ N\n"


@pytest.fixture
def tm(tmp_path):
    def write(text, name="m.tm"):
        path = tmp_path / name
        path.write_text(text)
        return str(path)
    return write


def records(capsys):
    out = capsys.readouterr().out
    return [json.loads(line) for line in out.splitlines()]


def test_record_shape_and_key_order(tm, capsys):
    assert cli.main(["tm-run", tm(IDENTITY), "101"]) == 0
    (rec,) = records(capsys)
    assert list(rec) == ["command", "inputs", "outcome", "cost"]
    assert rec["command"] == "tm-run"
    assert rec["outcome"] == {"kind": "halted", "output": "101", "position": 12}
    assert rec["cost"] == {"steps": 0}


def test_tm_run_out_of_fuel(tm, capsys):
    assert cli.main(["tm-run", tm(LOOPER), "1", "--fuel", "10"]) == 2
    (rec,) = records(capsys)
    assert rec["outcome"] == {"kind": "out-of-fuel"}
    assert rec["cost"] == {"steps": 10}


def test_tm_encode_decode(tm, capsys):
    assert cli.main(["tm-encode", tm("1 1 0 1 N\n")]) == 0
    (rec,) = records(capsys)
    index = rec["outcome"]["index"]
    assert index == encode_table(MachineTable((Rule(1, "1", 0, "1", "N"),)))
    assert cli.main(["tm-decode", str(index)]) == 0
    (rec,) = records(capsys)
    assert rec["outcome"]["kind"] == "table"
    assert rec["outcome"]["text"] == "1 1 0 1 N\n"


def test_tm_decode_clocked_pair(capsys):
    assert cli.main(["tm-decode", "28"]) == 0
    (rec,) = records(capsys)
    assert rec["outcome"] == {"kind": "clocked-pair", "clock": "poly:0",
                              "rules": 0, "text": ""}


def test_clock_run_cut(tm, capsys):
    path = tm("1 1 1 1 N\n")
    assert cli.main(["clock-run", path, "11", "--clock", "poly:1"]) == 0
    (rec,) = records(capsys)
    assert rec["outcome"] == {"kind": "ran", "output": "0", "position": 1,
                              "cut": True, "bound": 3}
    assert rec["cost"] == {"steps": 3}


def test_clock_run_within_bound(tm, capsys):
    assert cli.main(["clock-run", tm(IDENTITY), "11", "--clock", "poly:2"]) == 0
    (rec,) = records(capsys)
    assert rec["outcome"]["cut"] is False and rec["outcome"]["output"] == "11"


FLIP = "1 0 0 1 R\n1 1 1 0 R\n1 _ 0 _ N\n"


def test_ord_eval_prints_exact_value_past_str_digit_limit(capsys):
    # F_2(20000) = 2^20000 has 6,021 digits, past the interpreter's default
    # int/str conversion limit of 4,300
    assert cli.main(["ord-eval", "2", "20000", "--budget", "30000"]) == 0
    (rec,) = records(capsys)
    assert rec["outcome"] == {"kind": "value", "value": 2 ** 20000}


def test_clock_run_prints_exact_bound_past_str_digit_limit(tm, capsys):
    # fgh:2:14 has exponent 2^14, so the bound on a 3-bit word is 3^16384 + 16384
    assert cli.main(["clock-run", tm(FLIP), "011", "--clock", "fgh:2:14"]) == 0
    (rec,) = records(capsys)
    assert rec["outcome"]["bound"] == 3 ** 16384 + 16384
    assert rec["outcome"]["cut"] is False


def test_tm_encode_decode_roundtrip_past_str_digit_limit(tmp_path, capsys):
    sources = [(q, a) for q in range(1, 135) for a in "01_"][:400]
    table = MachineTable(tuple(
        Rule(q, a, (7 * q + i) % 135, "01_"[i % 3], "LRN"[(q + i) % 3])
        for i, (q, a) in enumerate(sources)))
    path = tmp_path / "big.tm"
    path.write_text(format_tm_text(table))
    assert cli.main(["tm-encode", str(path)]) == 0
    (rec,) = records(capsys)
    index = rec["outcome"]["index"]
    assert index == encode_table(table) and len(str(index)) > 4300
    assert cli.main(["tm-decode", str(index)]) == 0
    (rec,) = records(capsys)
    assert rec["outcome"]["kind"] == "table" and rec["outcome"]["rules"] == 400
    assert rec["outcome"]["text"] == format_tm_text(table.canonical())


def test_sat_verify_three_input_forms(tm, capsys):
    dimacs = tm("p cnf 1 1\n1 0\n", "f.cnf")
    assert cli.main(["sat-verify", "68"]) == 0
    assert cli.main(["sat-verify", "--x", "9", "--y", "2"]) == 0
    assert cli.main(["sat-verify", "--dimacs", dimacs, "--assign", "1"]) == 0
    recs = records(capsys)
    assert [r["outcome"]["value"] for r in recs] == [1, 1, 1]
    assert all(r["inputs"] == {"z": 68} for r in recs)


def test_sat_verify_usage_errors(tm, capsys):
    assert cli.main(["sat-verify"]) == 1
    assert cli.main(["sat-verify", "5", "--x", "1"]) == 1
    # --assign only means something next to --dimacs
    assert cli.main(["sat-verify", "68", "--assign", "01"]) == 1
    assert cli.main(["sat-verify", "--x", "9", "--y", "2", "--assign", "0101"]) == 1
    got = capsys.readouterr()
    assert got.out == ""
    assert got.err.count("error:") == 4


def test_sat_solve(capsys):
    assert cli.main(["sat-solve", "9"]) == 0
    (rec,) = records(capsys)
    assert rec["outcome"] == {"y": 2, "assignment": "1", "witnessed": True}


def test_sat_solve_dimacs(tm, capsys):
    dimacs = tm("p cnf 1 2\n1 0\n-1 0\n", "unsat.cnf")
    assert cli.main(["sat-solve", "--dimacs", dimacs]) == 0
    (rec,) = records(capsys)
    assert rec["outcome"]["y"] == 0 and rec["outcome"]["witnessed"] is False


def test_sat_solve_work_bound(tm, capsys):
    # 2^n assignments times the literal count: 2^16 * 2 is the bound itself
    assert cli.SOLVE_WORK_BOUND == 2 ** 17
    inside = tm("p cnf 16 2\n16 0\n-16 0\n", "inside.cnf")
    past = tm("p cnf 17 2\n17 0\n-17 0\n", "past.cnf")
    wide = tm("p cnf 15 5\n15 0\n-15 1 0\n-1 2 0\n-2 3 0\n-3 0\n", "wide.cnf")  # 2^15 * 8
    for path in (inside, past, wide):
        assert cli.main(["sat-solve", "--dimacs", path]) == 0
    got = [r["outcome"] for r in records(capsys)]
    assert got[0] == {"y": 0, "assignment": "", "witnessed": False}
    assert got[1:] == [{"kind": "budget-exceeded"}] * 2
    # a malformed formula word costs nothing and still answers
    assert cli.main(["sat-solve", str(2 ** 100)]) == 0
    assert records(capsys)[0]["outcome"]["y"] == 0


def test_dimacs_word_bound(tm, capsys):
    # one unit clause on variable v is the word 0 1^v 0, of v + 2 bits
    inside = tm("p cnf %d 1\n%d 0\n" % ((BOUND_BITS - 2,) * 2), "inside.cnf")
    past = tm("p cnf %d 1\n%d 0\n" % ((BOUND_BITS - 1,) * 2), "past.cnf")
    for argv, outcome in [(["sat-solve", "--dimacs", inside], {"kind": "budget-exceeded"}),
                          (["sat-verify", "--dimacs", inside, "--assign", "1"], {"value": 0})]:
        start = time.perf_counter()
        assert cli.main(argv) == 0
        assert time.perf_counter() - start < 1
        (rec,) = records(capsys)
        assert rec["outcome"] == outcome
    for argv in (["sat-solve", "--dimacs", past],
                 ["sat-verify", "--dimacs", past, "--assign", "1"]):
        assert cli.main(argv) == 1
        got = capsys.readouterr()
        assert got.out == ""
        assert "error: formula word has %d bits, past %d" % (BOUND_BITS + 1, BOUND_BITS) \
            in got.err


def test_dimacs_word_measured_before_it_is_built(tm, capsys):
    # variable 10^12 spells a word of 10^12 + 2 bits: refused from its
    # length alone, never built
    far = tm("p cnf %d 1\n%d 0\n" % ((10 ** 12,) * 2), "far.cnf")
    for argv in (["sat-solve", "--dimacs", far],
                 ["sat-verify", "--dimacs", far, "--assign", "1"]):
        start = time.perf_counter()
        assert cli.main(argv) == 1
        assert time.perf_counter() - start < 0.3
        got = capsys.readouterr()
        assert got.out == ""
        assert "error: formula word has %d bits, past %d" % (10 ** 12 + 2, BOUND_BITS) \
            in got.err


def test_fna_search_found(capsys):
    assert cli.main(["fna-search", "0", "--budget", "100"]) == 0
    (rec,) = records(capsys)
    assert rec["outcome"] == {"kind": "found", "witness": 1, "value": 1}


def test_fna_search_exhausted(capsys):
    assert cli.main(["fna-search", "0", "--budget", "1"]) == 0
    (rec,) = records(capsys)
    assert rec["outcome"] == {"kind": "exhausted", "budget": 1}


def test_fna_search_indeterminate_exit(capsys):
    looper = encode_table(MachineTable((Rule(1, "0", 1, "0", "N"),
                                        Rule(1, "1", 1, "1", "N"),
                                        Rule(1, "_", 1, "_", "N"))))
    assert cli.main(["fna-search", str(looper), "--budget", "10",
                     "--fuel", "50"]) == 2
    (rec,) = records(capsys)
    assert rec["outcome"] == {"kind": "indeterminate", "z": 0}


def test_fna_search_guarded_default(capsys):
    # a plain-table index is never a pair image; unregistered, so defaulted
    unknown = encode_table(MachineTable((Rule(1, "0", 0, "1", "R"),)))
    assert cli.main(["fna-search", str(unknown), "--budget", "5",
                     "--guarded", "--no-registry"]) == 0
    (rec,) = records(capsys)
    assert rec["outcome"] == {"kind": "found", "witness": 0, "value": 0}
    assert rec["inputs"]["guarded"] is True


def test_fna_search_guarded_registered_family(tmp_path, capsys):
    reg = str(tmp_path / "f.txt")
    assert cli.main(["qfam-build", "1", "1", "--registry", reg]) == 0
    (built,) = records(capsys)
    godel = built["outcome"]["index"]
    assert built["outcome"]["threshold"] == 2
    assert cli.main(["fna-search", str(godel), "--budget", "10",
                     "--guarded", "--registry", reg]) == 0
    (rec,) = records(capsys)
    # positions above the threshold get the default answer, wrong at z = 6
    assert rec["outcome"] == {"kind": "found", "witness": 6, "value": 6}


def test_budget_env_default(capsys, monkeypatch):
    monkeypatch.setenv("CLOCKWORK_BUDGET", "77")
    assert cli.main(["fna-search", "0"]) == 0
    (rec,) = records(capsys)
    assert rec["inputs"]["budget"] == 77


def test_ord_eval_value_and_overflow(capsys):
    assert cli.main(["ord-eval", "2", "3"]) == 0
    assert cli.main(["ord-eval", "3", "8", "--budget", "1000"]) == 0
    assert cli.main(["ord-eval", "eps0", "2"]) == 0
    recs = records(capsys)
    assert recs[0]["outcome"] == {"kind": "value", "value": 8}
    assert recs[0]["cost"] == {"calls": 4}
    assert recs[1]["outcome"] == {"kind": "overflow", "budget": 1000}
    assert recs[2]["outcome"] == {"kind": "value", "value": 4}


def test_ord_fs(capsys):
    assert cli.main(["ord-fs", "w^w", "2"]) == 0
    (rec,) = records(capsys)
    assert rec["outcome"] == {"ordinal": "w^2"}


def test_ord_fs_not_limit_is_usage_error(capsys):
    assert cli.main(["ord-fs", "w+1", "3"]) == 1
    assert "error:" in capsys.readouterr().err


def test_dominate(capsys):
    assert cli.main(["dominate", "fgh:2", "fgh:1", "--lo", "1", "--hi", "8"]) == 0
    assert cli.main(["dominate", "fgh:1", "fgh:2", "--lo", "1", "--hi", "8"]) == 0
    recs = records(capsys)
    assert recs[0]["outcome"] == {"kind": "holds"}
    assert recs[1]["outcome"] == {"kind": "fails-at", "x": 3}


@pytest.mark.parametrize("window, message", [
    (("-3", "2"), "must be >= 0"),
    (("5", "2"), "0 <= lo <= hi"),
    (("0", "100000000000"), "has more than 4096 points"),
])
def test_dominate_bad_window_is_usage_error(window, message, capsys):
    lo, hi = window
    assert cli.main(["dominate", "fgh:2", "fgh:1", "--lo", lo, "--hi", hi]) == 1
    got = capsys.readouterr()
    assert got.out == ""
    assert "error:" in got.err and message in got.err


def test_deep_ordinal_text_is_usage_error(capsys):
    assert cli.main(["ord-eval", "w^" * 1200 + "1", "2"]) == 1
    assert cli.main(["ord-eval", "(" * 1200 + "1" + ")" * 1200, "2"]) == 1
    got = capsys.readouterr()
    assert got.out == ""
    assert got.err.count("error: ordinal text nests deeper than 256") == 2
    # the deepest accepted text still answers
    assert cli.main(["ord-eval", "w^" * 256 + "1", "2", "--budget", "100"]) == 0
    assert cli.main(["ord-eval", "(" * 256 + "1" + ")" * 256, "2"]) == 0
    assert [r["outcome"] for r in records(capsys)] == [{"kind": "overflow", "budget": 100},
                                                       {"kind": "value", "value": 4}]


def test_qfam_build_overflow(capsys):
    assert cli.main(["qfam-build", "1", "3000", "--no-registry"]) == 0
    (rec,) = records(capsys)
    assert rec["outcome"]["kind"] == "overflow"


def test_qfam_stride_records(capsys):
    assert cli.main(["qfam-stride", "1", "0", "--count", "4",
                     "--no-registry"]) == 0
    machine, clock, quad = records(capsys)
    assert machine["outcome"]["role"] == "machine"
    assert machine["outcome"]["stride"] == 16384
    assert clock["outcome"]["role"] == "clock"
    assert clock["outcome"]["stride"] == 16384
    assert quad["outcome"]["second_diffs_constant"] is True
    assert quad["outcome"]["third_diffs_zero"] is True


def test_qfam_peaks_records(capsys):
    assert cli.main(["qfam-peaks", "1", "0", "--count", "3",
                     "--no-registry"]) == 0
    recs = records(capsys)
    assert [r["outcome"]["result"] for r in recs] == ["found"] * 3
    assert [r["outcome"]["witness"] for r in recs] == [1, 6, 68]
    assert [r["outcome"]["first_coord"] for r in recs] == [1, 3, 9]
    assert [r["outcome"]["threshold"] for r in recs] == [0, 2, 4]


def test_qfam_peaks_exhausted(capsys):
    assert cli.main(["qfam-peaks", "1", "2", "--count", "1", "--budget", "50",
                     "--no-registry"]) == 0
    (rec,) = records(capsys)
    assert rec["outcome"]["result"] == "exhausted"
    assert rec["outcome"]["budget"] == 50


def test_qfam_peaks_takes_no_fuel(capsys):
    # a probe searches a clocked pair or the trivial machine, and neither
    # reads fuel, so qfam-peaks has no --fuel flag
    assert cli.main(["qfam-peaks", "1", "0", "--fuel", "5", "--no-registry"]) == 1
    got = capsys.readouterr()
    assert got.out == ""
    assert "unrecognized arguments: --fuel 5" in got.err


@pytest.mark.parametrize("argv", [
    ["qfam-build", "1", "20"],
    ["qfam-stride", "1", "15", "--count", "2"],
    ["qfam-peaks", "1", "16", "--count", "1"],
])
def test_qfam_names_the_family_parameter(argv, capsys):
    assert cli.main([*argv, "--width", "4", "--no-registry"]) == 1
    got = capsys.readouterr()
    assert got.out == ""
    assert got.err == "error: n must fit the 4-bit field\n"


def test_qfam_past_desk_reach_answers_overflow(capsys):
    # F_3(4) = 65536 is past the desk bound: peaks stop at the first such n,
    # since thresholds do not fall as n grows
    assert cli.main(["qfam-peaks", "3", "2", "--count", "3", "--no-registry"]) == 0
    recs = records(capsys)
    assert [r["inputs"]["n"] for r in recs] == [2, 3, 4]
    assert [r["outcome"]["kind"] for r in recs] == ["peak", "peak", "overflow"]
    assert "65536 is out of desk reach" in recs[2]["outcome"]["reason"]
    assert cli.main(["qfam-peaks", "3", "4", "--count", "1", "--no-registry"]) == 0
    assert [r["outcome"]["kind"] for r in records(capsys)] == ["overflow"]
    assert cli.main(["qfam-stride", "3", "4", "--no-registry"]) == 0
    (rec,) = records(capsys)
    assert rec["outcome"] == recs[2]["outcome"]
    assert rec["inputs"] == {"alpha": "3", "n0": 4, "count": 4, "width": 16}


def _limit_memory():
    resource.setrlimit(resource.RLIMIT_AS, (1 << 30, 1 << 30))


def _child(argv):
    """One tmlab invocation in a child capped at 1 GB of address space and
    10 s, so that a runaway build fails the test instead of swapping or
    stalling the suite."""
    src = str(Path(tmlab.__file__).resolve().parent.parent)
    env = dict(os.environ, PYTHONPATH=src)
    env.pop("CLOCKWORK_BUDGET", None)
    return subprocess.run([sys.executable, "-m", "tmlab", *argv], env=env,
                          capture_output=True, text=True, timeout=10,
                          preexec_fn=_limit_memory)


def _child_outcome(argv):
    """The outcome of one tmlab invocation run by _child."""
    got = _child(argv)
    assert got.returncode == 0, got.stderr
    (line,) = got.stdout.splitlines()
    return json.loads(line)["outcome"]


@pytest.mark.parametrize("argv, outcome", [
    (["ord-eval", "eps0", "3000000"], {"kind": "overflow", "budget": 10000}),
    (["ord-eval", "eps0", "30000000"], {"kind": "overflow", "budget": 10000}),
    # a sigma word whose eps0 clock has k = 4,533,791,592
    (["tm-decode", "133118694020816"], {"kind": "table", "rules": 0, "text": ""}),
])
def test_eps0_levels_past_budget_answer_at_once(argv, outcome):
    # building the k-high omega tower would blow the child's memory cap
    assert _child_outcome(argv) == outcome


@pytest.mark.parametrize("argv", [
    # walker moves right forever, under a bound of 2^40 + 40 steps
    ["clock-run", str(GOLDEN / "walker.tm"), "11", "--clock", "poly:40"],
    # 2^40 assignments of an unsatisfiable pair of unit clauses
    ["sat-solve", "--dimacs", str(GOLDEN / "unsat40.cnf")],
])
def test_work_past_desk_reach_answers_at_once(argv):
    assert _child_outcome(argv) == {"kind": "budget-exceeded"}


def test_window_past_work_bound_answers_at_once():
    # 4,096 points of F_2 against itself: the values' bits pass WINDOW_BITS
    # at x = 255, long before the call budget would stop anything
    assert _child_outcome(["dominate", "fgh:2", "fgh:2", "--lo", "0", "--hi", "4095"]) \
        == {"kind": "unknown", "x": 255}


@pytest.mark.parametrize("argv", [
    ["sat-solve", "--dimacs", str(GOLDEN / "unit10m.cnf")],
    ["sat-verify", "--dimacs", str(GOLDEN / "unit10m.cnf"), "--assign", "1"],
])
def test_dimacs_word_past_bound_is_usage_error_at_once(argv):
    # one unit clause on variable 10^7: its position would print for minutes
    got = _child(argv)
    assert (got.returncode, got.stdout) == (1, "")
    assert got.stderr.startswith("error: formula word has 10000002 bits")


def test_family_word_past_decode_budget_answers_at_once():
    # family word: level 3, n = 8, width 16.  F_3(8) is past the decoder's
    # 10^4-call budget, so the word decodes to the trivial machine without
    # first running the evaluator up to the build budget of 10^6 calls
    assert _child_outcome(["tm-decode", "14362371173212"]) \
        == {"kind": "table", "rules": 0, "text": ""}


def test_registry_file_is_written(tmp_path, capsys):
    reg = tmp_path / "fregistry.txt"
    assert cli.main(["qfam-build", "1", "0", "--registry", str(reg)]) == 0
    capsys.readouterr()
    lines = reg.read_text().splitlines()
    assert lines[0] == "fregistry 1"
    assert len(lines) >= 2


def test_human_rendering(tm, capsys):
    assert cli.main(["tm-run", tm(IDENTITY), "1", "--human"]) == 0
    out = capsys.readouterr().out
    assert out.startswith("tm-run: kind=halted output=1")
    assert "{" not in out


def test_usage_and_help_exit_codes(capsys):
    assert cli.main([]) == 1
    with_help = cli.main(["--help"])
    capsys.readouterr()
    assert with_help == 0


def test_bad_word_is_usage_error(tm, capsys):
    assert cli.main(["tm-run", tm(IDENTITY), "102"]) == 1
    assert "error:" in capsys.readouterr().err


def test_missing_file_is_usage_error(capsys):
    assert cli.main(["tm-run", "no-such-file.tm", "1"]) == 1
    assert "error:" in capsys.readouterr().err


def test_determinism(capsys):
    assert cli.main(["qfam-stride", "1", "0", "--count", "3",
                     "--no-registry"]) == 0
    first = capsys.readouterr().out
    assert cli.main(["qfam-stride", "1", "0", "--count", "3",
                     "--no-registry"]) == 0
    assert capsys.readouterr().out == first


@pytest.mark.parametrize("argv", [
    ["fna-search", "0", "--budget", "-3"],
    ["fna-search", "0", "--fuel", "-1"],
    ["ord-eval", "2", "3", "--budget", "-1"],
    ["dominate", "fgh:2", "fgh:1", "--lo", "1", "--hi", "8", "--budget", "-1"],
    ["qfam-stride", "1", "0", "--count", "-1", "--no-registry"],
    ["qfam-peaks", "1", "3", "--count", "-2", "--no-registry"],
    ["qfam-peaks", "1", "3", "--budget", "-5", "--no-registry"],
])
def test_negative_amounts_are_usage_errors(argv, capsys):
    assert cli.main(argv) == 1
    got = capsys.readouterr()
    assert got.out == ""
    assert "error:" in got.err and "must be >= 0" in got.err


@pytest.mark.parametrize("text", ["1_000", "+3", " 3", "\u0664", "\u00b2"])
def test_numbers_are_ascii_digits_only(text, capsys):
    assert cli.main(["tm-decode", text]) == 1
    assert "not an integer: %r" % text in capsys.readouterr().err


@pytest.mark.parametrize("argv", [
    ["ord-eval", "2", "-3"],
    ["ord-fs", "w", "-1"],
    ["tm-decode", "-7"],
    ["sat-verify", "-2"],
    ["sat-verify", "--x", "-1", "--y", "0"],
    ["sat-solve", "-4"],
    ["fna-search", "-5"],
    ["qfam-build", "1", "-1", "--no-registry"],
    ["qfam-stride", "1", "-2", "--no-registry"],
    ["qfam-peaks", "1", "3", "--width", "-1", "--no-registry"],
])
def test_negative_positions_are_usage_errors(argv, capsys):
    assert cli.main(argv) == 1
    got = capsys.readouterr()
    assert got.out == ""
    assert "error:" in got.err and "must be >= 0" in got.err


def test_negative_budget_env_is_usage_error(capsys, monkeypatch):
    monkeypatch.setenv("CLOCKWORK_BUDGET", "-3")
    assert cli.main(["fna-search", "0"]) == 1
    got = capsys.readouterr()
    assert got.out == ""
    assert "error: CLOCKWORK_BUDGET must be >= 0" in got.err


def test_zero_amounts_still_answer(capsys):
    assert cli.main(["fna-search", "0", "--budget", "0"]) == 0
    assert records(capsys)[0]["outcome"] == {"kind": "exhausted", "budget": 0}
    assert cli.main(["qfam-peaks", "1", "3", "--count", "0", "--no-registry"]) == 0
    assert records(capsys) == []
    assert cli.main(["qfam-stride", "1", "0", "--count", "0", "--no-registry"]) == 0
    machine, clock, quad = records(capsys)
    assert machine["outcome"]["indices"] == [] and machine["outcome"]["base"] is None
    assert quad["outcome"]["indices"] == []
