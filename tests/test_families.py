"""Dispatch-table builders, index families, and the peak probe."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

import tmlab
from tmlab import registry
from tmlab.clocks import BudgetExceeded, Parametrized, PlainPoly
from tmlab.codec import clock_index, encode_table, family_index
from tmlab.families import (
    BuildFuelExhausted,
    BuildOverflow,
    PghTable,
    QSpec,
    build_PGH,
    build_Q,
    build_q_table,
    clock_stride_analysis,
    differences,
    p_index,
    peak_probe,
    stride_analysis,
)
from tmlab.hierarchy import FghFn, TableFn
from tmlab.machines import Halted, MachineTable, Rule, run, trivial_machine
from tmlab.ordinals import ord_parse
from tmlab.registry import FRegistry
from tmlab.sat import Exhausted, Found, solve_E
from tmlab.words import index_word

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


def test_q_table_zero_threshold():
    table = build_q_table(ORD1, 0)  # F_1(0) = 0: only position 0 in range
    assert table.threshold == 0
    assert run(table, "", 100) == Halted("", 1)
    assert run(table, "11", 100) == Halted("0", 3)


def test_q_build_overflow_and_budget():
    with pytest.raises(BuildOverflow):
        build_q_table(ORD1, 3000)  # threshold 6000 exceeds the desk cap
    with pytest.raises(BudgetExceeded):
        build_q_table(ord_parse("3"), 8, eval_budget=10 ** 4)


def test_build_q_registers_family_word():
    table, godel, spec = build_Q(ORD1, 1)
    assert godel == family_index(ORD1, 1, 16)
    assert spec == QSpec(ORD1, 1, 2, 16)
    assert table.family_key == (ORD1, 1, 16)
    assert godel in registry.members()


def test_pgh_wraps_a_measured_machine():
    table = build_PGH(trivial_machine(), TableFn((2, 5)), 0)
    assert isinstance(table, PghTable)
    assert table.threshold == 2 and table.clock == PlainPoly(1)
    for x in range(3):
        w = index_word(x)
        assert run(table, w, 100) == Halted(w, len(w) + max(1, len(w)))
    assert run(table, "111", 100).output == "0"
    assert encode_table(table) in registry.members()


def test_pgh_fuel_exhausted():
    loop = MachineTable((Rule(1, "1", 1, "1", "N"),))
    with pytest.raises(BuildFuelExhausted):
        build_PGH(loop, TableFn((2,)), 0, fuel=100)


def test_pgh_overflow_paths():
    with pytest.raises(BuildOverflow):
        build_PGH(trivial_machine(), TableFn((9999,)), 0)
    with pytest.raises(BuildOverflow):
        build_PGH(trivial_machine(), FghFn(ord_parse("3")), 8,
                  eval_budget=10 ** 4)  # bound value not evaluable


def test_family_stride_is_exact():
    report = stride_analysis(ORD1, range(5))
    assert report.stride == 1 << 14
    assert report.base == family_index(ORD1, 0, 16)
    assert report.indices == tuple(report.base + n * (1 << 14) for n in range(5))
    for i in report.indices:
        assert i in registry.members()


def test_clock_stride_matches_family_stride():
    report = clock_stride_analysis(ORD1, range(5))
    assert report.stride == 1 << 14
    assert report.indices[0] == clock_index(Parametrized(ORD1, 0, 16))


def test_wider_level_changes_stride():
    assert stride_analysis(ORD2, range(3)).stride == 1 << 16


def test_pair_position_is_quadratic_in_n():
    ps = [p_index(family_index(ORD1, n, 16),
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
        assert p.sigma_index in registry.members()
    witnesses = [p.outcome.witness for p in probes]
    assert witnesses == sorted(set(witnesses))  # strictly increasing peaks


def test_peak_probe_exhausts_under_small_budget():
    probe = peak_probe(ORD1, 2, budget=50)
    assert probe.outcome == Exhausted(50)
    assert probe.first_coord is None


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
