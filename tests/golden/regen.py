"""Regenerate the golden CLI transcript, tests/golden/cli.jsonl.

    PYTHONPATH=src python3 tests/golden/regen.py

Each entry of CASES is one tmlab invocation.  It runs in-process through
`tmlab.cli.main` with this directory as the working directory, so fixture
paths in `inputs.file` stay relative and stable.  CLOCKWORK_BUDGET is unset
unless the case sets it, COLUMNS is 80 (argparse wraps usage lines to it), and
the in-process registry starts empty.  The argument "{registry}" stands for a
registry file in a fresh temporary directory, seeded with the case's
"registry" indices.  One line is written per case:

    {"argv": [...], "env": {...}, "registry": [...],
     "exit": 0, "out": [...], "err": "first stderr line"}

A JSON stdout line is kept as its record and any other stdout line (--human,
--help) as text.  An exception that escapes `main` is kept as a process would
show it: exit 1, and a first stderr line "Traceback (most recent call last):".
`tests/test_golden_cli.py` replays every line.  A change that alters a line
regenerates the file and says which lines changed, and why.
"""

import io
import json
import os
import sys
import tempfile
import traceback
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

HERE = Path(__file__).resolve().parent
GOLDEN = HERE / "cli.jsonl"
sys.path.insert(0, str(HERE.parents[1] / "src"))

from tmlab import cli, registry  # noqa: E402

LOOPER = "1510619421904612628616504750"  # looper.tm: head-still loop on every symbol
UNKNOWN = "1310221222"  # a plain table, neither a pair image nor registered
FAMILY_1_0 = "3590592662364"  # family word: level 1, n = 0, width 16
FAMILY_1_1 = 3590592678748  # family word: level 1, n = 1, width 16
FAMILY_EPS0_1 = "112206021468"  # family word: eps0, n = 1, width 16
FAMILY_200_2 = "229248753256540"  # family word: level 200, n = 2, width 8
FAMILY_1_2048 = "3590626216796"  # family word: level 1, n = 2048, width 16
SIGMA_POLY = "141397806663293158498560927150"  # flip.tm under poly:1
SIGMA_EPS0 = "1970180"  # trivial machine under the eps0 clock at k = 2
SIGMA_F2 = "252183849"  # trivial machine under fgh:2 at k = 5
SIGMA_F3 = "252184618"  # fgh:3 at k = 8: out of the decoder's budget
SIGMA_WW = "16139733294"  # fgh:w^w at k = 3: out of the decoder's budget
SIGMA_EPS0_HUGE = "133118694020816"  # eps0 clock at k = 4,533,791,592
# a walker under poly:40: erases a lone 0 and halts, walks right forever on 00
WALKER_POLY40 = "5500360249319885162679420502985408713403859767816649762214"


def case(*argv, env=None, seed=None):
    entry = {"argv": list(argv)}
    if env is not None:
        entry["env"] = env
    if seed is not None:
        entry["registry"] = seed
    return entry


CASES = [
    # tm-run
    case("tm-run", "identity.tm", "101"),
    case("tm-run", "identity.tm"),
    case("tm-run", "flip.tm", "0110"),
    case("tm-run", "halt1.tm", "1"),
    case("tm-run", "looper.tm", "1", "--fuel", "10"),
    case("tm-run", "looper.tm", "", "--fuel", "0"),
    case("tm-run", "walker.tm", "11", "--fuel", "100"),
    case("tm-run", "flip.tm", "0110", "--human"),
    case("tm-run", "looper.tm", "1", "--fuel", "5", "--human"),
    case("tm-run", "identity.tm", "102"),
    case("tm-run", "no-such-file.tm", "1"),
    case("tm-run", "bad.tm", "1"),
    case("tm-run", "flip.tm", "1", "--fuel", "-1"),
    case("tm-run", "flip.tm", "1", "--fuel", "ten"),
    case("tm-run", "far.tm", "01"),
    case("tm-run", "arabic.tm", "1"),  # state written with an Arabic-Indic digit
    case("tm-run", "super.tm", "1"),  # state written with a superscript two
    # tm-encode
    case("tm-encode", "halt1.tm"),
    case("tm-encode", "flip.tm"),
    case("tm-encode", "identity.tm"),
    case("tm-encode", "looper.tm", "--human"),
    case("tm-encode", "no-such-file.tm"),
    case("tm-encode", "bad.tm"),
    # tm-decode
    case("tm-decode", "0"),
    case("tm-decode", "28"),
    case("tm-decode", "1312318382"),
    case("tm-decode", LOOPER),
    case("tm-decode", "12345"),
    case("tm-decode", FAMILY_1_0),
    case("tm-decode", FAMILY_EPS0_1),
    case("tm-decode", FAMILY_200_2),
    case("tm-decode", SIGMA_POLY),
    case("tm-decode", SIGMA_EPS0),
    case("tm-decode", SIGMA_F2),
    case("tm-decode", SIGMA_F3),
    case("tm-decode", SIGMA_WW),
    case("tm-decode", SIGMA_EPS0_HUGE),
    case("tm-decode", "28", "--human"),
    case("tm-decode", "-7"),
    case("tm-decode", "abc"),
    case("tm-decode", "1_000"),
    # clock-run
    case("clock-run", "keep.tm", "11", "--clock", "poly:1"),
    case("clock-run", "identity.tm", "11", "--clock", "poly:2"),
    case("clock-run", "flip.tm", "0110", "--clock", "poly:2"),
    case("clock-run", "flip.tm", "0110", "--clock", "fgh:w:2"),
    case("clock-run", "walker.tm", "1", "--clock", "fgh:eps0:1"),
    case("clock-run", "flip.tm", "0", "--clock", "fgh:eps0:2000"),
    case("clock-run", "flip.tm", "011", "--clock", "fgh:2:20"),  # bound past desk reach
    case("clock-run", "keep.tm", "11", "--clock", "poly:1", "--human"),
    case("clock-run", "flip.tm", "0", "--clock", "bogus"),
    case("clock-run", "flip.tm", "0", "--clock", "fgh:3"),
    case("clock-run", "flip.tm", "0"),
    case("clock-run", "walker.tm", "11", "--clock", "poly:40"),  # still going at STEP_CAP
    case("clock-run", "walker.tm", "1", "--clock", "poly:1_0"),
    case("clock-run", "walker.tm", "1", "--clock", "poly:+3"),
    # sat-verify
    case("sat-verify", "68"),
    case("sat-verify", "0"),
    case("sat-verify", "--x", "9", "--y", "2"),
    case("sat-verify", "--dimacs", "sat.cnf", "--assign", "1"),
    case("sat-verify", "--dimacs", "sat.cnf", "--assign", "0"),
    case("sat-verify", "--dimacs", "unsat.cnf", "--assign", "1"),
    case("sat-verify", "68", "--human"),
    case("sat-verify", "68", "--assign", "01"),
    case("sat-verify", "--x", "9", "--y", "2", "--assign", "0101"),
    case("sat-verify"),
    case("sat-verify", "5", "--x", "1"),
    case("sat-verify", "--x", "9", "--y", "2", "--dimacs", "unsat.cnf", "--assign", "1"),
    case("sat-verify", "--x", "9", "--dimacs", "unsat.cnf"),
    case("sat-verify", "--x", "9"),
    case("sat-verify", "--dimacs", "bad.cnf"),
    case("sat-verify", "--dimacs", "sat.cnf", "--assign", "2"),
    case("sat-verify", "--dimacs", "no-such-file.cnf"),
    case("sat-verify", "--dimacs", "unit10m.cnf", "--assign", "1"),  # word past BOUND_BITS
    # sat-solve
    case("sat-solve", "9"),
    case("sat-solve", "0"),
    case("sat-solve", "--dimacs", "sat.cnf"),
    case("sat-solve", "--dimacs", "unsat.cnf", "--human"),
    case("sat-solve"),
    case("sat-solve", "9", "--dimacs", "sat.cnf"),
    case("sat-solve", "--dimacs", "unsat16.cnf"),  # 2^16 x 2 literals: at the work bound
    case("sat-solve", "--dimacs", "unsat40.cnf"),  # 2^40 x 2 literals: past it
    case("sat-solve", "\u0664"),  # Arabic-Indic four
    case("sat-solve", "--dimacs", "unit10m.cnf"),  # a 10^7 + 2-bit word: past BOUND_BITS
    case("sat-solve", "--dimacs", "unit1t.cnf"),  # a 10^12 + 2-bit word: refused unbuilt
    # fna-search
    case("fna-search", "0", "--budget", "100"),
    case("fna-search", "0", "--budget", "1"),
    case("fna-search", "0", "--budget", "0"),
    case("fna-search", LOOPER, "--budget", "10", "--fuel", "50"),
    case("fna-search", UNKNOWN, "--budget", "5", "--guarded", "--no-registry"),
    case("fna-search", str(FAMILY_1_1), "--budget", "10", "--guarded",
         "--registry", "{registry}", seed=[FAMILY_1_1]),
    case("fna-search", SIGMA_POLY, "--budget", "200", "--guarded", "--no-registry"),
    case("fna-search", FAMILY_1_2048, "--budget", "100000000"),  # threshold 4096
    case("fna-search", WALKER_POLY40, "--budget", "10"),  # undecided at z = 6
    case("fna-search", WALKER_POLY40, "--budget", "10", "--guarded", "--no-registry"),
    case("fna-search", "0", env={"CLOCKWORK_BUDGET": "77"}),
    case("fna-search", "0", "--budget", "30", env={"CLOCKWORK_BUDGET": "77"}),
    case("fna-search", "0", "--budget", "100", "--human"),
    case("fna-search", "0", env={"CLOCKWORK_BUDGET": "-3"}),
    case("fna-search", "0", env={"CLOCKWORK_BUDGET": "lots"}),
    case("fna-search", "0", "--budget", "-3"),
    # ord-eval
    case("ord-eval", "2", "3"),
    case("ord-eval", "w", "3"),
    case("ord-eval", "0", "5"),
    case("ord-eval", "w^w", "2"),
    case("ord-eval", "3", "8", "--budget", "1000"),
    case("ord-eval", "eps0", "0"),
    case("ord-eval", "eps0", "2"),
    case("ord-eval", "eps0", "1", "--budget", "2"),
    case("ord-eval", "eps0", "3", "--budget", "100"),
    case("ord-eval", "eps0", "2000"),
    case("ord-eval", "eps0", "20000"),
    case("ord-eval", "eps0", "3000000"),
    case("ord-eval", "eps0", "30000000"),
    case("ord-eval", "eps0", "1", "--budget", "3"),
    case("ord-eval", "2", "20", "--budget", "20"),  # F_2: one call per doubling
    case("ord-eval", "2", "20", "--budget", "21"),
    case("ord-eval", "3", "4", "--budget", "27"),  # F_3 iterates F_2
    case("ord-eval", "3", "4", "--budget", "28"),
    case("ord-eval", "w", "3", "--human"),
    case("ord-eval", "w^" * 1200 + "1", "2"),
    case("ord-eval", "2", "-3"),
    case("ord-eval", "w+", "2"),
    case("ord-eval", "\u0661", "2"),  # Arabic-Indic one
    # ord-fs
    case("ord-fs", "w^w", "2"),
    case("ord-fs", "w*3", "4"),
    case("ord-fs", "w+1", "3"),
    case("ord-fs", "eps0", "2"),
    case("ord-fs", "w", "-1"),
    # dominate
    case("dominate", "fgh:2", "fgh:1", "--lo", "1", "--hi", "8"),
    case("dominate", "fgh:1", "fgh:2", "--lo", "1", "--hi", "8"),
    case("dominate", "fgh:4", "fgh:3", "--lo", "0", "--hi", "6"),
    case("dominate", "table:0,2,4", "fgh:1", "--lo", "0", "--hi", "2"),
    case("dominate", "table:0,2", "fgh:1", "--lo", "0", "--hi", "2"),
    case("dominate", "eps0", "fgh:2@poly:0,1", "--lo", "1", "--hi", "2"),
    case("dominate", "fgh:3", "eps0", "--lo", "0", "--hi", "2", "--budget", "50"),
    case("dominate", "fgh:2", "fgh:1", "--lo", "1", "--hi", "4", "--human"),
    case("dominate", "fgh:2", "fgh:1", "--lo", "-3", "--hi", "2"),
    case("dominate", "fgh:2", "fgh:1", "--lo", "5", "--hi", "2"),
    case("dominate", "bogus", "fgh:1", "--lo", "0", "--hi", "1"),
    case("dominate", "table:-3,-4", "fgh:0", "--lo", "0", "--hi", "1"),
    case("dominate", "fgh:eps0", "fgh:1", "--lo", "0", "--hi", "1"),
    case("dominate", "eps0@x", "fgh:1", "--lo", "0", "--hi", "1"),
    case("dominate", "fgh:2@", "fgh:1", "--lo", "0", "--hi", "1"),
    case("dominate", "fgh:2", "fgh:1"),
    case("dominate", "fgh:1", "fgh:0", "--lo", "0", "--hi", "100000000000"),
    case("dominate", "fgh:1", "table:\u0663,4", "--lo", "0", "--hi", "1"),
    case("dominate", "fgh:2", "fgh:2", "--lo", "0", "--hi", "4095"),  # past WINDOW_BITS at 255
    # qfam-build
    case("qfam-build", "1", "1", "--no-registry"),
    case("qfam-build", "2", "3", "--no-registry"),
    case("qfam-build", "eps0", "1", "--no-registry"),
    case("qfam-build", "1", "1", "--width", "4", "--no-registry"),
    case("qfam-build", "1", "3000", "--no-registry"),
    case("qfam-build", "3", "4", "--no-registry"),
    case("qfam-build", "1", "1", "--registry", "{registry}"),
    case("qfam-build", "1", "0", "--human", "--no-registry"),
    case("qfam-build", "1", "20", "--width", "4", "--no-registry"),
    case("qfam-build", "1", "-1", "--no-registry"),
    # qfam-stride
    case("qfam-stride", "1", "0", "--count", "4", "--no-registry"),
    case("qfam-stride", "2", "0", "--count", "3", "--width", "8", "--no-registry"),
    case("qfam-stride", "2", "6", "--count", "3", "--width", "8", "--no-registry"),
    case("qfam-stride", "1", "0", "--count", "0", "--no-registry"),
    case("qfam-stride", "1", "0", "--count", "2", "--human", "--no-registry"),
    case("qfam-stride", "3", "4", "--no-registry"),
    case("qfam-stride", "1", "-2", "--no-registry"),
    case("qfam-stride", "1"),
    # qfam-peaks
    case("qfam-peaks", "1", "0", "--count", "3", "--no-registry"),
    case("qfam-peaks", "1", "2", "--count", "1", "--budget", "50", "--no-registry"),
    case("qfam-peaks", "1", "0", "--count", "2", "--registry", "{registry}"),
    case("qfam-peaks", "1", "3", "--count", "0", "--no-registry"),
    case("qfam-peaks", "1", "0", "--count", "1", "--human", "--no-registry"),
    case("qfam-peaks", "3", "4", "--count", "1", "--no-registry"),
    case("qfam-peaks", "3", "2", "--count", "3", "--no-registry"),
    case("qfam-peaks", "1", "3", "--count", "-2", "--no-registry"),
    case("qfam-peaks", "1", "0", "--fuel", "5", "--no-registry"),
    # the command line itself
    case(),
    case("--help"),
    case("tm-run", "--help"),
    case("fna-search", "--help"),
    case("dominate", "--help"),
    case("qfam-peaks", "--help"),
    case("no-such-command"),
]


def run_case(entry: dict):
    """Run one invocation as described above: (exit code, stdout, stderr)."""
    out, err = io.StringIO(), io.StringIO()
    saved_env = dict(os.environ)
    saved_cwd = os.getcwd()
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "fregistry.txt")
        if "registry" in entry:
            Path(path).write_text(
                "fregistry 1\n" + "".join("%d\n" % i for i in entry["registry"]))
        argv = [path if arg == "{registry}" else arg for arg in entry["argv"]]
        os.environ.pop("CLOCKWORK_BUDGET", None)
        os.environ["COLUMNS"] = "80"
        os.environ.update(entry.get("env", {}))
        registry.clear()
        os.chdir(HERE)
        try:
            with redirect_stdout(out), redirect_stderr(err):
                try:
                    code = cli.main(argv)
                except Exception:
                    traceback.print_exc()
                    code = 1
        finally:
            os.chdir(saved_cwd)
            os.environ.clear()
            os.environ.update(saved_env)
            registry.clear()
    return code, out.getvalue(), err.getvalue()


def stdout_items(text: str) -> list:
    """Stdout lines: a JSON record line as its record, any other as text."""
    items = []
    for line in text.splitlines():
        try:
            record = json.loads(line)
        except ValueError:
            record = None
        items.append(record if isinstance(record, dict) else line)
    return items


def transcribe(entry: dict) -> dict:
    code, out, err = run_case(entry)
    return dict(entry, exit=code, out=stdout_items(out),
                err=err.splitlines()[0] if err else "")


def main() -> int:
    lines = [json.dumps(transcribe(entry)) + "\n" for entry in CASES]
    GOLDEN.write_text("".join(lines))
    print("wrote %d lines to %s" % (len(lines), GOLDEN))
    return 0


if __name__ == "__main__":
    sys.exit(main())
