"""Replay of the golden CLI transcript, tests/golden/cli.jsonl.

Each line is re-run in-process through `cli.main` (see tests/golden/regen.py
for the conditions).  The exit code, the first stderr line, every text line
and every record's `command`, `inputs` and `outcome` must match byte for byte;
`cost` is compared on its own, so a change of what a command reports as spent
shows as a separate failure.
"""

import importlib.util
import json
from pathlib import Path

GOLDEN = Path(__file__).parent / "golden"
_spec = importlib.util.spec_from_file_location("golden_regen", GOLDEN / "regen.py")
regen = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(regen)

HEAD = ("command", "inputs", "outcome")


def _head(record: dict) -> str:
    return json.dumps({key: record[key] for key in HEAD})


def test_golden_cli_transcript():
    lines = (GOLDEN / "cli.jsonl").read_text().splitlines()
    assert len(lines) >= 80
    mismatches, cost_mismatches = [], []
    for number, line in enumerate(lines, 1):
        want = json.loads(line)
        code, out, err = regen.run_case(want)
        where = "line %d %s" % (number, " ".join(want["argv"])[:80])
        got_err = err.splitlines()[0] if err else ""
        if (code, got_err) != (want["exit"], want["err"]):
            mismatches.append("%s: exit %s, err %r; want exit %s, err %r"
                              % (where, code, got_err, want["exit"], want["err"]))
        got_lines = out.splitlines()
        if len(got_lines) != len(want["out"]):
            mismatches.append("%s: %d stdout lines, want %d"
                              % (where, len(got_lines), len(want["out"])))
            continue
        for got_line, want_item in zip(got_lines, want["out"]):
            if isinstance(want_item, str):
                if got_line != want_item:
                    mismatches.append("%s: %r, want %r" % (where, got_line, want_item))
                continue
            try:
                record = json.loads(got_line)
            except ValueError:
                record = {}
            if list(record) != list(want_item) or _head(record) != _head(want_item):
                mismatches.append("%s: %s, want %s" % (where, got_line, json.dumps(want_item)))
            elif record["cost"] != want_item["cost"]:
                cost_mismatches.append("%s: cost %s, want %s"
                                       % (where, record["cost"], want_item["cost"]))
    assert mismatches == []
    assert cost_mismatches == []
