"""Tiny-size smoke run of all four workloads, so the benchmark cannot rot.

    python3 bench/smoke.py

Runs bench/run.py at --size tiny, untraced and traced, on every workload in
BENCHMARK.json, and asserts that the last line has the result shape, that
every end-to-end or per-layer metric prints with the unit BENCHMARK.json
gives it, that no answer failed its check, and that each layer makes calls
on the workload bench/layers.json names for it.  Exits 1 on the first
problem.  Timings are not judged.
"""

import json
import subprocess
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent


def result(workload, trace):
    out = subprocess.run(
        [sys.executable, str(BENCH / "run.py"), "--workload", workload, "--seed", "7",
         "--seconds", "0.2", "--trace", str(trace), "--size", "tiny"],
        cwd=ROOT, capture_output=True, text=True, timeout=600)
    if out.returncode != 0:
        sys.exit("smoke: %s trace=%d exited %d\n%s" % (workload, trace, out.returncode, out.stderr))
    return json.loads(out.stdout.strip().splitlines()[-1])


def need(ok, *what):
    if not ok:
        sys.exit("smoke: failed: %r" % (what,))


def main():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    layers = json.loads((BENCH / "layers.json").read_text())["layers"]
    wanted = {0: spec["end_to_end"], 1: spec["per_layer"]}
    for w in spec["workloads"]:
        for trace in (0, 1):
            got = result(w["name"], trace)
            need(set(got) == {"correct", "attempted", "failed", "metrics"}, sorted(got))
            need(got["correct"] and got["failed"] == 0 and got["attempted"] >= 1, w["name"], trace, got)
            units = {m["name"]: m["unit"] for m in wanted[trace]}
            printed = {name: m["unit"] for name, m in got["metrics"].items()}
            need(printed == units, w["name"], trace, set(printed.items()) ^ set(units.items()))
            if trace:
                for name, layer in layers.items():
                    calls = [m for m in layer["metrics"] if m.endswith(".calls")]
                    if layer["workload"] == w["name"] and calls:
                        need(any(got["metrics"][m]["value"] > 0 for m in calls), name, w["name"])
            print("smoke: %-9s trace=%d ok (%d answers checked)" % (w["name"], trace, got["attempted"]))
    return 0


if __name__ == "__main__":
    sys.exit(main())
