"""The benchmark's tiny-size smoke run still passes against the package.

bench/smoke.py runs every workload untraced and traced and checks every
answer, the metric names and units, and that each layer is called; the
tracer wraps package functions by name and reads fields of their results,
so a change under src/ can break it without breaking any other test.
Timings are not judged here.
"""

import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def test_bench_smoke_passes():
    got = subprocess.run([sys.executable, "bench/smoke.py"], cwd=ROOT,
                         capture_output=True, text=True, timeout=600)
    assert got.returncode == 0, got.stdout + got.stderr
