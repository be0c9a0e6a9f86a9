"""tmlab benchmark: one seeded, closed-loop run of one workload.

    python3 bench/run.py --workload decode --seed 1 --seconds 20 --trace 0

Run from the repository root.  One caller in one process makes one call at a
time, with no threads.  The run builds nothing: it imports tmlab from
src/ and fails with exit code 2 when that is missing.

Set-up (import, input generation, warm-up) is repeated and its median is
`setup_s`.  The timed loop then runs whole rounds of operations until their
summed latency reaches --seconds (and at least MIN_ROUNDS rounds).  Every
answer is checked after its round, outside the timed intervals.

--trace 0 prints the end-to-end metrics.  --trace 1 runs each round twice,
untraced and traced, alternating which goes first, and prints the per-layer
metrics from the traced rounds, the tracing overhead, the fresh-process
import time of tmlab.cli and the baseline rows of anchors.py.

The last line of standard output is one JSON object:
{"correct", "attempted", "failed", "metrics": {name: {"value", "unit"}}}.
"""

import argparse
import gc
import hashlib
import importlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
import types
from pathlib import Path

from anchors import anchors
from spans import Tracer
from workloads import WORKLOADS, norm

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = BENCH / "out"

SETUP_REPS = 5
MIN_ROUNDS = 4  # also the rounds the answer digest covers
MIN_PAIRS = 2  # untraced/traced pairs in a traced run
POOL = 12  # distinct rounds generated; longer runs cycle through them
MODULES = ("words", "machines", "ordinals", "hierarchy", "clocks", "codec", "sat", "families", "registry")

UNITS = {
    "ops_per_s": "1/s", "op_p50_ms": "ms", "op_tail_ms": "ms", "setup_s": "s", "peak_rss_mb": "MB",
    "machines.run.steps": "count", "machines.steps_per_s": "1/s", "sat.verify.us_per_call": "us",
    "sat.search.z_scanned": "count", "hierarchy.eval.cost": "count", "hierarchy.value_bits": "bits",
    "families.build.entries": "count", "registry.file_bytes": "bytes", "cli.import_s": "s",
    "trace.overhead_frac": "ratio", "anchor.run_steps_per_s": "1/s",
}


def unit(name):
    if name in UNITS:
        return UNITS[name]
    if name.endswith(".calls"):
        return "count"
    if name.endswith("_s"):
        return "s"
    return "ratio"  # the _frac and _share metrics


def load_tmlab():
    """Import tmlab from src/, afresh: earlier imports are dropped first."""
    for name in [m for m in sys.modules if m == "tmlab" or m.startswith("tmlab.")]:
        del sys.modules[name]
    importlib.invalidate_caches()
    importlib.import_module("tmlab")
    return {m: importlib.import_module("tmlab." + m) for m in MODULES}


def entry_points(mods):
    """The tmlab names the workloads call and construct, in one namespace."""
    m = types.SimpleNamespace(**mods)
    return types.SimpleNamespace(
        decode_index=m.codec.decode_index, encode_table=m.codec.encode_table,
        ClockedTable=m.codec.ClockedTable,
        fgh_eval=m.hierarchy.fgh_eval, fgh_at_least=m.hierarchy.fgh_at_least,
        dominates_on_window=m.hierarchy.dominates_on_window,
        parse_fn_descriptor=m.hierarchy.parse_fn_descriptor, UNKNOWN=m.hierarchy.UNKNOWN,
        ord_parse=m.ordinals.ord_parse, fundamental_sequence=m.ordinals.fundamental_sequence,
        build_Q=m.families.build_Q, build_q_table=m.families.build_q_table,
        peak_probe=m.families.peak_probe,
        f_neg_A=m.sat.f_neg_A, f_prime=m.sat.f_prime, solve_E=m.sat.solve_E, verify=m.sat.verify,
        run=m.machines.run, MachineTable=m.machines.MachineTable, Rule=m.machines.Rule,
        clocked_run=m.clocks.clocked_run, compose=m.clocks.compose,
        ClockedMachine=m.clocks.ClockedMachine, PlainPoly=m.clocks.PlainPoly,
        FRegistry=m.registry.FRegistry, registry_clear=m.registry.clear,
    )


def environment():
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo") as f:
            cpu = next((line.split(":", 1)[1].strip() for line in f if line.startswith("model name")), cpu)
    except OSError:
        pass
    return {"python": platform.python_version(), "nproc": os.cpu_count(), "cpu": cpu, "commit": commit()}


def commit():
    """HEAD of the checkout when it is a git work tree, else "unknown"."""
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if ref.startswith("ref: "):
            return (ROOT / ".git" / ref[5:]).read_text().strip()
        return ref
    except OSError:
        return "unknown"


class Runner:
    def __init__(self, workload_cls, size, seed, scratch):
        self.cls, self.size, self.seed, self.scratch = workload_cls, size, seed, scratch
        self.attempted = self.failed = 0
        self.reasons = []
        self.digest = hashlib.sha256()

    def setup(self):
        """Import, input generation and warm-up; returns its duration."""
        start = time.perf_counter()
        self.mods = load_tmlab()
        self.T = entry_points(self.mods)
        self.wl = self.cls(self.T, self.size, self.scratch)
        self.pool = self.wl.rounds(self.seed, POOL)
        self.wl.start_run()
        self.execute(self.wl.warmup(self.seed))
        return time.perf_counter() - start

    def execute(self, ops):
        """Latencies and answers of one round; only the calls are timed."""
        execute, perf = self.wl.execute, time.perf_counter
        latencies, answers = [], []
        for op in ops:
            start = perf()
            try:
                answer = execute(op)
            except Exception as exc:  # an exception is an answer; the check judges it
                answer = exc
            latencies.append(perf() - start)
            answers.append(answer)
        return latencies, answers

    def check(self, ops, answers, digest):
        for op, answer in zip(ops, answers):
            self.attempted += 1
            try:
                reason = self.wl.check(op, answer)
            except Exception as exc:
                reason = "check raised %s: %s" % (type(exc).__name__, exc)
            if reason:
                self.failed += 1
                if len(self.reasons) < 5:
                    self.reasons.append("%s: %s" % (op[0], reason))
            if digest:
                self.digest.update(repr((op[0], norm(answer))).encode())

    def round(self, r):
        """Runs round r and returns (ops, latencies, answers), unchecked."""
        ops = self.pool[r % POOL]
        gc.collect()
        return (ops,) + self.execute(ops)


def end_to_end(runner, seconds):
    """Whole rounds until their summed latency reaches `seconds`.  Rounds have
    the same make-up, so ops_per_s is the median of the rounds' throughputs.
    Answers are checked after the loop, once the peak resident set has been
    read, so the reference models' memory does not count as the program's."""
    done, latencies, throughput = [], [], []
    while len(done) < MIN_ROUNDS or sum(latencies) < seconds:
        ops, took, answers = runner.round(len(done))
        done.append((ops, answers))
        latencies += took
        throughput.append(len(took) / sum(took))
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    for r, (ops, answers) in enumerate(done):
        runner.check(ops, answers, r < MIN_ROUNDS)
    n = len(latencies)
    ordered = sorted(latencies)
    tail_rank = max(0, n - 11)  # the highest sample with ten beyond it
    info = {"rounds": len(done), "ops": n, "tail_percentile": round(100.0 * (tail_rank + 1) / n, 3),
            "tail_samples_beyond": n - 1 - tail_rank,
            "round_ops_per_s": [round(t, 3) for t in throughput]}
    metrics = {
        "ops_per_s": statistics.median(throughput),
        "op_p50_ms": statistics.median(latencies) * 1e3,
        "op_tail_ms": ordered[tail_rank] * 1e3,
        "peak_rss_mb": peak_rss_mb,
    }
    return metrics, info


def traced(runner, seconds, size, seed):
    tracer = Tracer()
    plain = with_trace = 0.0
    pairs = 0
    while pairs < MIN_PAIRS or plain + with_trace < seconds:
        for on in (False, True) if pairs % 2 == 0 else (True, False):
            if on:
                tracer.install(runner.mods, runner.T)
            try:
                ops, took, answers = runner.round(pairs)
            finally:
                tracer.uninstall()
            runner.check(ops, answers, pairs < MIN_ROUNDS)
            took = sum(took)
            if on:
                with_trace += took
            else:
                plain += took
        pairs += 1
    metrics = tracer.layer_metrics()
    metrics.update(runner.wl.end_run())
    metrics["trace.overhead_frac"] = with_trace / plain - 1
    metrics["cli.import_s"] = cli_import_s()
    metrics.update(anchors(runner.T, size))
    tracer.write(OUT / ("spans-%s-%d.jsonl" % (runner.wl.name, seed)))
    return metrics, {"pairs": pairs, "spans": len(tracer.spans) + tracer.dropped}


def cli_import_s(reps=5):
    """Median wall time of `import tmlab.cli` in a fresh interpreter."""
    code = "import time; t = time.perf_counter(); import tmlab.cli; print(time.perf_counter() - t)"
    env = dict(os.environ, PYTHONPATH=str(SRC))
    times = []
    for _ in range(reps):
        out = subprocess.run([sys.executable, "-c", code], env=env, cwd=ROOT, capture_output=True,
                             text=True, timeout=60, check=True)
        times.append(float(out.stdout))
    return statistics.median(times)


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=("full", "tiny"), default="full",
                        help="tiny is the smoke run's input size")
    args = parser.parse_args(argv)
    if not (SRC / "tmlab" / "__init__.py").is_file():
        print("bench: no tmlab sources under %s" % SRC, file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    if args.workload not in WORKLOADS:
        print("bench: unknown workload %r (have %s)" % (args.workload, ", ".join(WORKLOADS)), file=sys.stderr)
        return 2

    OUT.mkdir(exist_ok=True)
    scratch = Path(tempfile.mkdtemp(prefix="run-", dir=OUT))
    try:
        runner = Runner(WORKLOADS[args.workload], args.size, args.seed, scratch)
        setups = [runner.setup() for _ in range(1 if args.trace else SETUP_REPS)]
        runner.wl.start_run()
        if args.trace:
            metrics, info = traced(runner, args.seconds, args.size, args.seed)
        else:
            metrics, info = end_to_end(runner, args.seconds)
            metrics["setup_s"] = statistics.median(setups)
    finally:
        shutil.rmtree(scratch, ignore_errors=True)

    failed_frac = runner.failed / runner.attempted
    info.update(workload=args.workload, seed=args.seed, size=args.size, trace=args.trace,
                failed_frac=failed_frac, digest=runner.digest.hexdigest()[:16], **environment())
    print("bench " + json.dumps(info))
    for reason in runner.reasons:
        print("bench failure: " + reason)
    print("%-36s %16.6g %s" % ("failed_frac", failed_frac, "ratio"))
    for name, value in metrics.items():
        print("%-36s %16.6g %s" % (name, value, unit(name)))
    print(json.dumps({
        "correct": runner.failed == 0,
        "attempted": runner.attempted,
        "failed": runner.failed,
        "metrics": {name: {"value": value, "unit": unit(name)} for name, value in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
