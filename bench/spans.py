"""Spans around the calls between tmlab's modules, and the per-layer metrics
derived from them.

Installing the tracer replaces, for the length of a traced round:

- every function a tmlab module imported from another tmlab module, in the
  importing module's namespace;
- a list of public, non-recursive functions in their own module, so that
  deferred imports and the benchmark's own calls are seen too;
- the benchmark's entry points (the `T` namespace the workloads call).

A recursive function is wrapped only where another module calls it, so its
recursion stays inside one span.  Spans live in memory and are written out
when the run ends; a span's self time is its duration minus the time its
child spans cover.  Per-call facts (steps run, evaluator cost, fallbacks)
are read from the returned values.
"""

import json
import time
import types
from collections import defaultdict

MODULES = ("words", "machines", "ordinals", "hierarchy", "clocks", "codec", "sat", "families", "registry")

# Public functions also wrapped in the module that defines them.  None of
# them calls itself, directly or through another wrapped function.
OWN_MODULE = {
    "words": ("index_word", "word_index", "pair", "unpair", "proj1", "proj2"),
    "machines": ("run",),
    "ordinals": ("ord_parse",),
    "hierarchy": ("fgh_eval", "fgh_at_least", "dominates_on_window", "parse_fn_descriptor"),
    "clocks": ("compose",),
    "codec": ("decode_index", "encode_table", "is_sigma_image", "sigma_embed", "family_index", "clock_index"),
    "sat": ("verify", "solve_E", "f_neg_A", "f_prime"),
    "families": ("build_Q", "build_q_table", "peak_probe"),
    "registry": ("register", "registered"),
}

SPAN_CAP = 100_000  # spans kept for the span file; counts cover all of them


class Tracer:
    def __init__(self):
        self.stack = []  # open spans: [child_seconds, span_id, flags]
        self.stats = defaultdict(lambda: [0, 0.0, 0.0])  # name -> [calls, seconds, self seconds]
        self.count = defaultdict(float)
        self.spans = []
        self.dropped = 0
        self.next_id = 0
        self.patches = []  # (owner, attribute, original)
        self.wrappers = {}

    # --- installing ----------------------------------------------------------

    def wrap(self, fn, name=None, observe=None):
        if fn in self.wrappers:
            return self.wrappers[fn]
        name = name or "%s.%s" % (fn.__module__.rpartition(".")[2], fn.__name__)
        observe = observe or OBSERVERS.get(name)
        stack, perf = self.stack, time.perf_counter

        def traced(*args, **kwargs):
            span_id = self.next_id
            self.next_id += 1
            frame = [0.0, span_id, False]
            stack.append(frame)
            result = exc = None
            start = perf()
            try:
                result = fn(*args, **kwargs)
                return result
            except BaseException as e:
                exc = e
                raise
            finally:
                end = perf()
                stack.pop()
                self.close(name, frame, start, end, result, exc, observe)

        traced.__wrapped__ = fn
        self.wrappers[fn] = traced
        return traced

    def close(self, name, frame, start, end, result, exc, observe):
        took = end - start
        st = self.stats[name]
        st[0] += 1
        st[1] += took
        st[2] += took - frame[0]
        parent = self.stack[-1] if self.stack else None
        if parent is not None:
            parent[0] += took
        if len(self.spans) < SPAN_CAP:
            self.spans.append((frame[1], parent[1] if parent else -1, name, start, end))
        else:
            self.dropped += 1
        if observe is not None:
            observe(self.count, result, exc, took, frame, parent)

    def patch(self, owner, attr, value):
        self.patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def install(self, mods, T):
        package = {mods[m].__name__ for m in MODULES}
        for m in MODULES:
            module = mods[m]
            for attr, value in list(vars(module).items()):
                if not isinstance(value, types.FunctionType) or attr.startswith("_"):
                    continue
                foreign = value.__module__ in package and value.__module__ != module.__name__
                if foreign or attr in OWN_MODULE[m]:
                    self.patch(module, attr, self.wrap(value))
        params = mods["clocks"].Parametrized
        self.patch(params, "__post_init__", self.wrap(params.__post_init__, "clocks.materialize"))
        for attr, value in list(vars(T).items()):
            if isinstance(value, types.FunctionType):
                self.patch(T, attr, self.wrap(value))

    def uninstall(self):
        for owner, attr, original in reversed(self.patches):
            setattr(owner, attr, original)
        self.patches.clear()

    # --- reporting -----------------------------------------------------------

    def write(self, path):
        with open(path, "w") as f:
            f.write(json.dumps({"spans": len(self.spans) + self.dropped, "kept": len(self.spans),
                                "fields": ["id", "parent", "name", "start", "end"]}) + "\n")
            for span in self.spans:
                f.write(json.dumps(span) + "\n")

    def layer_metrics(self):
        s, c = self.stats, self.count

        def calls(*names):
            return sum(s[n][0] for n in names if n in s)

        def self_s(*names):
            return sum(s[n][2] for n in names if n in s)

        def prefixed(prefix):
            return [n for n in s if n.startswith(prefix)]

        def frac(a, b):
            return a / b if b else 0.0

        words, ordinals = prefixed("words."), prefixed("ordinals.")
        encode = ("codec.encode_table", "codec.family_index", "codec.clock_index", "codec.sigma_embed")
        run_s = self_s("machines.run")
        verify_calls, verify_s = calls("sat.verify"), self_s("sat.verify")
        decode_s = self_s("codec.decode_index")
        return {
            "words.calls": calls(*words),
            "words.self_s": self_s(*words),
            "machines.run.calls": calls("machines.run"),
            "machines.run.steps": c["run.steps"],
            "machines.run.self_s": run_s,
            "machines.steps_per_s": frac(c["run.steps"], run_s),
            "machines.run.out_of_fuel_frac": frac(c["run.out_of_fuel"], calls("machines.run")),
            "clocks.clocked_run.calls": calls("clocks.clocked_run"),
            "clocks.clocked_run.self_s": self_s("clocks.clocked_run"),
            "clocks.cut_frac": frac(c["clocked.cut"], calls("clocks.clocked_run")),
            "clocks.materialize.calls": calls("clocks.materialize"),
            "clocks.materialize.self_s": self_s("clocks.materialize"),
            "clocks.budget_exceeded_frac": frac(c["materialize.exceeded"], calls("clocks.materialize")),
            "sat.verify.calls": verify_calls,
            "sat.verify.self_s": verify_s,
            "sat.verify.us_per_call": frac(verify_s * 1e6, verify_calls),
            "sat.solve_E.calls": calls("sat.solve_E"),
            "sat.solve_E.self_s": self_s("sat.solve_E"),
            "sat.search.calls": calls("sat.f_neg_A"),
            "sat.search.z_scanned": c["search.z"],
            "sat.search.found_frac": frac(c["search.found"], calls("sat.f_neg_A")),
            "sat.f_prime.default_frac": frac(c["f_prime.default"], calls("sat.f_prime")),
            "codec.decode.calls": calls("codec.decode_index"),
            "codec.decode.self_s": decode_s,
            "codec.decode.fallback_frac": frac(c["decode.fallback"], calls("codec.decode_index")),
            "codec.decode.fallback_time_share": frac(c["decode.fallback_s"], s["codec.decode_index"][1]
                                                     if "codec.decode_index" in s else 0),
            "codec.encode.calls": calls(*encode),
            "codec.encode.self_s": self_s(*encode),
            "hierarchy.eval.calls": calls("hierarchy.fgh_eval"),
            "hierarchy.eval.cost": c["eval.cost"],
            "hierarchy.eval.self_s": self_s("hierarchy.fgh_eval"),
            "hierarchy.eval.overflow_frac": frac(c["eval.overflow"], calls("hierarchy.fgh_eval")),
            "hierarchy.value_bits": frac(c["eval.bits"], c["eval.values"]),
            "hierarchy.at_least.calls": calls("hierarchy.fgh_at_least"),
            "hierarchy.at_least.self_s": self_s("hierarchy.fgh_at_least"),
            "hierarchy.at_least.unknown_frac": frac(c["at_least.unknown"], calls("hierarchy.fgh_at_least")),
            "ordinals.calls": calls(*ordinals),
            "ordinals.self_s": self_s(*ordinals),
            "families.build.calls": calls("families.build_q_table"),
            "families.build.self_s": self_s("families.build_q_table"),
            "families.build.entries": c["build.entries"],
            "families.build.overflow_frac": frac(c["build.overflow"], calls("families.build_q_table")),
            "families.peak_probe.calls": calls("families.peak_probe"),
            "families.peak_probe.self_s": self_s("families.peak_probe"),
            "registry.add.calls": calls("registry.register"),
            "registry.add.self_s": self_s("registry.register"),
            "registry.lookup.calls": calls("registry.registered"),
            "registry.lookup.self_s": self_s("registry.registered"),
        }


# --- observers: facts read from what a call returned ------------------------

def _kind(value):
    return type(value).__name__


def _run(count, result, exc, took, frame, parent):
    if result is not None:
        count["run.steps"] += result.steps
        count["run.out_of_fuel"] += _kind(result) == "OutOfFuel"


def _clocked(count, result, exc, took, frame, parent):
    if result is not None:
        count["clocked.cut"] += result.cut


def _materialize(count, result, exc, took, frame, parent):
    count["materialize.exceeded"] += _kind(exc) == "BudgetExceeded"


def _eval(count, result, exc, took, frame, parent):
    if _kind(result) == "Value":
        count["eval.cost"] += result.cost
        count["eval.bits"] += result.value.bit_length()
        count["eval.values"] += 1
    elif _kind(result) == "Overflow":
        count["eval.overflow"] += 1


def _at_least(count, result, exc, took, frame, parent):
    count["at_least.unknown"] += _kind(result) == "_Unknown"


def _decode(count, result, exc, took, frame, parent):
    if _kind(result) == "MachineTable" and result.rules == ():
        count["decode.fallback"] += 1
        count["decode.fallback_s"] += took


def _search(count, result, exc, took, frame, parent):
    if parent is not None:
        parent[2] = True  # tells an enclosing f_prime that it searched
    if _kind(result) == "Found":
        count["search.found"] += 1
        count["search.z"] += result.witness + 1
    elif _kind(result) == "Exhausted":
        count["search.z"] += result.budget


def _f_prime(count, result, exc, took, frame, parent):
    count["f_prime.default"] += not frame[2]


def _build(count, result, exc, took, frame, parent):
    if result is not None:
        count["build.entries"] += result.threshold + 1
    count["build.overflow"] += _kind(exc) in ("BuildOverflow", "BudgetExceeded")


OBSERVERS = {
    "machines.run": _run,
    "clocks.clocked_run": _clocked,
    "clocks.materialize": _materialize,
    "hierarchy.fgh_eval": _eval,
    "hierarchy.fgh_at_least": _at_least,
    "codec.decode_index": _decode,
    "sat.f_neg_A": _search,
    "sat.f_prime": _f_prime,
    "families.build_q_table": _build,
}
