"""Command-line front end.

Every command prints one JSON record per result line with the fixed key order
{command, inputs, outcome, cost}; --human renders the same record readably.
Each handler yields one (inputs, outcome, cost) triple per record, and `main`
alone builds, prints and picks the exit code: 2 when some outcome's kind is
out-of-fuel or indeterminate (the command gave up before settling), else 0.
Budget outcomes (overflow, unknown, budget-exceeded, exhausted) are answers
and exit 0.  1 covers unusable invocations.  The default budget comes from
CLOCKWORK_BUDGET when that is set.
"""

import argparse
import json
import os
import re
import sys
from dataclasses import asdict

from .clocks import (BOUND_BITS, BudgetExceeded, ClockedMachine, clock_bound, clocked_run,
                     format_clock, parse_clock)
from .codec import ClockedTable, decode_index, encode_table
from .families import build_Q, clock_stride_analysis, differences, peak_probe, stride_analysis
from .hierarchy import Value, dominates_on_window, fgh_eval, parse_fn_descriptor, parse_level
from .machines import Halted, format_tm_text, parse_tm_text, run
from .ordinals import fundamental_sequence, ord_format, ord_parse
from .registry import FRegistry
from .sat import (DEFAULT_FUEL, Found, MalformedCnf, decode_cnf, encode_cnf,
                  encoded_length, f_neg_A, f_prime, parse_dimacs, solve_E, verify, verify_cost)
from .words import binary_word, decimal, index_word, pair, word_index

DEFAULT_BUDGET = 10 ** 4
# Most assignments times literals a sat-solve scans: the worst case inside,
# an unsatisfiable pair of unit clauses on variable 16, took 54-75 ms on a
# 2-core Xeon (2^18 took 87-160 ms).
SOLVE_WORK_BOUND = 1 << 17


def _natural(text: str) -> int:
    """argparse type for indices, positions, counts, budgets and fuel: a
    decimal integer >= 0."""
    try:
        value = decimal(text, signed=True)
    except ValueError:
        raise argparse.ArgumentTypeError("not an integer: %r" % text)
    if value < 0:
        raise argparse.ArgumentTypeError("must be >= 0, got %d" % value)
    return value


def _budget(args) -> int:
    """--budget when given, else CLOCKWORK_BUDGET, else DEFAULT_BUDGET."""
    if args.budget is not None:
        return args.budget
    text = os.environ.get("CLOCKWORK_BUDGET")
    if text is None:
        return DEFAULT_BUDGET
    try:
        return _natural(text)
    except argparse.ArgumentTypeError as err:
        raise ValueError("CLOCKWORK_BUDGET %s" % err)


def _load_table(path: str):
    with open(path) as f:
        return parse_tm_text(f.read())


def _registry(args):
    return None if args.no_registry else FRegistry(args.registry)


def _outcome(result) -> dict:
    """A result dataclass as an outcome: its class name in kebab case as the
    kind (FailsAt -> fails-at), then its fields."""
    return {"kind": re.sub("(?<=.)([A-Z])", r"-\1", type(result).__name__).lower(),
            **asdict(result)}


# --- handlers: each yields (inputs, outcome, cost) per record -----------------

def _cmd_tm_run(args):
    table = _load_table(args.file)
    got = run(table, args.word, args.fuel)  # ValueError on a word not over {0,1}
    if isinstance(got, Halted):
        outcome = {"kind": "halted", "output": got.output,
                   "position": word_index(got.output)}
    else:
        outcome = {"kind": "out-of-fuel"}
    inputs = {"file": args.file, "word": args.word, "fuel": args.fuel}
    yield inputs, outcome, {"steps": got.steps}


def _cmd_tm_encode(args):
    table = _load_table(args.file)
    yield {"file": args.file}, {"index": encode_table(table)}, {"rules": len(table.rules)}


def _cmd_tm_decode(args):
    decoded = decode_index(args.index)
    if isinstance(decoded, ClockedTable):
        outcome = {"kind": "clocked-pair", "clock": format_clock(decoded.clock)}
        decoded = decoded.machine
    else:
        outcome = {"kind": "table"}
    outcome.update(rules=len(decoded.rules), text=format_tm_text(decoded))
    yield {"index": args.index}, outcome, {}


def _cmd_clock_run(args):
    table = _load_table(args.file)
    word = binary_word(args.word)
    inputs = {"file": args.file, "word": word, "clock": args.clock}
    try:
        clock = parse_clock(args.clock)
        got = clocked_run(ClockedMachine(table, clock), word)
    except BudgetExceeded:  # the clock or its bound on this word is past desk reach
        yield inputs, {"kind": "budget-exceeded"}, {}
        return
    outcome = {"kind": "ran", "output": got.output,
               "position": word_index(got.output), "cut": got.cut,
               "bound": clock_bound(clock, len(word))}
    yield inputs, outcome, {"steps": got.steps}


def _dimacs_x(path: str) -> int:
    """Formula position of a DIMACS file.  A formula word longer than
    BOUND_BITS bits is a ValueError: its position would not print as a
    decimal record at desk speed."""
    with open(path) as f:
        formula = parse_dimacs(f.read())
    bits = encoded_length(formula)
    if bits > BOUND_BITS:
        raise ValueError("formula word has %d bits, past %d" % (bits, BOUND_BITS))
    return word_index(encode_cnf(formula))


def _sat_verify_z(args) -> int:
    if args.assign is not None and not args.dimacs:
        raise ValueError("--assign gives the assignment for --dimacs only")
    forms = (args.z is not None, args.x is not None or args.y is not None, bool(args.dimacs))
    if sum(forms) > 1:
        raise ValueError("give either Z or --x/--y or --dimacs")
    if args.z is not None:
        return args.z
    if args.dimacs:
        return pair(_dimacs_x(args.dimacs), word_index(args.assign or ""))
    if args.x is None or args.y is None:
        raise ValueError("need Z, or both --x and --y, or --dimacs")
    return pair(args.x, args.y)


def _cmd_sat_verify(args):
    z = _sat_verify_z(args)
    bit, ops = verify_cost(z)
    yield {"z": z}, {"value": bit}, {"ops": ops}


def _cmd_sat_solve(args):
    if args.dimacs and args.x is not None:
        raise ValueError("give either X or --dimacs")
    if not args.dimacs and args.x is None:
        raise ValueError("need X or --dimacs")
    x = _dimacs_x(args.dimacs) if args.dimacs else args.x
    try:
        f = decode_cnf(index_word(x))
        work = (1 << f.num_vars) * sum(map(len, f.clauses))
    except MalformedCnf:
        work = 0  # solve_E answers 0 at once
    if work > SOLVE_WORK_BOUND:
        yield {"x": x}, {"kind": "budget-exceeded"}, {}
        return
    y = solve_E(x)
    outcome = {"y": y, "assignment": index_word(y),
               "witnessed": verify(pair(x, y)) == 1}
    yield {"x": x}, outcome, {}


def _cmd_fna_search(args):
    budget = _budget(args)
    inputs = {"machine": args.machine, "budget": budget, "fuel": args.fuel,
              "guarded": args.guarded}
    if args.guarded:
        got = f_prime(args.machine, budget, args.fuel, _registry(args))
    else:
        got = f_neg_A(args.machine, budget, args.fuel)
    yield inputs, _outcome(got), {}


def _cmd_ord_eval(args):
    alpha = parse_level(args.alpha)
    budget = _budget(args)
    got = fgh_eval(alpha, args.x, budget)
    inputs = {"alpha": args.alpha, "x": args.x, "budget": budget}
    if isinstance(got, Value):
        yield inputs, {"kind": "value", "value": got.value}, {"calls": got.cost}
    else:
        yield inputs, _outcome(got), {}


def _cmd_ord_fs(args):
    term = fundamental_sequence(ord_parse(args.alpha), args.x)
    yield {"alpha": args.alpha, "x": args.x}, {"ordinal": ord_format(term)}, {}


def _cmd_dominate(args):
    budget = _budget(args)
    f_desc = parse_fn_descriptor(args.f)
    g_desc = parse_fn_descriptor(args.g)
    got = dominates_on_window(f_desc, g_desc, (args.lo, args.hi), budget)
    inputs = {"f": args.f, "g": args.g, "lo": args.lo, "hi": args.hi,
              "budget": budget}
    yield inputs, _outcome(got), {}


def _cmd_qfam_build(args):
    alpha = parse_level(args.alpha)
    inputs = {"alpha": args.alpha, "n": args.n, "width": args.width}
    try:
        table, godel, spec = build_Q(alpha, args.n, args.width,
                                     registry=_registry(args))
    except BudgetExceeded as stop:
        yield inputs, {"kind": "overflow", "reason": str(stop)}, {}
        return
    outcome = {"kind": "built", "index": godel, "threshold": spec.threshold,
               "rules": len(table.rules)}
    yield inputs, outcome, {"worst_steps": table.worst_steps}


def _cmd_qfam_stride(args):
    alpha = parse_level(args.alpha)
    ns = range(args.n0, args.n0 + args.count)
    inputs = {"alpha": args.alpha, "n0": args.n0, "count": args.count,
              "width": args.width}
    try:
        machines = stride_analysis(alpha, ns, args.width, registry=_registry(args))
        clocks = clock_stride_analysis(alpha, ns, args.width)
    except BudgetExceeded as stop:
        yield inputs, {"kind": "overflow", "reason": str(stop)}, {}
        return
    for role, report in (("machine", machines), ("clock", clocks)):
        yield inputs, {"kind": "stride", "role": role,
                       "indices": list(report.indices), "base": report.base,
                       "stride": report.stride}, {}
    pairs = [pair(m, c) for m, c in zip(machines.indices, clocks.indices)]
    second = differences(differences(pairs))
    third = differences(second)
    yield inputs, {"kind": "quadratic", "role": "pair", "indices": pairs,
                   "second_diffs": list(second),
                   "second_diffs_constant": len(set(second)) <= 1,
                   "third_diffs_zero": all(d == 0 for d in third)}, {}


def _cmd_qfam_peaks(args):
    alpha = parse_level(args.alpha)
    budget = _budget(args)
    registry = _registry(args)
    for n in range(args.n0, args.n0 + args.count):
        inputs = {"alpha": args.alpha, "n": n, "width": args.width, "budget": budget}
        try:
            got = peak_probe(alpha, n, args.width, budget, registry)
        except BudgetExceeded as stop:
            # thresholds do not fall as n grows: later members are out of reach too
            yield inputs, {"kind": "overflow", "reason": str(stop)}, {}
            return
        outcome = {"kind": "peak", "sigma_index": got.sigma_index,
                   "threshold": got.threshold}
        if isinstance(got.outcome, Found):
            outcome.update(result="found", witness=got.outcome.witness,
                           first_coord=got.first_coord)
        else:
            outcome.update(result="exhausted", budget=got.outcome.budget)
        yield inputs, outcome, {}


# --- parser ------------------------------------------------------------------

def _flag(*names, **kwargs) -> argparse.ArgumentParser:
    """A parent parser that declares one flag."""
    parent = argparse.ArgumentParser(add_help=False)
    parent.add_argument(*names, **kwargs)
    return parent


def _build_parser() -> argparse.ArgumentParser:
    # A command's parents come before its own arguments in --help and usage
    # lines, so a flag listed ahead of a shared one is passed as a parent too.
    human = _flag("--human", action="store_true",
                  help="render records readably instead of JSON")
    registry = _flag("--registry", default="fregistry.txt",
                     help="path of the persistent machine registry")
    registry.add_argument("--no-registry", action="store_true",
                          help="skip registry persistence")
    budget = _flag("--budget", type=_natural)
    fuel = _flag("--fuel", type=_natural, default=DEFAULT_FUEL)
    width = _flag("--width", type=_natural, default=16)

    top = argparse.ArgumentParser(prog="tmlab",
                                  description="computability workbench")
    sub = top.add_subparsers(dest="cmd", required=True)

    def command(name, handler, help, *parents):
        p = sub.add_parser(name, help=help, parents=[human, *parents])
        p.set_defaults(handler=handler)
        return p

    p = command("tm-run", _cmd_tm_run, "run a machine on a word", fuel)
    p.add_argument("file")
    p.add_argument("word", nargs="?", default="")

    p = command("tm-encode", _cmd_tm_encode, "index of a machine table")
    p.add_argument("file")

    p = command("tm-decode", _cmd_tm_decode, "machine named by an index")
    p.add_argument("index", type=_natural)

    p = command("clock-run", _cmd_clock_run, "run a machine under a step clock")
    p.add_argument("file")
    p.add_argument("word", nargs="?", default="")
    p.add_argument("--clock", required=True, help="poly:P or fgh:ALPHA:K")

    p = command("sat-verify", _cmd_sat_verify,
                "check a paired formula/assignment position")
    p.add_argument("z", nargs="?", type=_natural)
    p.add_argument("--x", type=_natural)
    p.add_argument("--y", type=_natural)
    p.add_argument("--dimacs")
    p.add_argument("--assign", help="assignment bits for --dimacs")

    p = command("sat-solve", _cmd_sat_solve, "first satisfying assignment position")
    p.add_argument("x", nargs="?", type=_natural)
    p.add_argument("--dimacs")

    p = command("fna-search", _cmd_fna_search,
                "search for a counterexample to a machine", registry, budget, fuel)
    p.add_argument("machine", type=_natural)
    p.add_argument("--guarded", action="store_true",
                   help="only search recognized solver indices")

    p = command("ord-eval", _cmd_ord_eval, "evaluate the fast-growing hierarchy",
                budget)
    p.add_argument("alpha", help="ordinal text, or eps0 for the diagonal")
    p.add_argument("x", type=_natural)

    p = command("ord-fs", _cmd_ord_fs, "fundamental sequence member of a limit ordinal")
    p.add_argument("alpha")
    p.add_argument("x", type=_natural)

    window = _flag("--lo", type=_natural, required=True)
    window.add_argument("--hi", type=_natural, required=True)
    p = command("dominate", _cmd_dominate,
                "pointwise comparison certificate on a window", window, budget)
    p.add_argument("f", help="fgh:ORD[@poly:...], eps0[@poly:...], table:v0,...")
    p.add_argument("g")

    p = command("qfam-build", _cmd_qfam_build,
                "build one threshold-solver family member", registry, width)
    p.add_argument("alpha")
    p.add_argument("n", type=_natural)

    p = command("qfam-stride", _cmd_qfam_stride, "index progressions of a family",
                registry, _flag("--count", type=_natural, default=4), width)
    p.add_argument("alpha")
    p.add_argument("n0", type=_natural)

    p = command("qfam-peaks", _cmd_qfam_peaks, "counterexample peaks along a family",
                registry, _flag("--count", type=_natural, default=3), width, budget)
    p.add_argument("alpha")
    p.add_argument("n0", type=_natural)

    return top


GAVE_UP = ("out-of-fuel", "indeterminate")  # the outcome kinds that exit 2


def main(argv=None) -> int:
    if hasattr(sys, "set_int_max_str_digits"):
        sys.set_int_max_str_digits(0)  # exact integers print and parse at any size
    try:
        args = _build_parser().parse_args(argv)
    except SystemExit as stop:
        return 0 if stop.code == 0 else 1
    code = 0
    try:
        for inputs, outcome, cost in args.handler(args):
            record = {"command": args.cmd, "inputs": inputs, "outcome": outcome,
                      "cost": cost}
            if args.human:
                parts = ["%s=%s" % item for item in (*outcome.items(), *cost.items())]
                print("%s: %s" % (args.cmd, " ".join(parts)))
            else:
                print(json.dumps(record))
            if outcome.get("kind") in GAVE_UP:
                code = 2
    except (ValueError, OSError) as err:  # every package error is a ValueError
        print("error: %s" % err, file=sys.stderr)
        return 1
    return code


if __name__ == "__main__":
    sys.exit(main())
