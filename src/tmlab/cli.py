"""Command-line front end.

Every command prints one JSON record per result line with the fixed key order
{command, inputs, outcome, cost}; --human renders the same record readably.
Exit code 0 covers every computed outcome (including exhausted searches and
overflow answers), 2 covers operational giving-up (out of fuel, undecided
search), 1 covers unusable invocations.  The default search budget comes from
CLOCKWORK_BUDGET when that is set.
"""

import argparse
import json
import os
import sys

from .clocks import (
    BudgetExceeded,
    ClockedMachine,
    Parametrized,
    clock_bound,
    clocked_run,
    format_clock,
    parse_clock,
)
from .codec import ClockedTable, InvalidPair, decode_index, encode_table
from .families import (
    BuildOverflow,
    build_Q,
    clock_stride_analysis,
    differences,
    p_index,
    peak_probe,
    stride_analysis,
)
from .hierarchy import (
    Overflow,
    Value,
    FailsAt,
    Holds,
    Unknown,
    dominates_on_window,
    fgh_eval,
    parse_fn_descriptor,
)
from .machines import Halted, InvalidTable, format_tm_text, parse_tm_text, run
from .ordinals import (
    NotLimit,
    ParseError,
    clock_index_ordinal,
    fundamental_sequence,
    ord_format,
    ord_parse,
)
from .registry import FRegistry
from .sat import (
    DEFAULT_FUEL,
    Exhausted,
    Found,
    IndeterminateSearch,
    MalformedCnf,
    encode_cnf,
    f_neg_A,
    f_prime,
    parse_dimacs,
    solve_E,
    verify_cost,
)
from .words import index_word, pair, word_index

DEFAULT_BUDGET = 10 ** 4


def _natural(text: str) -> int:
    """argparse type for indices, positions, counts, budgets and fuel: a
    decimal integer >= 0."""
    try:
        value = int(text)
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


def _emit(args, command: str, inputs: dict, outcome: dict, cost: dict) -> None:
    record = {"command": command, "inputs": inputs, "outcome": outcome, "cost": cost}
    if args.human:
        parts = ["%s=%s" % (k, v) for k, v in outcome.items()]
        parts += ["%s=%s" % (k, v) for k, v in cost.items()]
        print("%s: %s" % (command, " ".join(parts)))
    else:
        print(json.dumps(record))


def _check_word(s: str) -> str:
    if s.strip("01"):
        raise ValueError("input word must be over {0,1}: %r" % s)
    return s


def _load_table(path: str):
    with open(path) as f:
        return parse_tm_text(f.read())


def _alpha_arg(text: str):
    return "eps0" if text == "eps0" else ord_parse(text)


def _registry(args):
    return None if args.no_registry else FRegistry(args.registry)


# --- handlers ----------------------------------------------------------------

def _cmd_tm_run(args) -> int:
    table = _load_table(args.file)
    word = _check_word(args.word)
    got = run(table, word, args.fuel)
    inputs = {"file": args.file, "word": word, "fuel": args.fuel}
    if isinstance(got, Halted):
        outcome = {"kind": "halted", "output": got.output,
                   "position": word_index(got.output)}
        _emit(args, "tm-run", inputs, outcome, {"steps": got.steps})
        return 0
    _emit(args, "tm-run", inputs, {"kind": "out-of-fuel"}, {"steps": got.steps})
    return 2


def _cmd_tm_encode(args) -> int:
    table = _load_table(args.file)
    index = encode_table(table)
    _emit(args, "tm-encode", {"file": args.file}, {"index": index},
          {"rules": len(table.rules)})
    return 0


def _cmd_tm_decode(args) -> int:
    decoded = decode_index(args.index)
    inputs = {"index": args.index}
    if isinstance(decoded, ClockedTable):
        outcome = {"kind": "clocked-pair", "clock": format_clock(decoded.clock),
                   "rules": len(decoded.machine.rules),
                   "text": format_tm_text(decoded.machine)}
    else:
        outcome = {"kind": "table", "rules": len(decoded.rules),
                   "text": format_tm_text(decoded)}
    _emit(args, "tm-decode", inputs, outcome, {})
    return 0


def _cmd_clock_run(args) -> int:
    table = _load_table(args.file)
    word = _check_word(args.word)
    inputs = {"file": args.file, "word": word, "clock": args.clock}
    try:
        clock = parse_clock(args.clock)
    except BudgetExceeded:
        _emit(args, "clock-run", inputs, {"kind": "budget-exceeded"}, {})
        return 0
    got = clocked_run(ClockedMachine(table, clock), word)
    outcome = {"kind": "ran", "output": got.output,
               "position": word_index(got.output), "cut": got.cut,
               "bound": clock_bound(clock, len(word))}
    _emit(args, "clock-run", inputs, outcome, {"steps": got.steps})
    return 0


def _sat_verify_z(args) -> int:
    if args.z is not None:
        if args.x is not None or args.y is not None or args.dimacs:
            raise ValueError("give either Z or --x/--y or --dimacs")
        return args.z
    if args.dimacs:
        with open(args.dimacs) as f:
            formula = parse_dimacs(f.read())
        x = word_index(encode_cnf(formula))
        y = word_index(_check_word(args.assign or ""))
        return pair(x, y)
    if args.x is None or args.y is None:
        raise ValueError("need Z, or both --x and --y, or --dimacs")
    return pair(args.x, args.y)


def _cmd_sat_verify(args) -> int:
    z = _sat_verify_z(args)
    bit, ops = verify_cost(z)
    _emit(args, "sat-verify", {"z": z}, {"value": bit}, {"ops": ops})
    return 0


def _cmd_sat_solve(args) -> int:
    if args.dimacs:
        if args.x is not None:
            raise ValueError("give either X or --dimacs")
        with open(args.dimacs) as f:
            x = word_index(encode_cnf(parse_dimacs(f.read())))
    elif args.x is None:
        raise ValueError("need X or --dimacs")
    else:
        x = args.x
    y = solve_E(x)
    outcome = {"y": y, "assignment": index_word(y),
               "witnessed": verify_cost(pair(x, y))[0] == 1}
    _emit(args, "sat-solve", {"x": x}, outcome, {})
    return 0


def _search_outcome(got) -> dict:
    if isinstance(got, Found):
        return {"kind": "found", "witness": got.witness, "value": got.value}
    return {"kind": "exhausted", "budget": got.budget}


def _cmd_fna_search(args) -> int:
    budget = _budget(args)
    inputs = {"machine": args.machine, "budget": budget, "fuel": args.fuel,
              "guarded": args.guarded}
    try:
        if args.guarded:
            got = f_prime(args.machine, budget, args.fuel, _registry(args))
        else:
            got = f_neg_A(args.machine, budget, args.fuel)
    except IndeterminateSearch as stop:
        _emit(args, "fna-search", inputs, {"kind": "indeterminate", "z": stop.z}, {})
        return 2
    _emit(args, "fna-search", inputs, _search_outcome(got), {})
    return 0


def _cmd_ord_eval(args) -> int:
    alpha = _alpha_arg(args.alpha)
    budget = _budget(args)
    if alpha == "eps0":
        alpha = clock_index_ordinal(args.x)
    got = fgh_eval(alpha, args.x, budget)
    inputs = {"alpha": args.alpha, "x": args.x, "budget": budget}
    if isinstance(got, Value):
        _emit(args, "ord-eval", inputs, {"kind": "value", "value": got.value},
              {"calls": got.cost})
    else:
        _emit(args, "ord-eval", inputs, {"kind": "overflow", "budget": got.budget}, {})
    return 0


def _cmd_ord_fs(args) -> int:
    term = fundamental_sequence(ord_parse(args.alpha), args.x)
    _emit(args, "ord-fs", {"alpha": args.alpha, "x": args.x},
          {"ordinal": ord_format(term)}, {})
    return 0


def _cmd_dominate(args) -> int:
    budget = _budget(args)
    f_desc = parse_fn_descriptor(args.f)
    g_desc = parse_fn_descriptor(args.g)
    got = dominates_on_window(f_desc, g_desc, (args.lo, args.hi), budget)
    inputs = {"f": args.f, "g": args.g, "lo": args.lo, "hi": args.hi,
              "budget": budget}
    if isinstance(got, Holds):
        outcome = {"kind": "holds"}
    elif isinstance(got, FailsAt):
        outcome = {"kind": "fails-at", "x": got.x}
    else:
        outcome = {"kind": "unknown", "x": got.x}
    _emit(args, "dominate", inputs, outcome, {})
    return 0


def _cmd_qfam_build(args) -> int:
    alpha = _alpha_arg(args.alpha)
    inputs = {"alpha": args.alpha, "n": args.n, "width": args.width}
    try:
        table, godel, spec = build_Q(alpha, args.n, args.width,
                                     registry=_registry(args))
    except (BuildOverflow, BudgetExceeded) as stop:
        _emit(args, "qfam-build", inputs, {"kind": "overflow", "reason": str(stop)}, {})
        return 0
    outcome = {"kind": "built", "index": godel, "threshold": spec.threshold,
               "rules": len(table.rules)}
    _emit(args, "qfam-build", inputs, outcome, {"worst_steps": table.worst_steps})
    return 0


def _cmd_qfam_stride(args) -> int:
    alpha = _alpha_arg(args.alpha)
    ns = range(args.n0, args.n0 + args.count)
    inputs = {"alpha": args.alpha, "n0": args.n0, "count": args.count,
              "width": args.width}
    machines = stride_analysis(alpha, ns, args.width, registry=_registry(args))
    clocks = clock_stride_analysis(alpha, ns, args.width)
    _emit(args, "qfam-stride", inputs,
          {"kind": "stride", "role": "machine",
           "indices": list(machines.indices), "base": machines.base,
           "stride": machines.stride}, {})
    _emit(args, "qfam-stride", inputs,
          {"kind": "stride", "role": "clock",
           "indices": list(clocks.indices), "base": clocks.base,
           "stride": clocks.stride}, {})
    pairs = [p_index(m, c) for m, c in zip(machines.indices, clocks.indices)]
    second = differences(differences(pairs))
    third = differences(second)
    _emit(args, "qfam-stride", inputs,
          {"kind": "quadratic", "role": "pair", "indices": pairs,
           "second_diffs": list(second),
           "second_diffs_constant": len(set(second)) <= 1,
           "third_diffs_zero": all(d == 0 for d in third)}, {})
    return 0


def _cmd_qfam_peaks(args) -> int:
    alpha = _alpha_arg(args.alpha)
    budget = _budget(args)
    registry = _registry(args)
    for n in range(args.n0, args.n0 + args.count):
        inputs = {"alpha": args.alpha, "n": n, "width": args.width,
                  "budget": budget, "fuel": args.fuel}
        try:
            got = peak_probe(alpha, n, args.width, budget, args.fuel, registry)
        except IndeterminateSearch as stop:
            _emit(args, "qfam-peaks", inputs,
                  {"kind": "indeterminate", "z": stop.z}, {})
            return 2
        outcome = {"kind": "peak", "sigma_index": got.sigma_index,
                   "threshold": got.threshold}
        if isinstance(got.outcome, Found):
            outcome.update(result="found", witness=got.outcome.witness,
                           first_coord=got.first_coord)
        else:
            outcome.update(result="exhausted", budget=got.outcome.budget)
        _emit(args, "qfam-peaks", inputs, outcome, {})
    return 0


# --- parser ------------------------------------------------------------------

def _build_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--human", action="store_true",
                        help="render records readably instead of JSON")

    reg = argparse.ArgumentParser(add_help=False)
    reg.add_argument("--registry", default="fregistry.txt",
                     help="path of the persistent machine registry")
    reg.add_argument("--no-registry", action="store_true",
                     help="skip registry persistence")

    top = argparse.ArgumentParser(prog="tmlab",
                                  description="computability workbench")
    sub = top.add_subparsers(dest="cmd", required=True)

    p = sub.add_parser("tm-run", parents=[common], help="run a machine on a word")
    p.add_argument("file")
    p.add_argument("word", nargs="?", default="")
    p.add_argument("--fuel", type=_natural, default=DEFAULT_FUEL)
    p.set_defaults(handler=_cmd_tm_run)

    p = sub.add_parser("tm-encode", parents=[common],
                       help="index of a machine table")
    p.add_argument("file")
    p.set_defaults(handler=_cmd_tm_encode)

    p = sub.add_parser("tm-decode", parents=[common],
                       help="machine named by an index")
    p.add_argument("index", type=_natural)
    p.set_defaults(handler=_cmd_tm_decode)

    p = sub.add_parser("clock-run", parents=[common],
                       help="run a machine under a step clock")
    p.add_argument("file")
    p.add_argument("word", nargs="?", default="")
    p.add_argument("--clock", required=True,
                   help="poly:P or fgh:ALPHA:K")
    p.set_defaults(handler=_cmd_clock_run)

    p = sub.add_parser("sat-verify", parents=[common],
                       help="check a paired formula/assignment position")
    p.add_argument("z", nargs="?", type=_natural)
    p.add_argument("--x", type=_natural)
    p.add_argument("--y", type=_natural)
    p.add_argument("--dimacs")
    p.add_argument("--assign", help="assignment bits for --dimacs")
    p.set_defaults(handler=_cmd_sat_verify)

    p = sub.add_parser("sat-solve", parents=[common],
                       help="first satisfying assignment position")
    p.add_argument("x", nargs="?", type=_natural)
    p.add_argument("--dimacs")
    p.set_defaults(handler=_cmd_sat_solve)

    p = sub.add_parser("fna-search", parents=[common, reg],
                       help="search for a counterexample to a machine")
    p.add_argument("machine", type=_natural)
    p.add_argument("--budget", type=_natural)
    p.add_argument("--fuel", type=_natural, default=DEFAULT_FUEL)
    p.add_argument("--guarded", action="store_true",
                   help="only search recognized solver indices")
    p.set_defaults(handler=_cmd_fna_search)

    p = sub.add_parser("ord-eval", parents=[common],
                       help="evaluate the fast-growing hierarchy")
    p.add_argument("alpha", help="ordinal text, or eps0 for the diagonal")
    p.add_argument("x", type=_natural)
    p.add_argument("--budget", type=_natural)
    p.set_defaults(handler=_cmd_ord_eval)

    p = sub.add_parser("ord-fs", parents=[common],
                       help="fundamental sequence member of a limit ordinal")
    p.add_argument("alpha")
    p.add_argument("x", type=_natural)
    p.set_defaults(handler=_cmd_ord_fs)

    p = sub.add_parser("dominate", parents=[common],
                       help="pointwise comparison certificate on a window")
    p.add_argument("f", help="fgh:ORD[@poly:...], eps0[@poly:...], table:v0,...")
    p.add_argument("g")
    p.add_argument("--lo", type=_natural, required=True)
    p.add_argument("--hi", type=_natural, required=True)
    p.add_argument("--budget", type=_natural)
    p.set_defaults(handler=_cmd_dominate)

    p = sub.add_parser("qfam-build", parents=[common, reg],
                       help="build one threshold-solver family member")
    p.add_argument("alpha")
    p.add_argument("n", type=_natural)
    p.add_argument("--width", type=_natural, default=16)
    p.set_defaults(handler=_cmd_qfam_build)

    p = sub.add_parser("qfam-stride", parents=[common, reg],
                       help="index progressions of a family")
    p.add_argument("alpha")
    p.add_argument("n0", type=_natural)
    p.add_argument("--count", type=_natural, default=4)
    p.add_argument("--width", type=_natural, default=16)
    p.set_defaults(handler=_cmd_qfam_stride)

    p = sub.add_parser("qfam-peaks", parents=[common, reg],
                       help="counterexample peaks along a family")
    p.add_argument("alpha")
    p.add_argument("n0", type=_natural)
    p.add_argument("--count", type=_natural, default=3)
    p.add_argument("--width", type=_natural, default=16)
    p.add_argument("--budget", type=_natural)
    p.add_argument("--fuel", type=_natural, default=DEFAULT_FUEL)
    p.set_defaults(handler=_cmd_qfam_peaks)

    return top


def main(argv=None) -> int:
    try:
        args = _build_parser().parse_args(argv)
    except SystemExit as stop:
        return 0 if stop.code == 0 else 1
    try:
        return args.handler(args)
    except (ValueError, ParseError, NotLimit, MalformedCnf, InvalidTable,
            InvalidPair, OSError) as err:
        print("error: %s" % err, file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
