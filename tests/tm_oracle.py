"""Reference step interpreter for the machine model, kept apart from tmlab.

A configuration holds the tape as a dict from cell to '0' or '1' (absent
cells are blank); `step` makes one transition and copies the tape, so every
configuration of a run stays intact.  `tmlab.machines.run` must agree with
iterating `step` from `initial_config`.
"""

from dataclasses import dataclass

from tmlab.machines import BLANK, Halted, MachineTable, OutOfFuel

_DELTA = {"L": -1, "R": 1, "N": 0}


class NotHalted(Exception):
    pass


class _AlreadyHalted:
    def __repr__(self):
        return "ALREADY_HALTED"


ALREADY_HALTED = _AlreadyHalted()


@dataclass(frozen=True)
class Configuration:
    tape: dict  # cell -> '0' | '1'; absent cells are blank
    head: int
    state: int
    steps: int


def initial_config(table: MachineTable, word: str) -> Configuration:
    tape = {i: c for i, c in enumerate(word)}
    start = 1 if table.rules else 0
    return Configuration(tape, 0, start, 0)


def step(table: MachineTable, c: Configuration):
    """One transition; returns ALREADY_HALTED when c is final."""
    if c.state == 0:
        return ALREADY_HALTED
    sym = c.tape.get(c.head, BLANK)
    rule = {(r.state, r.read): r for r in table.rules}.get((c.state, sym))
    if rule is None:
        return Configuration(dict(c.tape), c.head, 0, c.steps + 1)
    tape = dict(c.tape)
    if rule.write == BLANK:
        tape.pop(c.head, None)
    else:
        tape[c.head] = rule.write
    return Configuration(tape, c.head + _DELTA[rule.move], rule.next_state, c.steps + 1)


def output_word(c: Configuration) -> str:
    """Maximal contiguous non-blank word containing the head cell; empty on blank."""
    if c.state != 0:
        raise NotHalted("machine is in state %d" % c.state)
    return _word_at(c.tape, c.head)


def _word_at(tape: dict, head: int) -> str:
    if head not in tape:
        return ""
    lo = head
    while lo - 1 in tape:
        lo -= 1
    hi = head
    while hi + 1 in tape:
        hi += 1
    return "".join(tape[i] for i in range(lo, hi + 1))


def iterate(table: MachineTable, word: str, fuel: int, cycles: bool = False):
    """The run's answer by stepping: Halted, or OutOfFuel(fuel) when fuel
    steps pass without a halt.  With cycles, also OutOfFuel(fuel) as soon as
    a configuration comes back: a deterministic machine that repeats one
    never halts."""
    c = initial_config(table, word)
    seen = set()
    while c.state != 0:
        if c.steps >= fuel:
            return OutOfFuel(fuel)
        if cycles:
            key = (frozenset(c.tape.items()), c.head, c.state)
            if key in seen:
                return OutOfFuel(fuel)
            seen.add(key)
        c = step(table, c)
    return Halted(output_word(c), c.steps)
