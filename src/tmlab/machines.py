"""Deterministic single-tape Turing machines over {0, 1} plus blank.

A table is a finite set of quintuples (state, read, next_state, write, move)
over states 0..n where 0 is the final state and never a rule source.  The tape
is two-sided infinite; a run starts with the input word written from cell 0,
head on cell 0, in state 1 (state 0 at once when the table has no rules,
which makes the zero-rule table the identity machine).  When no rule matches
the current (state, symbol) the machine moves to state 0 in one step.  Every
run is fuel-bounded and therefore total.
"""

from dataclasses import dataclass
from operator import itemgetter
from typing import NamedTuple, Union

from .words import binary_word, decimal

BLANK = "_"
SYMBOLS = ("0", "1", BLANK)
MOVES = ("L", "R", "N")
_DELTA = {"L": -1, "R": 1, "N": 0}
_SYM_ORDER = {"0": 0, "1": 1, BLANK: 2}  # also the symbol codes on the run tape

# Row offset of the all-None row that ends a compiled program.  Rules that
# start a head-still loop jump there, so the run stops one step later.
_LOOP = -3
# Every compiled entry (write code, head delta, next row) is taken from here,
# so equal entries of all tables are one object.  Rows are dense, so it holds
# at most the 9 entries of each row of the largest program compiled so far,
# plus the 3 that jump to _LOOP.
_ENTRIES = {}
_TO_CODES = bytes.maketrans(b"01", b"\0\1")
_FROM_CODES = bytes.maketrans(b"\0\1\2", b"01_")
_PAD = b"\2" * 32  # blank cells on each side of a fresh tape


class InvalidTable(ValueError):
    pass


class Rule(NamedTuple):
    state: int
    read: str
    next_state: int
    write: str
    move: str


@dataclass(frozen=True)
class MachineTable:
    """Quintuple program; rule order is significant for Goedel coding.

    The only field is `rules`; the compiled program lives in a plain slot,
    so it takes no part in equality, hashing or `dataclasses.fields`."""

    __slots__ = ("rules", "_program")
    rules: tuple[Rule, ...]

    def __post_init__(self):
        reads = {}  # rule source -> bit mask of the symbols it already has a rule for
        for r in self.rules:
            if not isinstance(r, Rule):
                raise InvalidTable("rules must be Rule tuples")
            q, a, q2, w, m = r
            if type(q) is not int or type(q2) is not int:
                raise InvalidTable("states must be integers")
            if q <= 0:
                raise InvalidTable("state 0 is final and cannot be a rule source")
            if q2 < 0:
                raise InvalidTable("negative state index")
            if a not in SYMBOLS or w not in SYMBOLS:
                raise InvalidTable("symbols must be 0, 1 or blank")
            if m not in MOVES:
                raise InvalidTable("move must be L, R or N")
            bit = 1 << _SYM_ORDER[a]
            mask = reads.get(q, 0)
            if mask & bit:
                raise InvalidTable("two rules for %r" % ((q, a),))
            reads[q] = mask | bit

    def __getstate__(self):  # the frozen slots need these to copy and pickle
        return self.rules

    def __setstate__(self, rules):
        object.__setattr__(self, "rules", rules)

    @property
    def program(self) -> tuple:
        """The table compiled for `run` on first use, a flat tuple indexed by
        row + symbol code (0, 1, 2 for 0, 1, blank).  States 0, 1 and the
        mentioned ones get rows 0, 3, 6, ... in increasing order.  An entry
        is (write code, head delta, next state's row), taken from the shared
        _ENTRIES, or None where no rule matches; state 0's row is all None.
        A rule whose chain of N moves comes back to a (state, symbol) pair
        never lets the run halt: its entry jumps to the _LOOP row instead."""
        try:
            return self._program
        except AttributeError:  # first use
            pass
        rules = self.rules
        states = sorted({0, 1, *map(itemgetter(0), rules), *map(itemgetter(2), rules)})
        row = dict(zip(states, range(0, 3 * len(states), 3)))
        prog = [None] * (3 * len(states) + 3)
        still = []
        code, delta, shared = _SYM_ORDER, _DELTA, _ENTRIES.setdefault
        for q, a, q2, w, m in rules:
            at = row[q] + code[a]
            e = (code[w], delta[m], row[q2])
            prog[at] = shared(e, e)
            if m == "N":
                still.append(at)
        verdict = {}  # N-move entry -> loops?; None while on the chain being walked
        for at in still:
            write, _, row = prog[at]
            e = prog[row + write]
            if e is None or e[1]:  # one N move, then a halt or a move
                continue
            chain = []
            j = at
            while j not in verdict:
                e = prog[j]
                if e is None or e[1]:  # halts here or moves the head
                    loops = False
                    break
                verdict[j] = None
                chain.append(j)
                j = e[2] + e[0]
            else:
                loops = verdict[j] is not False
            for j in chain:
                verdict[j] = loops
        for j, loops in verdict.items():
            if loops:
                e = (prog[j][0], 0, _LOOP)
                prog[j] = shared(e, e)
        prog = tuple(prog)
        object.__setattr__(self, "_program", prog)
        return prog

    def canonical(self) -> "MachineTable":
        """Same rules sorted by (state, symbol), the table itself when they
        already are; used for order-insensitive comparison."""
        order = tuple(sorted(self.rules, key=lambda r: (r.state, _SYM_ORDER[r.read])))
        return self if order == self.rules else MachineTable(order)


_TRIVIAL = MachineTable(())


def trivial_machine() -> MachineTable:
    """The zero-rule table; computes the identity in zero steps.  Tables are
    frozen, so every caller shares one instance and its compiled program."""
    return _TRIVIAL


@dataclass(frozen=True, slots=True)
class Halted:
    output: str
    steps: int


@dataclass(frozen=True, slots=True)
class OutOfFuel:
    steps: int


RunResult = Union[Halted, OutOfFuel]


def run(table: MachineTable, word: str, fuel: int) -> RunResult:
    """Run on a binary word for at most fuel steps.

    The tape is a bytearray of symbol codes whose blank padding doubles on
    the side the head reaches.  Between two checks of fuel and tape ends the
    loop runs as many steps as can neither exhaust the fuel nor pass an end.
    A head-still loop, marked in the compiled program, answers OutOfFuel at
    once: such a run never halts.  Negative fuel, or a word with a character
    other than 0 and 1, is a ValueError."""
    if fuel < 0:
        raise ValueError("fuel must be >= 0")
    binary_word(word)
    try:
        prog = table._program
    except AttributeError:  # first run of this table
        prog = table.program
    tape = bytearray(_PAD + word.encode().translate(_TO_CODES) + _PAD)
    head = len(_PAD)
    i = 3 if table.rules else 0  # row offset of the current state
    steps = 0
    while i:
        k = len(tape) - 1 - head  # steps the head can take before it could pass an end
        if head < k:
            k = head
        if not k:  # at an end: double the tape on that side
            size = len(tape)
            if head:
                tape += b"\2" * size
            else:
                tape[:0] = b"\2" * size
                head = size
            continue
        if fuel - steps < k:
            k = fuel - steps
            if not k:
                return OutOfFuel(fuel)
        for n in range(k):
            e = prog[i + tape[head]]
            if e is None:
                break
            tape[head], d, i = e
            head += d
        else:
            steps += k
            continue
        if i == _LOOP:
            return OutOfFuel(fuel)
        steps += n + 1 if i else n  # a missing rule takes one step to state 0
        break
    return Halted(_word_at(tape, head), steps)


def _word_at(tape: bytearray, head: int) -> str:
    """Maximal non-blank word at the head, empty on blank; run never writes an end cell."""
    if tape[head] == 2:
        return ""
    return tape[tape.rfind(2, 0, head) + 1:tape.find(2, head)].translate(_FROM_CODES).decode()


def parse_tm_text(text: str) -> MachineTable:
    """Table file format: one `q a q' a' d` rule per line, decimal states,
    a/a' in {0, 1, _}, d in {L, R, N}; blank lines ignored."""
    rules = []
    for lineno, line in enumerate(text.splitlines(), 1):
        if not line.strip():
            continue
        fields = line.split()
        if len(fields) != 5:
            raise InvalidTable("line %d: expected 5 fields" % lineno)
        q, a, q2, a2, d = fields
        try:
            q, q2 = decimal(q), decimal(q2)
        except ValueError:
            raise InvalidTable("line %d: states must be decimal naturals" % lineno)
        rules.append(Rule(q, a, q2, a2, d))
    return MachineTable(tuple(rules))


def format_tm_text(table: MachineTable) -> str:
    return "".join(
        "%d %s %d %s %s\n" % (r.state, r.read, r.next_state, r.write, r.move)
        for r in table.rules
    )
