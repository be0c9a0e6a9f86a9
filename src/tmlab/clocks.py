"""Polynomial clocks and clocked execution of (machine, clock) pairs.

A clock bounds the run on input x to |x|^E + E steps.  Plain clocks carry the
exponent directly; parametrized clocks materialize E = F_alpha(k) once at
construction (with an explicit evaluation budget) and then behave like plain
ones.  A run cut by its clock outputs the one-character word "0".  A run is
simulated for at most STEP_CAP steps: one still going there, under a larger
bound, is past desk reach.
"""

from dataclasses import dataclass, field
from typing import NamedTuple, Union

from .hierarchy import EPS0, Value, fgh_eval, format_level, parse_level
from .machines import Halted, MachineTable, run
from .ordinals import OrdinalCNF
from .words import decimal

DEFAULT_EVAL_BUDGET = 10**6
# Largest power of two whose bound still prints as a decimal record in under
# 100 ms (2^17 bits: 30 ms on a 2-core Xeon; 2^18 bits took 115 ms).
BOUND_BITS = 1 << 17
# Power of two above every bound a test or bench run is cut at (the largest
# is a compose stage two on the run workload, 71^3 + 3 = 357,914 steps); a
# walker runs 2^19 steps in 63-85 ms on a 2-core Xeon (2^20 took 139-164 ms).
STEP_CAP = 1 << 19


class BudgetExceeded(Exception):
    pass


@dataclass(frozen=True, slots=True)
class PlainPoly:
    p: int

    def __post_init__(self):
        if self.p < 0:
            raise ValueError("exponent must be >= 0")

    @property
    def exponent(self) -> int:
        return self.p


@dataclass(frozen=True, slots=True)
class Parametrized:
    alpha: Union[OrdinalCNF, str]  # an ordinal, or EPS0 for the diagonal
    k: int
    width: int = 16  # bit width of the k field in the clock's code word
    eval_budget: int = field(default=DEFAULT_EVAL_BUDGET, compare=False, repr=False)
    exponent: int = field(init=False, compare=False)

    def __post_init__(self):
        if not (1 <= self.width <= 255):
            raise ValueError("width must be in 1..255")
        if not 0 <= self.k < (1 << self.width):
            raise ValueError("k must fit the %d-bit field" % self.width)
        if self.alpha != EPS0 and not isinstance(self.alpha, OrdinalCNF):
            raise ValueError("alpha must be an OrdinalCNF or %r" % EPS0)
        out = fgh_eval(self.alpha, self.k, self.eval_budget)
        if not isinstance(out, Value):
            raise BudgetExceeded("F_%s(%d) not evaluable within %d calls"
                                 % (format_level(self.alpha), self.k, self.eval_budget))
        object.__setattr__(self, "exponent", out.value)


ClockSpec = Union[PlainPoly, Parametrized]


def clock_bound(clock: ClockSpec, input_len: int) -> int:
    """|x|^E + E; BudgetExceeded when |x|^E could have more than BOUND_BITS
    bits, judged from E and the bit length of |x| without building the power."""
    e = clock.exponent
    if input_len > 1 and e * input_len.bit_length() > BOUND_BITS:
        raise BudgetExceeded("|x|^E past %d bits at |x| = %d" % (BOUND_BITS, input_len))
    return input_len**e + e


def parse_clock(text: str) -> ClockSpec:
    """Clock syntax: `poly:P` or `fgh:ALPHA:K` (ALPHA ordinal text or eps0)."""
    if text.startswith("poly:"):
        return PlainPoly(decimal(text[len("poly:"):], signed=True))
    if text.startswith("fgh:"):
        body, _, k = text[len("fgh:"):].rpartition(":")
        if not body:
            raise ValueError("expected fgh:ALPHA:K in %r" % text)
        return Parametrized(parse_level(body), decimal(k, signed=True))
    raise ValueError("unknown clock syntax %r" % text)


def format_clock(clock: ClockSpec) -> str:
    if isinstance(clock, PlainPoly):
        return "poly:%d" % clock.p
    return "fgh:%s:%d" % (format_level(clock.alpha), clock.k)


@dataclass(frozen=True, slots=True)
class _Composite:
    """Functional composition: run first's clocked semantics, then second's."""

    first: "ClockedMachine"
    second: "ClockedMachine"


@dataclass(frozen=True, slots=True)
class ClockedMachine:
    machine: Union[MachineTable, _Composite]
    clock: ClockSpec


class ClockedResult(NamedTuple):
    output: str
    steps: int
    cut: bool


def clocked_run(p: ClockedMachine, word: str) -> ClockedResult:
    """Run under the clock: cut runs output "0" after exactly bound steps.
    BudgetExceeded when the run is still going at STEP_CAP steps and the
    bound is larger."""
    if isinstance(p.machine, _Composite):
        r1 = clocked_run(p.machine.first, word)
        r2 = clocked_run(p.machine.second, r1.output)
        return ClockedResult(r2.output, r1.steps + r2.steps, r1.cut or r2.cut)
    bound = clock_bound(p.clock, len(word))
    r = run(p.machine, word, min(bound, STEP_CAP))
    if isinstance(r, Halted):
        return ClockedResult(r.output, r.steps, False)
    if bound > STEP_CAP:
        raise BudgetExceeded("run still going at the %d-step cap, bound %d"
                             % (STEP_CAP, bound))
    return ClockedResult("0", bound, True)


def compose(p1: ClockedMachine, p2: ClockedMachine) -> ClockedMachine:
    """Clocked machine computing x -> p2(p1(x)); the composed clock exponent
    (E1+2)(E2+2) is an envelope for bound2(bound1(L)) + bound1(L) on the
    desk-scale exponent range (see tests), not an enforced cutoff."""
    e = (p1.clock.exponent + 2) * (p2.clock.exponent + 2)
    return ClockedMachine(_Composite(p1, p2), PlainPoly(e))
