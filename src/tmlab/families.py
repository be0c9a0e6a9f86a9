"""Builders for finite-threshold solver machines and their indexed families.

A dispatch table answers a fixed finite question list: for word positions
x = 0..T it looks up a precomputed answer, for larger x it erases the input
and answers "0".  The lookup is a prefix trie over the in-range words (that
position range is prefix-closed), so an in-range run costs |w| + max(1, |out|)
steps and an out-of-range run costs |w| + 1.

build_PGH wires an arbitrary measured machine behind such a table; build_Q
wires the brute-force satisfiability solver behind a threshold drawn from the
fast-growing hierarchy, which is what makes the family's bounding clocks climb
that hierarchy while each member stays a plain finite table.
"""

from dataclasses import dataclass
from typing import Optional

from .clocks import DEFAULT_EVAL_BUDGET, BudgetExceeded, ClockedMachine, Parametrized, PlainPoly
from .codec import clock_index, encode_table, family_index, sigma_embed
from .hierarchy import FnDescriptor, Overflow, fgh_eval, fn_eval
from .machines import BLANK, Halted, MachineTable, Rule, run
from .ordinals import OrdinalCNF
from .registry import FRegistry, register
from .sat import Found, f_neg_A, solve_E
from .words import index_word, pair, proj1, word_index

DESK_THRESHOLD_BOUND = 1 << 12  # largest table we agree to materialize


class BuildOverflow(Exception):
    """The requested threshold cannot be materialized at desk scale."""


class BuildFuelExhausted(Exception):
    """The measured machine ran out of fuel on an in-range input."""


@dataclass(frozen=True)
class DispatchTable(MachineTable):
    threshold: int = 0  # in-range positions are 0..threshold
    worst_steps: int = 0  # measured over in-range inputs


@dataclass(frozen=True)
class PghTable(DispatchTable):
    clock: PlainPoly = PlainPoly(1)  # smallest honest polynomial envelope


@dataclass(frozen=True)
class QTable(DispatchTable):
    alpha: object = None  # OrdinalCNF or the epsilon-0 tag
    n: int = 0
    width: int = 16

    @property
    def family_key(self):
        return (self.alpha, self.n, self.width)


@dataclass(frozen=True)
class QSpec:
    alpha: object
    n: int
    threshold: int
    width: int


@dataclass(frozen=True)
class StrideReport:
    indices: tuple
    stride: Optional[int]  # None when the progression is not affine

    @property
    def base(self) -> Optional[int]:
        return self.indices[0] if self.indices else None  # None: empty progression


@dataclass(frozen=True)
class PeakResult:
    sigma_index: int
    outcome: object  # Found or Exhausted
    threshold: int
    first_coord: Optional[int]  # proj1 of the witness, when found


def _dispatch_rules(outputs) -> tuple:
    """Trie rules for the answer list outputs[0..T].  Node state for position
    x is 1 + x; T + 2 is the erase-and-default state; answer-writing chains
    for multi-char outputs are shared per distinct output and sit above."""
    t = len(outputs) - 1
    out_state = t + 2
    rules = []
    chain_rules = []
    chains = {}
    next_free = t + 3

    def chain_start(word: str) -> int:
        nonlocal next_free
        if word not in chains:
            start = next_free
            next_free += len(word) - 1
            chains[word] = start
            for j in range(1, len(word)):
                last = j == len(word) - 1
                chain_rules.append(Rule(start + j - 1, BLANK,
                                        0 if last else start + j,
                                        word[j], "N" if last else "R"))
        return chains[word]

    for x in range(t + 1):
        w = index_word(x)
        node = 1 + x
        for c in "01":
            x2 = word_index(w + c)
            target = 1 + x2 if x2 <= t else out_state
            rules.append(Rule(node, c, target, BLANK, "R"))
        answer = outputs[x]
        if answer == "":
            rules.append(Rule(node, BLANK, 0, BLANK, "N"))
        elif len(answer) == 1:
            rules.append(Rule(node, BLANK, 0, answer, "N"))
        else:
            rules.append(Rule(node, BLANK, chain_start(answer), answer[0], "R"))
    rules.append(Rule(out_state, "0", out_state, BLANK, "R"))
    rules.append(Rule(out_state, "1", out_state, BLANK, "R"))
    rules.append(Rule(out_state, BLANK, 0, "0", "N"))
    return tuple(rules + chain_rules)


def _measure(rules: tuple, outputs) -> int:
    """Check each in-range answer by running and return the worst step count."""
    probe = MachineTable(rules)
    worst = 0
    for x, expected in enumerate(outputs):
        w = index_word(x)
        got = run(probe, w, 4 * len(w) + 4 * len(expected) + 8)
        assert isinstance(got, Halted) and got.output == expected, \
            "dispatch self-check failed at position %d" % x
        worst = max(worst, got.steps)
    return worst


def build_PGH(machine: MachineTable, bound_fn: FnDescriptor, n: int,
              corpus_bound: int = DESK_THRESHOLD_BOUND,
              fuel: int = 10 ** 6,
              eval_budget: int = DEFAULT_EVAL_BUDGET,
              registry: Optional[FRegistry] = None) -> PghTable:
    """Dispatch table answering like `machine` for all positions up to the
    bound function's value at n, with the smallest honest polynomial clock."""
    threshold = fn_eval(bound_fn, n, eval_budget)
    if threshold is None or threshold > corpus_bound:
        raise BuildOverflow("threshold at n=%d is out of desk reach" % n)
    outputs = []
    for x in range(threshold + 1):
        got = run(machine, index_word(x), fuel)
        if not isinstance(got, Halted):
            raise BuildFuelExhausted("measured machine out of fuel at position %d" % x)
        outputs.append(got.output)
    rules = _dispatch_rules(outputs)
    worst = _measure(rules, outputs)
    exponent = 1
    while any(len(index_word(x)) ** exponent + exponent
              < len(index_word(x)) + max(1, len(out))
              for x, out in enumerate(outputs)):
        exponent += 1
        if exponent > 64:
            raise BuildOverflow("no small polynomial envelope fits")
    table = PghTable(rules, threshold=threshold, worst_steps=worst,
                     clock=PlainPoly(exponent))
    register(encode_table(table), registry)
    return table


def build_q_table(alpha, n: int, width: int = 16,
                  eval_budget: int = DEFAULT_EVAL_BUDGET,
                  corpus_bound: int = DESK_THRESHOLD_BOUND) -> QTable:
    """The n-th member for level alpha: answers the brute-force solver for
    positions up to F_alpha(n), then the default.  Pure build, no registration."""
    clock = Parametrized(alpha, n, width, eval_budget=eval_budget)  # BudgetExceeded if huge
    threshold = clock.exponent
    if threshold > corpus_bound:
        raise BuildOverflow("threshold F_alpha(%d) = %d is out of desk reach"
                            % (n, threshold))
    outputs = [index_word(solve_E(x)) for x in range(threshold + 1)]
    rules = _dispatch_rules(outputs)
    worst = _measure(rules, outputs)
    for x, out in enumerate(outputs):
        length = len(index_word(x))
        need = length + max(1, len(out))
        # length ** threshold >= 0, so need <= threshold already fits the
        # clock without computing that power
        assert need <= threshold or need <= length ** threshold + threshold, \
            "in-range run exceeds the family clock at %d" % x
    return QTable(rules, threshold=threshold, worst_steps=worst,
                  alpha=alpha, n=n, width=width)


def build_Q(alpha, n: int, width: int = 16,
            eval_budget: int = DEFAULT_EVAL_BUDGET,
            corpus_bound: int = DESK_THRESHOLD_BOUND,
            registry: Optional[FRegistry] = None):
    """Build the family member, register its family-word index, and return
    (table, index, spec)."""
    table = build_q_table(alpha, n, width, eval_budget, corpus_bound)
    godel = family_index(alpha, n, width)
    register(godel, registry)
    spec = QSpec(alpha, n, table.threshold, width)
    return table, godel, spec


def p_index(machine_index: int, clock_idx: int) -> int:
    """Paired position of a (machine, clock) combination."""
    return pair(machine_index, clock_idx)


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


def peak_probe(alpha, n: int, width: int = 16,
               budget: int = 10 ** 4, fuel: int = 10 ** 6,
               registry: Optional[FRegistry] = None) -> PeakResult:
    """Build the n-th member, embed it with its own family clock, and search
    for the first position where the clocked pair answers wrongly."""
    table, _, spec = build_Q(alpha, n, width, registry=registry)
    sigma = sigma_embed(ClockedMachine(table, Parametrized(alpha, n, width)))
    register(sigma, registry)
    outcome = f_neg_A(sigma, budget, fuel)
    first = proj1(outcome.witness) if isinstance(outcome, Found) else None
    return PeakResult(sigma, outcome, spec.threshold, first)
