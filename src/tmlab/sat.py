"""CNF word coding, assignment checking, and the counterexample search.

A formula is written as runs over {0,1}: each 1-run is a variable index, each
0-run a separator that carries the polarity of the next literal and whether a
new clause starts.  verify checks a paired (formula word, assignment word)
position; solve_E scans assignments in word order and returns the position of
the first satisfying one (0 when there is none, and 0 doubles as the honest
answer on malformed words).  f_neg_A hunts for the least position z where a
candidate solver's answer fails a satisfiable formula; its scan finds each
formula's first verifying z with the same first-solution search as solve_E.
"""

import re
from dataclasses import dataclass
from heapq import heappop, heappush
from itertools import count
from typing import Optional, Union

from .clocks import BudgetExceeded, ClockedMachine, clocked_run
from .codec import decode_index, is_sigma_image
from .machines import OutOfFuel, run
from .registry import registered
from .words import decimal, index_word, pair, unpair, word_index

DEFAULT_FUEL = 10 ** 6
_RUNS = re.compile("0+|1+")  # the maximal runs of a word


class MalformedCnf(ValueError):
    pass


class IndeterminateSearch(Exception):
    """The search hit a z it could neither confirm nor rule out."""

    def __init__(self, z: int):
        super().__init__("undecided at z=%d" % z)
        self.z = z


@dataclass(frozen=True)
class Found:
    witness: int
    value: int


@dataclass(frozen=True)
class Exhausted:
    budget: int


SearchOutcome = Union[Found, Exhausted]

Literal = tuple  # (variable index >= 1, positive: bool)


@dataclass(frozen=True)
class CnfFormula:
    clauses: tuple = ()
    num_vars: int = 0  # may exceed the largest mentioned variable

    def __post_init__(self):
        top = 0
        for clause in self.clauses:
            if not clause:
                raise MalformedCnf("empty clause")
            for var, positive in clause:
                if var < 1:
                    raise MalformedCnf("variable indices start at 1")
                if not isinstance(positive, bool):
                    raise MalformedCnf("polarity must be a bool")
                top = max(top, var)
        if self.num_vars < top:
            raise MalformedCnf("num_vars below a mentioned variable")


EMPTY_FORMULA = CnfFormula()


def encode_cnf(f: CnfFormula) -> str:
    """Emits one-zero separators for positive literals, two-zero for negative,
    the 3/4-zero clause-break forms between clauses, and one trailing zero."""
    if not f.clauses:
        return ""
    bits = []
    for ci, clause in enumerate(f.clauses):
        for li, (var, positive) in enumerate(clause):
            if ci == 0 and li == 0:
                sep = "0" if positive else "00"
            elif li == 0:
                sep = "000" if positive else "0000"
            else:
                sep = "0" if positive else "00"
            bits.append(sep)
            bits.append("1" * var)
    bits.append("0")
    return "".join(bits)


def decode_cnf(word: str) -> CnfFormula:
    """Inverse of encode_cnf on its image; raises MalformedCnf elsewhere.
    All-zero words up to length 2 (and the empty word) mean the empty formula."""
    if "1" not in word:
        if len(word) <= 2:
            return EMPTY_FORMULA
        raise MalformedCnf("over-long empty coding")
    if word[0] == "1":
        raise MalformedCnf("missing polarity prefix")
    runs = list(map(len, _RUNS.findall(word)))  # alternating, a 0-run first
    lead = runs[0]
    if lead > 2:
        raise MalformedCnf("over-long polarity prefix")
    positive = lead == 1
    clauses = []
    clause = []
    i = 1
    while i < len(runs):
        var = runs[i]  # a 1-run
        clause.append((var, positive))
        i += 1
        if i == len(runs):
            break  # no trailing zeros: fine
        gap = runs[i]
        i += 1
        if i == len(runs):
            if gap > 1:
                raise MalformedCnf("over-long trailing zeros")
            break
        if gap in (1, 2):
            positive = gap == 1
        elif gap in (3, 4):
            clauses.append(tuple(clause))
            clause = []
            positive = gap == 3
        else:
            raise MalformedCnf("separator run of length %d" % gap)
    clauses.append(tuple(clause))
    num_vars = max(var for cl in clauses for var, _ in cl)
    return CnfFormula(tuple(clauses), num_vars)


def parse_dimacs(text: str) -> CnfFormula:
    """Classic `p cnf V C` format; clauses are 0-terminated integer runs."""
    num_vars = None
    tokens = []
    for line in text.splitlines():
        line = line.strip()
        if not line or line.startswith("c"):
            continue
        if line.startswith("p"):
            fields = line.split()
            if len(fields) != 4 or fields[1] != "cnf":
                raise MalformedCnf("bad problem line: %r" % line)
            num_vars = decimal(fields[2])
            continue
        tokens.extend(decimal(tok, signed=True) for tok in line.split())
    if num_vars is None:
        raise MalformedCnf("missing problem line")
    clauses = []
    clause = []
    for tok in tokens:
        if tok == 0:
            if clause:
                clauses.append(tuple(clause))
                clause = []
            continue
        var = abs(tok)
        if var > num_vars:
            raise MalformedCnf("literal %d above declared variable count" % tok)
        clause.append((var, tok > 0))
    if clause:
        clauses.append(tuple(clause))
    return CnfFormula(tuple(clauses), num_vars)


def _satisfies(f: CnfFormula, assignment: str) -> tuple:
    """(1 iff the assignment satisfies f, literals looked at): each clause is
    scanned up to its first true literal, and the scan stops at the first
    clause without one.  assignment[v-1] is the value of variable v."""
    looked = 0
    for clause in f.clauses:
        for var, positive in clause:
            looked += 1
            if assignment[var - 1] == ("1" if positive else "0"):
                break
        else:
            return 0, looked
    return 1, looked


def _solution(f: CnfFormula) -> Optional[str]:
    """The first assignment word of f's length, in enumeration order, that
    satisfies f; None when there is none."""
    for value in range(1 << f.num_vars, 2 << f.num_vars):
        assignment = bin(value)[3:]  # the num_vars bits below value's top bit
        if _satisfies(f, assignment)[0]:
            return assignment
    return None


def _formula_or_none(word: str) -> Optional[CnfFormula]:
    try:
        return decode_cnf(word)
    except MalformedCnf:
        return None


def verify(z: int) -> int:
    """1 iff position z = pair(x, y) pairs a well-formed formula word with an
    assignment word of exactly matching length that satisfies it."""
    return verify_cost(z)[0]


def verify_cost(z: int) -> tuple:
    """(verify(z), elementary op count): ops cover the run scan, the length
    check, and one op per literal looked at.  Used to pin the quadratic bound."""
    x, y = unpair(z)
    wx, wy = index_word(x), index_word(y)
    ops = len(wx) + len(wy) + 1
    f = _formula_or_none(wx)
    if f is None or len(wy) != f.num_vars:
        return 0, ops
    bit, looked = _satisfies(f, wy)
    return bit, ops + looked


def solve_E(x: int) -> int:
    """Position of the first satisfying assignment word for formula word x,
    scanning assignments in enumeration order; 0 when unsatisfiable or
    malformed.  Exponential in the number of variables by design."""
    f = _formula_or_none(index_word(x))
    got = None if f is None else _solution(f)
    return 0 if got is None else word_index(got)


def f_neg_A(m: int, budget: int, fuel: int = DEFAULT_FUEL) -> SearchOutcome:
    """Scan z = 0, 1, ... below budget for the first counterexample to m.
    Returns Found(z, z) or Exhausted(budget), or raises IndeterminateSearch
    (see scan)."""
    return scan(decode_index(m), budget, fuel)


def scan(machine, budget: int, fuel: int) -> SearchOutcome:
    """f_neg_A's scan over a decoded machine.  A clocked pair answers under
    its own clock, a plain table within fuel.  When a formula still had to be
    checked and the machine gives no answer, because the table ran out of fuel
    or the clock's bound is past desk reach, the scan raises
    IndeterminateSearch at that z.

    The first z that verifies for formula word x is pair(x, y) at the first
    solution y of x's formula, so the scan visits formula words, not pair
    codes: x = 0, 1, ... while pair(x, 0) is below the budget, about
    sqrt(2 * budget) of them.  Each x waits on a heap at that z, and the
    machine is consulted on it once no later x can verify before it; the z
    where the answer fails the formula is the least counterexample."""
    clocked = isinstance(machine, ClockedMachine)
    queue = []  # (first verifying z, formula word, formula)
    for x in count():
        start = pair(x, 0)  # no z of x or of a later word is smaller
        while queue and queue[0][0] < start:
            z, word, f = heappop(queue)
            try:
                got = clocked_run(machine, word) if clocked else run(machine, word, fuel)
            except BudgetExceeded:
                got = None
            if got is None or isinstance(got, OutOfFuel):
                raise IndeterminateSearch(z)
            if len(got.output) != f.num_vars or not _satisfies(f, got.output)[0]:
                return Found(z, z)
        if start >= budget:
            return Exhausted(budget)
        word = index_word(x)
        f = _formula_or_none(word)
        solution = None if f is None else _solution(f)
        if solution is not None:
            z = pair(x, word_index(solution))
            if z < budget:
                heappush(queue, (z, word, f))


def f_prime(m: int, budget: int, fuel: int = DEFAULT_FUEL,
            file_registry=None) -> SearchOutcome:
    """Guarded search: only indices recognized as clocked pairs or registered
    as built finite-threshold solvers are searched; everything else gets the
    default answer Found(0, 0) immediately."""
    if is_sigma_image(m) or registered(m, file_registry):
        return f_neg_A(m, budget, fuel)
    return Found(0, 0)
