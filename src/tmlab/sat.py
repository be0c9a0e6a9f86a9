"""CNF word coding, assignment checking, and the counterexample search.

A formula is written as runs over {0,1}: each 1-run is a variable index, each
0-run a separator that carries the polarity of the next literal and whether a
new clause starts.  verify checks a paired (formula word, assignment word)
position; solve_E scans assignments in word order and returns the position of
the first satisfying one (0 when there is none, and 0 doubles as the honest
answer on malformed words).  f_neg_A hunts for the least position z where a
candidate solver's answer fails a satisfiable formula; its scan finds each
formula's first verifying z with the same first-solution search as solve_E.
The search answers with a value, never an exception: Found, Exhausted, or
Indeterminate at a z it can neither confirm nor rule out.

verify, solve_E, the scan and decode_cnf read a formula word once, through one
grammar (_clauses): a compiled pattern accepts the word and one pass over its
literals yields the clause tuples, with no exception on a malformed word.
verify first compares the assignment's length with the word's longest 1-run,
its variable count, and answers 0 on a mismatch before any parsing; its op
count charges the whole run scan whichever check answers.
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
# The formula words: the all-zero words up to length 2, and otherwise a 0 or
# 00 polarity prefix, literals behind separators of 1 to 4 zeros, and at most
# one trailing zero.
_FORMULA_WORD = re.compile("0{0,2}|0{1,2}1+(?:0{1,4}1+)*0?")
_LITERAL = re.compile("(0+)(1+)")  # a separator and the variable index after it
_LONG_GAP = re.compile("(?<=1)0{5,}(?=1)")  # a separator too long, for decode_cnf


class MalformedCnf(ValueError):
    pass


@dataclass(frozen=True, slots=True)
class Found:
    witness: int
    value: int


@dataclass(frozen=True, slots=True)
class Exhausted:
    budget: int


@dataclass(frozen=True, slots=True)
class Indeterminate:
    z: int  # the search could neither confirm nor rule out this z


SearchOutcome = Union[Found, Exhausted, Indeterminate]


@dataclass(frozen=True, slots=True)
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


def encoded_length(f: CnfFormula) -> int:
    """len(encode_cnf(f)), without building the word: each literal is its
    variable plus a separator of 1 zero (positive) or 2 (negative), each
    clause break adds 2 zeros, and one zero trails."""
    if not f.clauses:
        return 0
    return (1 + 2 * (len(f.clauses) - 1)
            + sum(var + (1 if positive else 2) for clause in f.clauses for var, positive in clause))


def _clauses(word: str) -> Optional[tuple]:
    """The clause tuples of a formula word, or None when the grammar
    rejects it.  A separator of 1 or 3 zeros makes the next literal positive,
    2 or 4 negative; 3 and 4 start a new clause."""
    if _FORMULA_WORD.fullmatch(word) is None:
        return None
    clauses = []
    clause = []
    for sep, ones in _LITERAL.findall(word):
        gap = len(sep)
        if gap > 2:  # never the first separator
            clauses.append(tuple(clause))
            clause = []
        clause.append((len(ones), gap % 2 == 1))
    if clause:
        clauses.append(tuple(clause))
    return tuple(clauses)


def _num_vars(word: str) -> int:
    """A formula word's variable count: its longest 1-run."""
    return len(max(word.split("0")))


def _fault(word: str) -> str:
    """Why the grammar rejects word: the first fault a left-to-right read
    meets."""
    if "1" not in word:
        return "over-long empty coding"
    if word[0] == "1":
        return "missing polarity prefix"
    if word.startswith("000"):
        return "over-long polarity prefix"
    gap = _LONG_GAP.search(word)
    if gap:
        return "separator run of length %d" % len(gap.group())
    return "over-long trailing zeros"


def decode_cnf(word: str) -> CnfFormula:
    """Inverse of encode_cnf on its image; raises MalformedCnf elsewhere.
    All-zero words up to length 2 (and the empty word) mean the empty formula."""
    f = _formula_or_none(word)
    if f is None:
        raise MalformedCnf(_fault(word))
    return f


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
            try:
                decimal(fields[3])  # the clause count, not checked against the clauses
            except ValueError:
                raise MalformedCnf("bad problem line: %r" % line) from None
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


def _satisfies(clauses: tuple, assignment: str) -> tuple:
    """(1 iff the assignment satisfies the clauses, literals looked at): each
    clause is scanned up to its first true literal, and the scan stops at the
    first clause without one.  assignment[v-1] is the value of variable v."""
    looked = 0
    for clause in clauses:
        for var, positive in clause:
            looked += 1
            if assignment[var - 1] == ("1" if positive else "0"):
                break
        else:
            return 0, looked
    return 1, looked


def _solution(clauses: tuple, num_vars: int) -> Optional[str]:
    """The first assignment word of length num_vars, in enumeration order,
    that satisfies the clauses; None when there is none."""
    for value in range(1 << num_vars, 2 << num_vars):
        assignment = bin(value)[3:]  # the num_vars bits below value's top bit
        if _satisfies(clauses, assignment)[0]:
            return assignment
    return None


def _formula_or_none(word: str) -> Optional[CnfFormula]:
    clauses = _clauses(word)
    return None if clauses is None else CnfFormula(clauses, _num_vars(word))


def verify(z: int) -> int:
    """1 iff position z = pair(x, y) pairs a well-formed formula word with an
    assignment word of exactly matching length that satisfies it."""
    return verify_cost(z)[0]


def verify_cost(z: int) -> tuple:
    """(verify(z), elementary op count): ops cover the run scan, the length
    check, and one op per literal looked at.  Used to pin the quadratic bound.

    The formula word is read once.  An assignment whose length is not the
    word's longest 1-run answers 0 before any parsing: a well-formed word's
    variable count is that run, and a malformed word answers 0 anyway.  The
    op count does not depend on which check answers."""
    x, y = unpair(z)
    wx, wy = index_word(x), index_word(y)
    ops = len(wx) + len(wy) + 1
    if len(wy) != _num_vars(wx):
        return 0, ops
    clauses = _clauses(wx)
    if clauses is None:
        return 0, ops
    bit, looked = _satisfies(clauses, wy)
    return bit, ops + looked


def solve_E(x: int) -> int:
    """Position of the first satisfying assignment word for formula word x,
    scanning assignments in enumeration order; 0 when unsatisfiable or
    malformed.  Exponential in the number of variables by design."""
    word = index_word(x)
    clauses = _clauses(word)
    got = None if clauses is None else _solution(clauses, _num_vars(word))
    return 0 if got is None else word_index(got)


def f_neg_A(m: int, budget: int, fuel: int = DEFAULT_FUEL) -> SearchOutcome:
    """Scan z = 0, 1, ... below budget for the first counterexample to m.
    Returns Found(z, z), Exhausted(budget) or Indeterminate(z) (see scan)."""
    return scan(decode_index(m), budget, fuel)


def scan(machine, budget: int, fuel: int = DEFAULT_FUEL) -> SearchOutcome:
    """f_neg_A's scan over a decoded machine.  A clocked pair answers under
    its own clock, a plain table within fuel.  When a formula still had to be
    checked and the machine gives no answer, because the table ran out of fuel
    or the clock's bound is past desk reach, the scan answers Indeterminate at
    that z.

    The first z that verifies for formula word x is pair(x, y) at the first
    solution y of x's formula, so the scan visits formula words, not pair
    codes: x = 0, 1, ... while pair(x, 0) is below the budget, about
    sqrt(2 * budget) of them.  Each x waits on a heap at that z, and the
    machine is consulted on it once no later x can verify before it; the z
    where the answer fails the formula is the least counterexample."""
    clocked = isinstance(machine, ClockedMachine)
    queue = []  # (first verifying z, formula word, clauses, variable count)
    for x in count():
        start = pair(x, 0)  # no z of x or of a later word is smaller
        while queue and queue[0][0] < start:
            z, word, clauses, num_vars = heappop(queue)
            try:
                got = clocked_run(machine, word) if clocked else run(machine, word, fuel)
            except BudgetExceeded:
                got = None
            if got is None or isinstance(got, OutOfFuel):
                return Indeterminate(z)
            if len(got.output) != num_vars or not _satisfies(clauses, got.output)[0]:
                return Found(z, z)
        if start >= budget:
            return Exhausted(budget)
        word = index_word(x)
        clauses = _clauses(word)
        solution = None if clauses is None else _solution(clauses, _num_vars(word))
        if solution is not None:
            z = pair(x, word_index(solution))
            if z < budget:
                heappush(queue, (z, word, clauses, len(solution)))


def f_prime(m: int, budget: int, fuel: int = DEFAULT_FUEL,
            file_registry=None) -> SearchOutcome:
    """Guarded search: only indices recognized as clocked pairs or registered
    as built finite-threshold solvers are searched; everything else gets the
    default answer Found(0, 0) immediately."""
    if is_sigma_image(m) or registered(m, file_registry):
        return f_neg_A(m, budget, fuel)
    return Found(0, 0)
