"""Budgeted evaluation of the fast-growing hierarchy below epsilon_0.

Base clauses: F_0(x) = 0 and F_1(x) = 2x (both taken as given).  Successors
iterate, F_{b+1}(x) = x-fold F_b starting at 1; limits diagonalize along the
fundamental sequence, F_l(x) = F_{l[x]}(x).  F_2 runs its x doublings in the
successor loop itself, at one call each, as its F_1 calls would cost.  The
level may also be EPS0, the epsilon_0 diagonal F_{tau(x)}(x) over the omega
towers tau(x) = w, w^w, ...  Every evaluator call counts against an explicit
budget, passed down as the calls left and handed back with each value, and
exhaustion is reported as a value (Overflow), never an exception.  Values
explode fast, so comparisons use fgh_at_least, the same evaluator run with a
cap at the threshold: an iteration stops at its first value >= cap, so a
capped value is exact below the cap and a certified lower bound at or above
it.  Levels are told apart by the shape of their terms, never by comparing
with the module constants of ordinals.
"""

from dataclasses import dataclass
from typing import Optional, Union

from .ordinals import (
    OrdinalCNF,
    clock_index_ordinal,
    fundamental_sequence,
    ord_format,
    ord_parse,
    predecessor,
)
from .words import decimal


@dataclass(frozen=True, slots=True)
class Value:
    value: int
    cost: int


@dataclass(frozen=True, slots=True)
class Overflow:
    budget: int


EvalOutcome = Union[Value, Overflow]

EPS0 = "eps0"  # the diagonal level: F_eps0(x) = F_{tau(x)}(x)
# Largest power of two at which a window of F_2 against F_1, the cheapest
# growing levels, answered in about 100 ms when it was set (89 ms).  With F_2
# run in the evaluator's loop that window answers in 9-18 ms, stopping at
# x = 2,835 on WINDOW_BITS, and F_1 against F_0 in 5-11 ms (2-core Xeon, best
# of 5, three runs).  The bound stays: moving it moves `dominate` answers.
WINDOW_POINTS = 1 << 12
# The call budget does not bound big-integer work, so a window also stops at
# the first point where the g values so far pass this many bits in all: the
# largest power of two at which the worst window under the default budget
# answered in about 100 ms when it was set (F_2 against F_2 67 ms, F_3
# against F_2 86 ms).  They now answer in 5-9 and 6-11 ms, and at 2^16 bits
# in 10-18 and 12-22 ms (2-core Xeon, best of 5, three runs).
WINDOW_BITS = 1 << 15


def parse_level(text: str):
    """Level syntax: ordinal text, or eps0 for the diagonal."""
    return EPS0 if text == EPS0 else ord_parse(text)


def format_level(alpha) -> str:
    return EPS0 if alpha == EPS0 else ord_format(alpha)


class _BudgetOut(Exception):
    pass


class _Unknown:
    def __repr__(self):
        return "UNKNOWN"


UNKNOWN = _Unknown()


def _eval(a: OrdinalCNF, x: int, left: int, cap: Optional[int]):
    """(F_a(x), calls left after it) given left calls, or _BudgetOut."""
    # Size bound: only F_1 grows a value, by one doubling per call, and every
    # value starts as 0, x or 1, so a Value(v, cost) at argument x has
    # v.bit_length() <= max(x, 1).bit_length() + cost.  F_2's x doublings run
    # in the successor loop below, one call each, as its F_1 calls would.
    # The budget thus bounds memory already; only time is quadratic in it, as
    # each doubling takes time linear in the bits of its value.
    #
    # With a cap, the successor clause stops right after the first value
    # >= cap and returns it, so a value >= cap is a lower bound and never
    # becomes an argument.  Sound because every F_g with g >= 1 satisfies
    # F_g(v) >= v, and F_0 is never iterated here: the successor clause only
    # unfolds for a >= 2, whose predecessor is >= 1.
    if left <= 0:
        raise _BudgetOut()
    left -= 1
    terms = a.terms
    if not terms:  # 0
        return 0, left
    e, c = terms[-1]
    if e.terms:  # a limit: its last exponent is not 0
        return _eval(fundamental_sequence(a, x), x, left, cap)
    finite = len(terms) == 1  # the single term w^0 * c is the natural c
    if finite and c == 1:
        return 2 * x, left
    # F_2 doubles x times from 1, each doubling the F_1 call it stands for
    b = None if finite and c == 2 else predecessor(a)
    v = 1
    for _ in range(x):
        if b is not None:
            v, left = _eval(b, v, left, cap)
        elif left <= 0:
            raise _BudgetOut()
        else:
            left -= 1
            v += v
        if cap is not None and v >= cap:
            break
    return v, left


def _level(alpha, x: int, budget: int) -> Optional[OrdinalCNF]:
    """The ordinal level F_alpha takes at x: alpha itself, or for EPS0 the
    tower tau(x); None when F_{tau(x)}(x) is sure to cost more than budget.

    Depth lemma: tau(x) nests x + 1 deep (finite ordinals at 0, w at 1).  For
    x >= 1 a fundamental-sequence step lowers depth by at most one and a
    predecessor step never does, so F_{tau(x)}(x) costs at least x + 2 calls,
    exactly or capped.  Below that budget no tower is built: for a crafted x
    in the billions it would not fit in memory."""
    if alpha != EPS0:
        return alpha
    if x >= 1 and x + 2 > budget:
        return None
    return clock_index_ordinal(x)


def _run(alpha, x: int, budget: int, cap: Optional[int] = None):
    """(F_alpha(x), calls used), or None when more than budget evaluator
    calls are needed; the calls used are budget minus the calls _eval leaves.
    With a cap, a value at or above it is a lower bound of F_alpha(x).
    Interpreter stack exhaustion on deep descents counts as running out too:
    evaluation must stay total for arbitrary (crafted) levels.  A negative x
    is a ValueError."""
    if x < 0:
        raise ValueError("argument must be >= 0")
    level = _level(alpha, x, budget)
    if level is None:
        return None
    try:
        value, left = _eval(level, x, budget, cap)
    except (_BudgetOut, RecursionError):
        return None
    return value, budget - left


def fgh_eval(alpha, x: int, budget: int) -> EvalOutcome:
    """F_alpha(x) for an ordinal or EPS0, or Overflow when more than budget
    evaluator calls are needed.  A negative x is a ValueError."""
    got = _run(alpha, x, budget)
    return Overflow(budget) if got is None else Value(*got)


def fgh_at_least(alpha, x: int, threshold: int, budget: int):
    """True when F_alpha(x) >= threshold is certified, False when the exact
    value was computed below it, UNKNOWN when the budget died first.  This is
    fgh_eval's evaluator run with values capped at the threshold.  A negative
    x is a ValueError, whatever the threshold."""
    if threshold <= 0 <= x:
        return True
    got = _run(alpha, x, budget, threshold)
    if got is None:
        return UNKNOWN
    return got[0] >= threshold


# --- function descriptors -------------------------------------------------
#
# Text forms: "fgh:w^w", "fgh:2@poly:0,0,1" (argument pre-composed with a
# polynomial, constant term first), "table:0,2,4,6", "eps0" (the diagonal
# F_{tau(x)}(x) over the omega towers tau, also "eps0@poly:...").  Only
# ordinal text follows "fgh:"; the diagonal is written bare.

def poly_eval(coeffs: tuple, x: int) -> int:
    return sum(c * x**i for i, c in enumerate(coeffs))


def _check_poly(coeffs):
    if not coeffs or all(c == 0 for c in coeffs) or any(c < 0 for c in coeffs):
        raise ValueError("polynomial needs natural coefficients, one positive")
    return tuple(coeffs)


@dataclass(frozen=True, slots=True)
class FghFn:
    alpha: Union[OrdinalCNF, str]  # an ordinal, or EPS0 for the diagonal
    poly: Optional[tuple] = None


@dataclass(frozen=True, slots=True)
class TableFn:
    values: tuple


FnDescriptor = Union[FghFn, TableFn]


def parse_fn_descriptor(s: str) -> FnDescriptor:
    if s.startswith("table:"):
        values = tuple(decimal(v, signed=True) for v in s[len("table:"):].split(","))
        if min(values) < 0:
            raise ValueError("table values must be >= 0 in %r" % s)
        return TableFn(values)
    level, at, poly = s.partition("@")
    if level.startswith("fgh:"):
        alpha = ord_parse(level[len("fgh:"):])
    elif level == EPS0 and (not at or poly.startswith("poly:")):
        alpha = EPS0
    else:
        raise ValueError("unknown function descriptor %r" % s)
    return FghFn(alpha, _parse_poly(poly) if at else None)


def _parse_poly(s: str) -> tuple:
    if not s.startswith("poly:"):
        raise ValueError("expected poly:c0,c1,... in %r" % s)
    return _check_poly(tuple(decimal(c, signed=True) for c in s[len("poly:"):].split(",")))


def _argument(d: FghFn, x: int) -> int:
    return poly_eval(d.poly, x) if d.poly else x


def fn_eval(d: FnDescriptor, x: int, budget: int) -> Optional[int]:
    """Exact value of the described function, or None when not evaluable."""
    if isinstance(d, TableFn):
        return d.values[x] if 0 <= x < len(d.values) else None
    out = fgh_eval(d.alpha, _argument(d, x), budget)
    return out.value if isinstance(out, Value) else None


def fn_at_least(d: FnDescriptor, x: int, threshold: int, budget: int):
    """Certified f(x) >= threshold: True / False / UNKNOWN."""
    if isinstance(d, TableFn):
        if not 0 <= x < len(d.values):
            return UNKNOWN
        return d.values[x] >= threshold
    return fgh_at_least(d.alpha, _argument(d, x), threshold, budget)


# --- window domination ----------------------------------------------------

@dataclass(frozen=True, slots=True)
class Holds:
    pass


@dataclass(frozen=True, slots=True)
class FailsAt:
    x: int


@dataclass(frozen=True, slots=True)
class Unknown:
    x: int


def dominates_on_window(f_desc: FnDescriptor, g_desc: FnDescriptor,
                        window: tuple, budget: int):
    """Pointwise f(x) >= g(x) certificate over the finite window [lo, hi].

    Holds is a window certificate only; the relation proper quantifies over an
    unbounded tail and is not decided here.  A window that starts below 0,
    ends before it starts or has more than WINDOW_POINTS points is a
    ValueError.  The answer is Unknown(x) at the first x where the g values
    evaluated so far have more than WINDOW_BITS bits in all.  eps0 windows
    can still take seconds at small values: there the time goes into
    re-validating the ordinals every evaluator call builds, which neither
    bound counts.
    """
    lo, hi = window
    if not 0 <= lo <= hi:
        raise ValueError("window [%d, %d] must have 0 <= lo <= hi" % (lo, hi))
    if hi - lo >= WINDOW_POINTS:
        raise ValueError("window [%d, %d] has more than %d points" % (lo, hi, WINDOW_POINTS))
    bits = 0
    for x in range(lo, hi + 1):
        g = fn_eval(g_desc, x, budget)
        if g is None:
            return Unknown(x)
        bits += g.bit_length()
        if bits > WINDOW_BITS:
            return Unknown(x)
        ok = fn_at_least(f_desc, x, g, budget)
        if ok is UNKNOWN:
            return Unknown(x)
        if not ok:
            return FailsAt(x)
    return Holds()
