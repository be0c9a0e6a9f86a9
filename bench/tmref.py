"""Reference models the benchmark checks tmlab's answers against.

Everything here is written from the package's documented semantics, not from
its code, and imports nothing from tmlab: the word enumeration, the table and
tagged-word encodings, CNF words and truth tables, a Turing machine
interpreter, and the fast-growing hierarchy with the evaluator's exact call
accounting (closed forms F_0 = 0, F_1(x) = 2x and F_2(x) = 2^x at the bottom,
the recurrence above them).  Ordinals are nested tuples of
(exponent, coefficient) pairs in descending order; () is 0.
"""

from math import isqrt

# --- words -------------------------------------------------------------------


def word(i):
    """Word at position i: the binary numeral of i + 1 without its leading 1."""
    return bin(i + 1)[3:]


def position(w):
    return int("1" + w, 2) - 1


def unpair(z):
    s = (isqrt(8 * z + 1) - 1) // 2
    y = z - s * (s + 1) // 2
    return s - y, y


def pair(x, y):
    return (x + y) * (x + y + 1) // 2 + y


# --- machine tables ----------------------------------------------------------
# A rule is (state, read, next_state, write, move); a table is a rule tuple.

BLANK = "_"
_SYMBOL_RANK = {"0": 0, "1": 1, BLANK: 2}
_STEP = {"L": -1, "R": 1, "N": 0}
_ALPHABET = "01_LRN \n"  # 3-bit code of a character is its place here


def canonical(rules):
    return tuple(sorted(rules, key=lambda r: (r[0], _SYMBOL_RANK[r[1]])))


def table_bits(rules):
    """Packed table text: `q a q' a' d` lines with binary state numerals."""
    text = "".join("%s %s %s %s %s\n" % (bin(q)[2:], a, bin(q2)[2:], a2, d)
                   for q, a, q2, a2, d in rules)
    return "".join(format(_ALPHABET.index(c), "03b") for c in text)


def parse_table_bits(bits):
    """Rules of a strictly valid packed table text, or None."""
    if len(bits) % 3:
        return None
    text = "".join(_ALPHABET[int(bits[i:i + 3], 2)] for i in range(0, len(bits), 3))
    if text and text[-1] != "\n":
        return None
    rules, seen = [], set()
    for line in text.split("\n")[:-1] if text else []:
        fields = line.split(" ")
        if len(fields) != 5:
            return None
        q, a, q2, a2, d = fields
        for numeral in (q, q2):
            if not numeral or set(numeral) - {"0", "1"} or (len(numeral) > 1 and numeral[0] == "0"):
                return None
        if a not in _SYMBOL_RANK or a2 not in _SYMBOL_RANK or d not in _STEP:
            return None
        q, q2 = int(q, 2), int(q2, 2)
        if q == 0 or (q, a) in seen:
            return None
        seen.add((q, a))
        rules.append((q, a, q2, a2, d))
    return tuple(rules)


def tm_run(rules, w, fuel):
    """(halted, output, steps): the documented semantics of a fuel-bounded run."""
    delta = {(r[0], r[1]): r for r in rules}
    top = max((max(r[0], r[2]) for r in rules), default=0)
    tape = dict(enumerate(w))
    head, state, steps = 0, (1 if top else 0), 0
    while state:
        if steps == fuel:
            return False, None, fuel
        rule = delta.get((state, tape.get(head, BLANK)))
        steps += 1
        if rule is None:
            state = 0
            continue
        if rule[3] == BLANK:
            tape.pop(head, None)
        else:
            tape[head] = rule[3]
        head += _STEP[rule[4]]
        state = rule[2]
    lo = hi = head
    if head not in tape:
        return True, "", steps
    while lo - 1 in tape:
        lo -= 1
    while hi + 1 in tape:
        hi += 1
    return True, "".join(tape[i] for i in range(lo, hi + 1)), steps


def clocked(rules, exponent, w):
    """(output, steps, cut) under the clock |w|^E + E; a cut run outputs "0"."""
    bound = len(w) ** exponent + exponent
    halted, out, steps = tm_run(rules, w, bound)
    return (out, steps, False) if halted else ("0", bound, True)


# --- ordinals ----------------------------------------------------------------

ZERO = ()
ONE = ((ZERO, 1),)
TWO = ((ZERO, 2),)
OMEGA = ((ONE, 1),)


def nat(k):
    return ((ZERO, k),) if k else ZERO


def tower(k):
    """k-th omega tower: w, w^w, w^(w^w), ..."""
    t = OMEGA
    for _ in range(k):
        t = ((t, 1),)
    return t


def ord_text(a):
    if not a:
        return "0"
    parts = []
    for e, c in a:
        if e == ZERO:
            parts.append(str(c))
            continue
        if e == ONE:
            base = "w"
        else:
            simple = len(e) == 1 and (e[0][1] == 1 or e[0][0] == ZERO)
            base = "w^" + (ord_text(e) if simple else "(%s)" % ord_text(e))
        parts.append(base if c == 1 else "%s*%d" % (base, c))
    return "+".join(parts)


def fundamental(lam, x):
    """Wainer sequence: (g + w^(b+1))[x] = g + w^b*x, (g + w^l)[x] = g + w^(l[x])."""
    e, c = lam[-1]
    head = lam[:-1] + (((e, c - 1),) if c > 1 else ())
    if e[-1][0] == ZERO:  # successor exponent b + 1
        b = e[:-1] + (((ZERO, e[-1][1] - 1),) if e[-1][1] > 1 else ())
        return head + (((b, x),) if x else ())
    return head + ((fundamental(e, x), 1),)


def predecessor(a):
    c = a[-1][1]
    return a[:-1] + (((ZERO, c - 1),) if c > 1 else ())


# --- fast-growing hierarchy --------------------------------------------------


class OutOfCalls(Exception):
    pass


INF = float("inf")  # "already >= threshold" in the capped evaluation


class Fgh:
    """F_alpha(x) charged exactly as the documented evaluator charges: one call
    per (alpha, x) visited.  With a threshold, values at or above it collapse
    to INF, as in the threshold certifier."""

    def __init__(self, budget, threshold=None):
        self.budget, self.threshold, self.used = budget, threshold, 0

    def _charge(self, n):
        self.used += n
        if self.used > self.budget:
            raise OutOfCalls

    def _cap(self, v):
        return INF if self.threshold is not None and v >= self.threshold else v

    def eval(self, a, x):
        """Iterative: pending successor loops sit on an explicit stack as
        [predecessor, iterations left], so depth never meets a recursion limit."""
        loops = []
        while True:
            self._charge(1)
            if a == ZERO:
                v = 0
            elif a == ONE:
                v = INF if x == INF else self._cap(2 * x)
            elif x == INF:
                v = INF
            elif a == TWO:
                v = self._two(x)
            elif a[-1][0] == ZERO:  # successor: x-fold iteration from 1
                if x == 0:
                    v = 1
                else:
                    loops.append([predecessor(a), x - 1])
                    a, x = loops[-1][0], 1
                    continue
            else:  # limit: F_a(x) = F_{a[x]}(x), charged as a call of its own
                a = fundamental(a, x)
                continue
            while loops and (v == INF or loops[-1][1] == 0):
                loops.pop()  # a finished (or capped) loop hands v to the one below
            if not loops:
                return v
            loops[-1][1] -= 1
            a, x = loops[-1][0], v

    def _two(self, x):
        if self.threshold is None:
            self._charge(x)  # x doublings, one call each
            return 1 << x
        v = 1
        for _ in range(x):  # stops at the first capped doubling
            self._charge(1)
            v = self._cap(2 * v)
            if v == INF:
                return INF
        return v


def fgh_value(a, x, budget):
    """(value, calls) or None when more than budget calls are needed."""
    f = Fgh(budget)
    try:
        return f.eval(a, x), f.used
    except OutOfCalls:
        return None


def fgh_at_least(a, x, threshold, budget):
    """True / False, or None when the budget dies first."""
    if threshold <= 0:
        return True
    f = Fgh(budget, threshold)
    try:
        v = f.eval(a, x)
    except OutOfCalls:
        return None
    return v == INF or v >= threshold


# --- CNF words and truth tables ----------------------------------------------


def cnf(w):
    """(clauses, num_vars) of a CNF word, or None when it is malformed.
    A clause is a tuple of (variable, positive) literals."""
    if "1" not in w:
        return ((), 0) if len(w) <= 2 else None
    runs = []
    for ch in w:
        if runs and runs[-1][0] == ch:
            runs[-1][1] += 1
        else:
            runs.append([ch, 1])
    if runs[0][0] != "0" or runs[0][1] > 2:
        return None
    positive = runs[0][1] == 1
    clauses, clause = [], []
    rest = runs[1:]
    for j in range(0, len(rest), 2):
        clause.append((rest[j][1], positive))
        if j + 1 == len(rest):
            break
        gap = rest[j + 1][1]
        if j + 2 == len(rest):
            if gap != 1:
                return None
            break
        if gap > 4:
            return None
        if gap > 2:
            clauses.append(tuple(clause))
            clause = []
        positive = gap in (1, 3)
    clauses.append(tuple(clause))
    return tuple(clauses), max(v for cl in clauses for v, _ in cl)


def satisfies(clauses, assignment):
    return all(any((assignment[v - 1] == "1") == pos for v, pos in cl) for cl in clauses)


def verify(z):
    x, y = unpair(z)
    f = cnf(word(x))
    a = word(y)
    return int(f is not None and len(a) == f[1] and satisfies(f[0], a))


def least_solution(x):
    """Word of the first satisfying assignment of formula x in word order, or
    the empty word when x is malformed or unsatisfiable."""
    f = cnf(word(x))
    if f is None:
        return ""
    clauses, n = f
    for v in range(1 << n):
        a = format(v, "0%db" % n) if n else ""
        if satisfies(clauses, a):
            return a
    return ""


def is_counterexample(z, answer):
    """Truth-table re-check of a witness: z pairs a satisfiable formula with a
    satisfying assignment, and the machine's answer on that formula is not one."""
    if not verify(z):
        return False
    clauses, n = cnf(word(unpair(z)[0]))
    return not (len(answer) == n and satisfies(clauses, answer))


# --- tagged words ------------------------------------------------------------

TAG_SIGMA, TAG_FAMILY, TAG_CLOCK = "11", "101", "100"
E_MARKER, C_MARKER = "01011101", "10110011"


def gamma(k):
    b = bin(k)[2:]
    return "0" * (len(b) - 1) + b


def ord_bits(a):
    return gamma(len(a) + 1) + "".join(ord_bits(e) + gamma(c) for e, c in a)


def alpha_bits(alpha):
    """alpha is an ordinal tuple or the string "eps0"."""
    return "1" if alpha == "eps0" else "0" + ord_bits(alpha)


def poly_spec_bits(p):
    return "0" + gamma(p + 1)


def fgh_spec_bits(alpha, k, width):
    return "1" + format(width, "08b") + format(k, "0%db" % width) + alpha_bits(alpha)


def family_bits(alpha, n, width):
    return TAG_FAMILY + format(width, "08b") + format(n, "0%db" % width) + alpha_bits(alpha) + E_MARKER


def clock_word_bits(spec_bits):
    return TAG_CLOCK + spec_bits + C_MARKER
