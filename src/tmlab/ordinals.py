"""Ordinals below epsilon_0 in Cantor normal form.

An ordinal is a descending sum of terms w^exponent * coefficient with
exponents again in normal form and coefficients >= 1; the empty sum is 0.
Text syntax: `0`, `3`, `w`, `w*5`, `w^w`, `w^(w+1)*2`, `w^w+w*3+2`.
Shapes are read from `terms`: 0 has none, and a successor's last exponent is 0.
"""

from dataclasses import dataclass

LESS, EQUAL, GREATER = -1, 0, 1
# Deepest w^ tower and parenthesis nesting ord_parse accepts; deeper text is
# a ParseError, well before the recursive parser and the functions on the
# parsed ordinal reach the interpreter's recursion limit.
MAX_NESTING = 256


class ParseError(ValueError):
    pass


class NotLimit(ValueError):
    pass


@dataclass(frozen=True, slots=True)
class OrdinalCNF:
    terms: tuple = ()  # tuple of (OrdinalCNF exponent, int coefficient), descending

    def __post_init__(self):
        for e, c in self.terms:
            if not isinstance(e, OrdinalCNF) or c < 1:
                raise ValueError("terms must be (OrdinalCNF, coefficient >= 1)")
        for (e1, _), (e2, _) in zip(self.terms, self.terms[1:]):
            if ord_compare(e1, e2) != GREATER:
                raise ValueError("exponents must be strictly descending")

    def __repr__(self):
        return "ord(%r)" % ord_format(self)


ZERO = OrdinalCNF(())
ONE = OrdinalCNF(((ZERO, 1),))
OMEGA = OrdinalCNF(((ONE, 1),))


def from_nat(k: int) -> OrdinalCNF:
    if k < 0:
        raise ValueError("naturals only")
    return ZERO if k == 0 else OrdinalCNF(((ZERO, k),))


def omega_power(e: OrdinalCNF) -> OrdinalCNF:
    return OrdinalCNF(((e, 1),))


def ord_compare(a: OrdinalCNF, b: OrdinalCNF) -> int:
    """Standard CNF lexicographic order: returns LESS, EQUAL or GREATER."""
    if a is b:
        # rebuilt towers share subterms; without this the walk below unfolds
        # the whole shared structure and deep comparisons stop terminating
        # at desk scale
        return EQUAL
    for (ea, ca), (eb, cb) in zip(a.terms, b.terms):
        c = ord_compare(ea, eb)
        if c != EQUAL:
            return c
        if ca != cb:
            return LESS if ca < cb else GREATER
    if len(a.terms) == len(b.terms):
        return EQUAL
    return LESS if len(a.terms) < len(b.terms) else GREATER


def ord_add(a: OrdinalCNF, b: OrdinalCNF) -> OrdinalCNF:
    """CNF addition: terms of a below b's leading exponent are absorbed."""
    if not b.terms:
        return a
    if not a.terms:
        return b
    eb, cb = b.terms[0]
    keep = []
    merged = cb
    for e, c in a.terms:
        cmp = ord_compare(e, eb)
        if cmp == GREATER:
            keep.append((e, c))
        elif cmp == EQUAL:
            merged = c + cb
            break
        else:
            break
    return OrdinalCNF(tuple(keep) + ((eb, merged),) + b.terms[1:])


def ord_mult_nat(a: OrdinalCNF, k: int) -> OrdinalCNF:
    """a * k for a natural multiplier."""
    if k < 0:
        raise ValueError("naturals only")
    if k == 0 or not a.terms:
        return ZERO
    (e, c), rest = a.terms[0], a.terms[1:]
    return OrdinalCNF(((e, c * k),) + rest)


def is_successor(a: OrdinalCNF) -> bool:
    return bool(a.terms) and not a.terms[-1][0].terms


def is_limit(a: OrdinalCNF) -> bool:
    return bool(a.terms) and bool(a.terms[-1][0].terms)


def predecessor(a: OrdinalCNF) -> OrdinalCNF:
    """b with a = b + 1; only successors have one."""
    if not is_successor(a):
        raise ValueError("not a successor ordinal")
    e, c = a.terms[-1]
    rest = a.terms[:-1]
    return OrdinalCNF(rest if c == 1 else rest + ((e, c - 1),))


def fundamental_sequence(lam: OrdinalCNF, x: int) -> OrdinalCNF:
    """x-th member of the standard (Wainer) sequence converging to limit lam:
    (g + w^(b+1))[x] = g + w^b * x, (g + w^l)[x] = g + w^(l[x]) for limit l,
    with a trailing coefficient c > 1 peeled off into g first."""
    if x < 0:
        raise ValueError("sequence position must be >= 0")
    if not is_limit(lam):
        raise NotLimit("not a limit ordinal: %s" % ord_format(lam))
    e, c = lam.terms[-1]
    gamma = list(lam.terms[:-1])
    if c > 1:
        gamma.append((e, c - 1))
    if is_successor(e):
        if x > 0:
            gamma.append((predecessor(e), x))
    else:
        gamma.append((fundamental_sequence(e, x), 1))
    return OrdinalCNF(tuple(gamma))


def clock_index_ordinal(i: int) -> OrdinalCNF:
    """i-th omega tower: w, w^w, w^(w^w), ..."""
    if i < 0:
        raise ValueError("tower index must be >= 0")
    t = OMEGA
    for _ in range(i):
        t = omega_power(t)
    return t


def ord_format(a: OrdinalCNF) -> str:
    if not a.terms:
        return "0"
    parts = []
    for e, c in a.terms:
        if not e.terms:
            parts.append(str(c))
            continue
        head, k = e.terms[0]
        if len(e.terms) == 1 and k == 1 and not head.terms:
            base = "w"
        else:
            inner = ord_format(e)
            simple = len(e.terms) == 1 and (k == 1 or not head.terms)
            base = "w^%s" % (inner if simple else "(%s)" % inner)
        parts.append(base if c == 1 else "%s*%d" % (base, c))
    return "+".join(parts)


class _Parser:
    def __init__(self, text: str):
        self.text = text.replace(" ", "")
        self.pos = 0

    def nest(self, depth: int) -> int:
        """The depth of open w^ towers and parentheses, one more opened."""
        if depth >= MAX_NESTING:
            raise ParseError("ordinal text nests deeper than %d at %d"
                             % (MAX_NESTING, self.pos))
        return depth + 1

    def peek(self):
        return self.text[self.pos] if self.pos < len(self.text) else ""

    def take(self, ch):
        if self.peek() != ch:
            raise ParseError("expected %r at %d in %r" % (ch, self.pos, self.text))
        self.pos += 1

    def nat(self) -> int:
        start = self.pos
        while "0" <= self.peek() <= "9":
            self.pos += 1
        if start == self.pos:
            raise ParseError("expected number at %d in %r" % (self.pos, self.text))
        return int(self.text[start:self.pos])

    def sum(self, depth: int) -> OrdinalCNF:
        v = self.prod(depth)
        while self.peek() == "+":
            self.take("+")
            v = ord_add(v, self.prod(depth))
        return v

    def prod(self, depth: int) -> OrdinalCNF:
        v = self.pow(depth)
        if self.peek() == "*":
            self.take("*")
            v = ord_mult_nat(v, self.nat())
        return v

    def pow(self, depth: int) -> OrdinalCNF:
        c = self.peek()
        if c == "w":
            self.take("w")
            if self.peek() == "^":
                self.take("^")
                return omega_power(self.pow(self.nest(depth)))  # right-associative towers
            return OMEGA
        if c == "(":
            self.take("(")
            v = self.sum(self.nest(depth))
            self.take(")")
            return v
        if "0" <= c <= "9":
            return from_nat(self.nat())
        raise ParseError("expected ordinal at %d in %r" % (self.pos, self.text))


def ord_parse(s: str) -> OrdinalCNF:
    p = _Parser(s)
    v = p.sum(0)
    if p.pos != len(p.text):
        raise ParseError("trailing input %r" % p.text[p.pos:])
    return v
