"""The four benchmark workloads: seeded inputs, the calls into tmlab, and the
answer checks.

A workload is a list of rounds; a round is a list of operations with the
same make-up in every round and for every seed, so that a run's throughput
does not depend on which inputs the seed drew.  An operation is a tuple
(kind, *inputs).  `execute` makes the tmlab call for one operation; `check`
judges its answer against the models in tmref, never against the function
under test.  Fallbacks (the trivial machine, Overflow, UNKNOWN, Exhausted,
Found(0, 0) off the guarded sets) are answers, and are checked as such.
"""

import dataclasses
import random
from functools import lru_cache

import tmref as ref

DECODE_EVAL_BUDGET = 10 ** 4  # the budget the decoder gives clock exponents
FAMILY_EVAL_BUDGET = 10 ** 6  # the budget family builds give their thresholds
DESK_THRESHOLD_BOUND = 1 << 12
DEFAULT_FUEL = 10 ** 6

SMALL_ORDINALS = {
    "1": ref.nat(1), "2": ref.nat(2), "3": ref.nat(3), "w": ref.OMEGA,
    "w+1": ref.OMEGA + ref.nat(1), "w*2": ((ref.ONE, 2),),
    "w^2": ((ref.nat(2), 1),), "w^w": ref.tower(1),
}

# Sizes: "full" is the benchmark, "tiny" the smoke run that keeps it from rotting.
SIZES = {
    "full": dict(
        sweep=800, random=300, tables=60, poly_words=30, eps0_k=5, eps0_heavy=3,
        fgh_k=(1, 2, 3), families=6, clock_words=10,
        ladder=(10 ** 3, 10 ** 4, 10 ** 5), ww_ladder=(10 ** 3, 10 ** 4, 10 ** 5),
        value_ladder=(10 ** 5, 2 * 10 ** 5, 4 * 10 ** 5), small_evals=20, at_least=6,
        parses=100, fs=100,
        heavy_peaks=3, peak_n=11, peak_budget=10 ** 5, light_peaks=3,
        search_budgets=(10 ** 3, 10 ** 4, 3 * 10 ** 4), outside=20, solves=40, verifies=300,
        short_runs=300, short_fuel=10 ** 4, long_runs=3, bouncer=(1380, 1414),
        flip_fuel=2 * 10 ** 5, clocked_runs=100, composes=2, compose_len=4,
    ),
    "tiny": dict(
        sweep=20, random=10, tables=3, poly_words=3, eps0_k=2, eps0_heavy=1,
        fgh_k=(1, 2), families=2, clock_words=2,
        ladder=(10 ** 2, 10 ** 3), ww_ladder=(10 ** 2,), value_ladder=(10 ** 3,),
        small_evals=3, at_least=2, parses=5, fs=5,
        heavy_peaks=1, peak_n=4, peak_budget=10 ** 3, light_peaks=1,
        search_budgets=(10 ** 2, 10 ** 3), outside=3, solves=3, verifies=10,
        short_runs=10, short_fuel=10 ** 3, long_runs=1, bouncer=(20, 30),
        flip_fuel=10 ** 3, clocked_runs=5, composes=1, compose_len=2,
    ),
}


# --- shared helpers ----------------------------------------------------------

@lru_cache(maxsize=None)
def fgh_value(alpha, x, budget):
    """ref.fgh_value, remembered: the same levels recur in every round."""
    return ref.fgh_value(alpha, x, budget)


def random_rules(rng, lo=2, hi=6):
    """A valid random table as rule tuples: states 1..n, distinct sources."""
    n = rng.randint(lo, hi)
    sources = [(q, a) for q in range(1, n + 1) for a in "01_"]
    rng.shuffle(sources)
    count = rng.randint(1, len(sources))
    return tuple((q, a, rng.randint(0, n), rng.choice("01_"), rng.choice("LRN"))
                 for q, a in sources[:count])


def random_word(rng, lo, hi):
    return "".join(rng.choice("01") for _ in range(rng.randint(lo, hi)))


def ordinal_of(tm_ordinal):
    """tmlab's OrdinalCNF as a reference tuple."""
    return tuple((ordinal_of(e), c) for e, c in tm_ordinal.terms)


def alpha_of(tm_alpha):
    return tm_alpha if tm_alpha == "eps0" else ordinal_of(tm_alpha)


def random_ordinal(rng, depth=2):
    """A random ordinal below w^(w^w) in Cantor normal form."""
    if depth == 0 or rng.random() < 0.3:
        return ref.nat(rng.randint(0, 9))
    exps = set()
    for _ in range(rng.randint(1, 3)):
        exps.add(random_ordinal(rng, depth - 1))
    exps = sorted(exps, key=_sort_key, reverse=True)
    return tuple((e, rng.randint(1, 4)) for e in exps)


def _sort_key(a):
    return tuple((_sort_key(e), c) for e, c in a)


def random_limit(rng):
    while True:
        a = random_ordinal(rng)
        if a and a[-1][0] != ref.ZERO:
            return a


def norm(value):
    """A compact, deterministic stand-in for an answer, for the digest."""
    if isinstance(value, bool) or value is None:
        return value
    if isinstance(value, int):
        return value if value.bit_length() <= 128 else ("int", value.bit_length(), value & (2 ** 64 - 1))
    if isinstance(value, (str, float)):
        return value
    if isinstance(value, (tuple, list)):
        return tuple(norm(v) for v in value)
    if isinstance(value, BaseException):
        return ("raised", type(value).__name__)
    if dataclasses.is_dataclass(value):
        return (type(value).__name__,) + tuple(norm(getattr(value, f.name)) for f in dataclasses.fields(value))
    return repr(value)


class Workload:
    """Base: subclasses fill `make_round` and the `op_*` and `check_*` methods."""

    name = ""

    def __init__(self, T, size, scratch):
        self.T = T  # namespace of tmlab callables and classes
        self.p = SIZES[size]
        self.scratch = scratch  # directory for the run's registry file

    def rounds(self, seed, count):
        rng = random.Random("%s:%d" % (self.name, seed))
        return [self.make_round(rng, r) for r in range(count)]

    def warmup(self, seed):
        """A few operations of every kind, from a tiny round of their own."""
        rng = random.Random("%s:warmup:%d" % (self.name, seed))
        saved, self.p = self.p, SIZES["tiny"]
        try:
            ops = self.make_round(rng, 0)
        finally:
            self.p = saved
        return ops

    def start_run(self):
        """Per-run state; called before the timed loop."""

    def end_run(self):
        """Metrics read off the run's state; only search keeps a registry file."""
        return {"registry.file_bytes": 0}

    def execute(self, op):
        return getattr(self, "op_" + op[0])(*op[1:])

    def check(self, op, result):
        """None when the answer is right, else a one-line reason."""
        return getattr(self, "check_" + op[0])(result, *op[1:])

    def table(self, rules):
        T = self.T
        return T.MachineTable(tuple(T.Rule(*r) for r in rules))

    def is_trivial(self, m):
        return type(m) is self.T.MachineTable and m.rules == ()


# --- decode ------------------------------------------------------------------

class Decode(Workload):
    """decode_index over a mixed index stream, as `tm-decode` traffic."""

    name = "decode"

    def make_round(self, rng, r):
        p = self.p
        ops = []
        start = rng.randrange(0, 30000 - p["sweep"])
        ops += [("decode", i, ("any",)) for i in range(start, start + p["sweep"])]
        while len(ops) < p["sweep"] + p["random"]:
            i = rng.randrange(1 << 48)
            if self.bounded(ref.word(i)):
                ops.append(("decode", i, ("any",)))
        for _ in range(p["tables"]):
            rules = random_rules(rng)
            ops.append(("encode", self.table(rules), rules))
            ops.append(("decode", ref.position(ref.table_bits(rules)), ("table", rules)))
        crafted = []
        for _ in range(p["poly_words"]):
            rules = random_rules(rng)
            pw = rng.randint(0, 6)
            crafted.append((ref.TAG_SIGMA + ref.poly_spec_bits(pw) + ref.table_bits(rules), (2, 3),
                            ("sigma_poly", pw, rules)))
        fgh = [(a, k) for a in SMALL_ORDINALS.values() for k in p["fgh_k"]]
        fgh += [("eps0", k) for k in range(3)]
        for alpha, k in fgh:
            crafted.append(self.sigma_fgh(rng, alpha, k))
        for _ in range(p["families"]):
            alpha, n = rng.choice([(ref.nat(1), rng.randint(0, 60)), (ref.nat(2), rng.randint(0, 7)),
                                   (ref.OMEGA, rng.randint(0, 3)), (ref.nat(2), 13)])
            width = rng.randint(max(6, n.bit_length()), 16)
            bits = ref.family_bits(alpha, n, width)
            # a changed level or n can need seconds under the 10^6-call build budget
            crafted.append((bits, (3, len(bits) - len(ref.E_MARKER)), ("family", alpha, n, width)))
        for _ in range(p["clock_words"]):
            if rng.random() < 0.5:
                spec = ref.poly_spec_bits(rng.randint(0, 9))
            else:
                spec = ref.fgh_spec_bits(rng.choice(list(SMALL_ORDINALS.values())), rng.randint(0, 5), 8)
            crafted.append((ref.clock_word_bits(spec), (4, 20), ("clock",)))
        for bits, fields, expect in crafted:
            ops.append(("decode", ref.position(bits), expect))
            ops.append(("decode", ref.position(self.mutate(rng, bits, fields)), ("any",)))
        # The heavy eps0 words are mutated in their tag only: a flipped table
        # bit that left the table valid would add an eps0 decode to the round.
        heavy = [self.sigma_fgh(rng, "eps0", p["eps0_k"]) for _ in range(p["eps0_heavy"])]
        ops += [("decode", ref.position(bits), expect) for bits, _, expect in heavy]
        ops += [("decode", ref.position(self.mutate(rng, bits, (3, len(bits)))), ("any",))
                for bits, _, _ in heavy]
        rng.shuffle(ops)
        return ops

    @staticmethod
    def bounded(bits):
        """False for the random words whose decode cost has no desk bound: a
        family block (it always ends the word with E_MARKER) builds a table
        under a 10^6-call budget, and an eps0 clock of random k builds a
        k-high omega tower (index 133118694020816, k = 4533791592, exhausted
        memory).  The crafted words cover both kinds at chosen sizes."""
        if bits.endswith(ref.E_MARKER):
            return False
        if not bits.startswith(ref.TAG_SIGMA + "1") or len(bits) < 11:
            return True
        alpha_at = 11 + int(bits[3:11], 2)
        return not (alpha_at < len(bits) and bits[alpha_at] == "1")

    def sigma_fgh(self, rng, alpha, k):
        width = rng.randint(max(3, k.bit_length()), 12)
        rules = random_rules(rng) if rng.random() < 0.7 else ()
        bits = ref.TAG_SIGMA + ref.fgh_spec_bits(alpha, k, width) + ref.table_bits(rules)
        # width byte, k field and level-kind bit follow the tag and clock-kind bit
        return bits, (3, 12 + width), ("sigma_fgh", alpha, k, width, rules)

    @staticmethod
    def mutate(rng, bits, fields):
        """One-bit mutation outside fields[0]:fields[1], the kind bits and
        numeric fields: flipping one of those only names another clock kind,
        width, k or level, which the crafted words cover directly."""
        while True:
            i = rng.randrange(len(bits))
            if not fields[0] <= i < fields[1]:
                return bits[:i] + ("1" if bits[i] == "0" else "0") + bits[i + 1:]

    def op_decode(self, i, expect):
        return self.T.decode_index(i)

    def op_encode(self, table, rules):
        return self.T.encode_table(table)

    def check_encode(self, got, table, rules):
        if got != ref.position(ref.table_bits(rules)):
            return "encode_table differs from the packed table text"
        return None

    def check_decode(self, m, i, expect):
        T = self.T
        if not isinstance(m, (T.MachineTable, T.ClockedTable)):
            return "decode_index returned %s" % type(m).__name__
        kind = expect[0]
        bits = ref.word(i)
        if kind == "any":
            if isinstance(m, T.ClockedTable):
                return None if bits.startswith(ref.TAG_SIGMA) else "clocked pair from an untagged word"
            if bits.startswith("1"):
                ok = self.is_trivial(m) or bits.startswith(ref.TAG_FAMILY)
                return None if ok else "tagged word decoded to a plain table"
            rules = ref.parse_table_bits(bits)
            want = ref.canonical(rules) if rules is not None else ()
            return None if tuple(m.rules) == want else "plain table mismatch at %d" % i
        if kind == "table":
            return None if tuple(m.rules) == ref.canonical(expect[1]) else "table round trip failed"
        if kind == "clock":
            return None if self.is_trivial(m) else "clock word decoded to a machine"
        if kind == "sigma_poly":
            _, pw, rules = expect
            ok = (isinstance(m, T.ClockedTable) and type(m.clock) is T.PlainPoly and m.clock.p == pw
                  and tuple(m.machine.rules) == ref.canonical(rules))
            return None if ok else "poly sigma word mismatch"
        if kind == "sigma_fgh":
            _, alpha, k, width, rules = expect
            level = ref.tower(k) if alpha == "eps0" else alpha
            want = fgh_value(level, k, DECODE_EVAL_BUDGET)
            if want is None:
                return None if self.is_trivial(m) else "out-of-reach clock did not fall back"
            ok = (isinstance(m, T.ClockedTable) and m.clock.exponent == want[0] and m.clock.k == k
                  and m.clock.width == width and tuple(m.machine.rules) == ref.canonical(rules))
            return None if ok else "fgh sigma word mismatch"
        if kind == "family":
            _, alpha, n, width = expect
            want = fgh_value(alpha, n, FAMILY_EVAL_BUDGET)
            if want is None or want[0] > DESK_THRESHOLD_BOUND:
                return None if self.is_trivial(m) else "out-of-reach family did not fall back"
            ok = (getattr(m, "threshold", None) == want[0] and m.n == n and m.width == width
                  and alpha_of(m.alpha) == alpha)
            return None if ok else "family word mismatch"
        return "unknown expectation %r" % (kind,)


# --- hierarchy -----------------------------------------------------------------

class Hierarchy(Workload):
    """The calls behind `ord-eval`, `ord-fs` and `dominate`."""

    name = "hierarchy"

    DOMINATE = [
        ("fgh:w^w", "fgh:3", (0, 3)), ("fgh:2@poly:0,0,1", "fgh:2", (0, 6)),
        ("fgh:w", "table:0,2,8,24,64", (0, 4)), ("eps0", "fgh:2", (0, 2)),
        ("fgh:3", "fgh:2@poly:1,1", (0, 4)), ("table:0,1,4,9,16,25", "fgh:1", (0, 5)),
    ]

    def make_round(self, rng, r):
        p = self.p
        ops = []
        # overflow ladders: the evaluator's big-integer work grows with the
        # square of the budget; the value ladder completes inside every budget
        for alpha, x in ((rng.choice([SMALL_ORDINALS[k] for k in ("w+1", "w*2", "w^2")]), 3), (ref.OMEGA, 4)):
            ops += [("eval", alpha, x, b) for b in p["ladder"]]
        ops += [("eval", SMALL_ORDINALS["w^w"], 3, b) for b in p["ww_ladder"]]
        ops += [("eval", ref.nat(3), 5, b) for b in p["value_ladder"]]
        # levels whose value completes well inside every budget of the ladder
        done = [(ref.nat(4), 3), (ref.nat(3), 4), (ref.OMEGA, 3), (ref.tower(1), 2), (SMALL_ORDINALS["w+1"], 2)]
        ops += [("eval",) + rng.choice(done) + (b,) for b in p["value_ladder"]]
        for _ in range(p["small_evals"]):
            a = rng.choice(list(SMALL_ORDINALS.values()) + [ref.nat(0), ref.nat(5)])
            ops.append(("eval", a, rng.randint(0, 3), 10 ** 4))
        for _ in range(p["at_least"]):
            a = rng.choice([SMALL_ORDINALS["w^w"], SMALL_ORDINALS["w^2"], ref.nat(3), ref.OMEGA])
            ops.append(("at_least", a, 3, 1 << rng.randint(64, 8000), 10 ** 5))
        for f, g, window in rng.sample(self.DOMINATE, min(len(self.DOMINATE), 2 + p["at_least"] // 2)):
            ops.append(("dominate", f, g, window, 10 ** 4))
        for _ in range(p["parses"]):
            a = random_ordinal(rng)
            ops.append(("parse", ref.ord_text(a), a))
        for _ in range(p["fs"]):
            lam = random_limit(rng)
            ops.append(("fs", ref.ord_text(lam), rng.randint(0, 8), lam))
        rng.shuffle(ops)
        return [self.prepare(op) for op in ops]

    def prepare(self, op):
        """Ordinal inputs reach tmlab as text, parsed at generation time."""
        if op[0] in ("eval", "at_least"):
            return op + (self.T.ord_parse(ref.ord_text(op[1])),)
        if op[0] == "fs":
            return op + (self.T.ord_parse(op[1]),)
        if op[0] == "dominate":
            return op + (self.T.parse_fn_descriptor(op[1]), self.T.parse_fn_descriptor(op[2]))
        return op

    def op_eval(self, alpha, x, budget, tm_alpha):
        return self.T.fgh_eval(tm_alpha, x, budget)

    def check_eval(self, got, alpha, x, budget, tm_alpha):
        want = fgh_value(alpha, x, budget)
        if want is None:
            return None if type(got).__name__ == "Overflow" and got.budget == budget else "expected Overflow"
        ok = type(got).__name__ == "Value" and got.value == want[0] and got.cost == want[1]
        return None if ok else "F_%s(%d) differs from the reference" % (ref.ord_text(alpha), x)

    def op_at_least(self, alpha, x, threshold, budget, tm_alpha):
        return self.T.fgh_at_least(tm_alpha, x, threshold, budget)

    def check_at_least(self, got, alpha, x, threshold, budget, tm_alpha):
        want = ref.fgh_at_least(alpha, x, threshold, budget)
        if want is None:
            return None if got is self.T.UNKNOWN else "expected UNKNOWN"
        return None if got is want else "threshold certificate differs"

    def op_dominate(self, f, g, window, budget, f_desc, g_desc):
        return self.T.dominates_on_window(f_desc, g_desc, window, budget)

    def check_dominate(self, got, f, g, window, budget, f_desc, g_desc):
        want = ("Holds",)
        for x in range(window[0], window[1] + 1):
            gv = descriptor_value(g, x, budget)
            if gv is None:
                want = ("Unknown", x)
                break
            ok = descriptor_at_least(f, x, gv, budget)
            if ok is None:
                want = ("Unknown", x)
                break
            if not ok:
                want = ("FailsAt", x)
                break
        return None if norm(got) == want else "domination certificate differs"

    def op_parse(self, text, a):
        return self.T.ord_parse(text)

    def check_parse(self, got, text, a):
        return None if ordinal_of(got) == a else "ord_parse(%r) differs" % text

    def op_fs(self, text, x, lam, tm_lam):
        return self.T.fundamental_sequence(tm_lam, x)

    def check_fs(self, got, text, x, lam, tm_lam):
        return None if ordinal_of(got) == ref.fundamental(lam, x) else "%s[%d] differs" % (text, x)


def _descriptor(text, x):
    """(level, argument) of a descriptor at x, or the table value."""
    poly = None
    if "@poly:" in text:
        text, poly = text.split("@poly:")
        poly = [int(c) for c in poly.split(",")]
    arg = sum(c * x ** i for i, c in enumerate(poly)) if poly else x
    if text == "eps0":
        return ref.tower(arg), arg
    return _parse_small(text[len("fgh:"):]), arg


def _parse_small(text):
    for name, a in SMALL_ORDINALS.items():
        if name == text:
            return a
    return ref.nat(int(text))


def descriptor_value(text, x, budget):
    if text.startswith("table:"):
        values = [int(v) for v in text[len("table:"):].split(",")]
        return values[x] if x < len(values) else None
    level, arg = _descriptor(text, x)
    got = fgh_value(level, arg, budget)
    return None if got is None else got[0]


def descriptor_at_least(text, x, threshold, budget):
    if text.startswith("table:"):
        values = [int(v) for v in text[len("table:"):].split(",")]
        return values[x] >= threshold if x < len(values) else None
    level, arg = _descriptor(text, x)
    return ref.fgh_at_least(level, arg, threshold, budget)


# --- search ------------------------------------------------------------------

class Search(Workload):
    """The calls behind `qfam-peaks`, `fna-search` and `fprime`."""

    name = "search"

    def start_run(self):
        self.registry = self.T.FRegistry(self.scratch / "fregistry.txt")
        self.registry.path.unlink(missing_ok=True)
        self.T.registry_clear()

    def end_run(self):
        path = self.registry.path
        return {"registry.file_bytes": path.stat().st_size if path.exists() else 0}

    def make_round(self, rng, r):
        p = self.p
        ops = []
        members = [(ref.nat(1), rng.randint(1800, 2047)), (ref.nat(2), rng.randint(6, 9)),
                   (ref.nat(2), rng.randint(6, 9)), (ref.OMEGA, rng.randint(1, 3))]
        if p is SIZES["tiny"]:
            members = [(ref.nat(1), rng.randint(5, 20)), (ref.OMEGA, rng.randint(1, 3))]
        built = []
        for alpha, n in members:
            width = rng.randint(max(8, n.bit_length()), 24)
            ops.append(("build", alpha, n, width))
            built.append((alpha, n, width))
        for _ in range(p["heavy_peaks"]):
            ops.append(("peak", ref.nat(2), p["peak_n"], rng.randint(12, 24), p["peak_budget"]))
        light = [(ref.nat(1), rng.randint(20, 200)), (ref.OMEGA, 3), (ref.nat(2), 5)]
        for alpha, n in light[:p["light_peaks"]]:
            ops.append(("peak", alpha, n, rng.randint(8, 24), p["search_budgets"][-1]))
        # each member built this round is searched once plainly and once
        # through the guard, with a budget of its own
        searches = []
        for i, member in enumerate(built):
            budgets = p["search_budgets"]
            searches.append(("search", member, budgets[i % len(budgets)]))
            searches.append(("fprime", member, budgets[(i + 1) % len(budgets)]))
        for _ in range(p["outside"]):
            bits = "0" + random_word(rng, 20, 60)
            searches.append(("fprime_outside", ref.position(bits), 10 ** 4))
        for _ in range(p["solves"]):
            if rng.random() < 0.5:
                x = rng.randrange(1 << 12)
            else:
                x = ref.position(encode_cnf(random_cnf(rng)))
            searches.append(("solve", x))
        for _ in range(p["verifies"]):
            if rng.random() < 0.5:
                z = rng.randrange(10 ** 7)
            else:
                x = ref.position(encode_cnf(random_cnf(rng)))
                z = ref.pair(x, ref.position(ref.least_solution(x)))
            searches.append(("verify", z))
        rng.shuffle(searches)
        return ops + searches

    def member_index(self, member):
        return ref.position(ref.family_bits(*member))

    def tm_alpha(self, alpha):
        return self.T.ord_parse(ref.ord_text(alpha))

    def op_build(self, alpha, n, width):
        """What `qfam-build` reports; the table itself is not kept."""
        table, index, spec = self.T.build_Q(self.tm_alpha(alpha), n, width, registry=self.registry)
        return table.threshold, len(table.rules), index, spec

    def check_build(self, got, alpha, n, width):
        threshold, rules, index, spec = got
        want = fgh_value(alpha, n, FAMILY_EVAL_BUDGET)[0]
        ok = (threshold == want == spec.threshold and index == self.member_index((alpha, n, width))
              and rules > 0)
        return None if ok else "build_Q(%s, %d) differs" % (ref.ord_text(alpha), n)

    def op_peak(self, alpha, n, width, budget):
        return self.T.peak_probe(self.tm_alpha(alpha), n, width, budget, registry=self.registry)

    def check_peak(self, got, alpha, n, width, budget):
        threshold = fgh_value(alpha, n, FAMILY_EVAL_BUDGET)[0]
        sigma = ref.position(ref.TAG_SIGMA + ref.fgh_spec_bits(alpha, n, width) + ref.family_bits(alpha, n, width))
        if got.threshold != threshold or got.sigma_index != sigma:
            return "peak_probe member differs"
        bad = self.check_outcome(got.outcome, threshold, budget)
        if bad:
            return bad
        first = ref.unpair(got.outcome.witness)[0] if type(got.outcome).__name__ == "Found" else None
        return None if got.first_coord == first else "first coordinate differs"

    def check_outcome(self, outcome, threshold, budget):
        """A Found witness must survive the truth-table re-check against the
        family member's answers; Exhausted must carry the budget."""
        kind = type(outcome).__name__
        if kind == "Exhausted":
            return None if outcome.budget == budget else "wrong exhausted budget"
        if kind != "Found" or outcome.value != outcome.witness or outcome.witness >= budget:
            return "malformed search outcome"
        x = ref.unpair(outcome.witness)[0]
        answer = ref.least_solution(x) if x <= threshold else "0"
        return None if ref.is_counterexample(outcome.witness, answer) else "witness fails the truth table"

    def op_search(self, member, budget):
        return self.T.f_neg_A(self.member_index(member), budget)

    def check_search(self, got, member, budget):
        threshold = fgh_value(member[0], member[1], FAMILY_EVAL_BUDGET)[0]
        return self.check_outcome(got, threshold, budget)

    def op_fprime(self, member, budget):
        return self.T.f_prime(self.member_index(member), budget, file_registry=self.registry)

    check_fprime = check_search

    def op_fprime_outside(self, index, budget):
        return self.T.f_prime(index, budget, file_registry=self.registry)

    def check_fprime_outside(self, got, index, budget):
        ok = type(got).__name__ == "Found" and (got.witness, got.value) == (0, 0)
        return None if ok else "unregistered index was searched"

    def op_solve(self, x):
        return self.T.solve_E(x)

    def check_solve(self, got, x):
        return None if got == ref.position(ref.least_solution(x)) else "solve_E(%d) differs" % x

    def op_verify(self, z):
        return self.T.verify(z)

    def check_verify(self, got, z):
        return None if got == ref.verify(z) else "verify(%d) differs" % z


def random_cnf(rng):
    n = rng.randint(1, 8)
    clauses = tuple(tuple((rng.randint(1, n), rng.random() < 0.5) for _ in range(rng.randint(1, 3)))
                    for _ in range(rng.randint(1, 5)))
    top = max(v for cl in clauses for v, _ in cl)
    return clauses, top


def encode_cnf(formula):
    """CNF word: 0/00 before positive/negative literals, 000/0000 at clause
    breaks, unary variable indices, one trailing zero."""
    clauses, _ = formula
    out = []
    for ci, clause in enumerate(clauses):
        for li, (v, positive) in enumerate(clause):
            sep = 1 if positive else 2
            if ci and not li:
                sep += 2
            out.append("0" * sep + "1" * v)
    return "".join(out) + "0"


# --- run -----------------------------------------------------------------------

# Walks to the right end of a block of 1s, erases it, walks back, erases the
# left end, and so on: about n^2/2 steps on 1^n, ending on a blank tape.
BOUNCER = (
    (1, "1", 2, "_", "R"), (1, "_", 0, "_", "N"),
    (2, "1", 2, "1", "R"), (2, "_", 3, "_", "L"),
    (3, "1", 4, "_", "L"), (3, "_", 0, "_", "N"),
    (4, "1", 4, "1", "L"), (4, "_", 1, "_", "R"),
)
# Flips the cell under the head forever: runs out of any fuel on one cell.
FLIPPER = ((1, "0", 1, "1", "N"), (1, "1", 1, "0", "N"), (1, "_", 1, "0", "N"))


def bouncer_result(n):
    """(output, steps) of BOUNCER on 1^n in closed form: the pass over a block
    of m ones costs m + 1 steps (one more to the blank beyond), and a final
    step halts on the empty block."""
    steps = sum(m + 1 for m in range(1, n + 1)) + 1
    return "", steps


class Run(Workload):
    """The calls behind `tm-run` and `clock-run`."""

    name = "run"

    def make_round(self, rng, r):
        p = self.p
        ops = []
        for _ in range(p["short_runs"]):
            rules = random_rules(rng)
            ops.append(("run", self.table(rules), random_word(rng, 0, 12), p["short_fuel"], rules))
        for _ in range(p["long_runs"]):
            n = rng.randint(*p["bouncer"])
            ops.append(("run", self.table(BOUNCER), "1" * n, DEFAULT_FUEL * 2, ("bouncer", n)))
        ops.append(("run", self.table(FLIPPER), random_word(rng, 0, 8), p["flip_fuel"], ("flipper",)))
        for _ in range(p["clocked_runs"]):
            rules = random_rules(rng)
            e = rng.randint(1, 4)
            ops.append(("clocked", self.clocked(rules, e), random_word(rng, 0, 8), rules, e))
        for _ in range(p["composes"]):
            stages = [(random_rules(rng), rng.randint(1, 3)) for _ in range(2)]
            ops.append(("compose", [self.clocked(*s) for s in stages], p["compose_len"], stages))
        rng.shuffle(ops)
        return ops

    def clocked(self, rules, e):
        return self.T.ClockedMachine(self.table(rules), self.T.PlainPoly(e))

    def op_run(self, table, w, fuel, model):
        return self.T.run(table, w, fuel)

    def check_run(self, got, table, w, fuel, model):
        if model[0] == "bouncer":
            halted, (out, steps) = True, bouncer_result(model[1])
        elif model[0] == "flipper":
            halted, out, steps = False, None, fuel
        else:
            halted, out, steps = ref.tm_run(model, w, fuel)
        if halted:
            ok = type(got).__name__ == "Halted" and (got.output, got.steps) == (out, steps)
        else:
            ok = type(got).__name__ == "OutOfFuel" and got.steps == fuel
        return None if ok else "run differs from the reference interpreter"

    def op_clocked(self, machine, w, rules, e):
        return self.T.clocked_run(machine, w)

    def check_clocked(self, got, machine, w, rules, e):
        return None if tuple(got) == ref.clocked(rules, e, w) else "clocked run differs"

    def op_compose(self, machines, length, stages):
        T = self.T
        both = T.compose(*machines)
        return both.clock.exponent, [T.clocked_run(both, w) for w in all_words(length)]

    def check_compose(self, got, machines, length, stages):
        """The compose law: the composite runs stage two on stage one's output,
        its steps add up, and its clock (E1+2)(E2+2) covers both stages."""
        exponent, results = got
        (r1, e1), (r2, e2) = stages
        if exponent != (e1 + 2) * (e2 + 2):
            return "composed clock exponent differs"
        for w, res in zip(all_words(length), results):
            o1, s1, c1 = ref.clocked(r1, e1, w)
            o2, s2, c2 = ref.clocked(r2, e2, o1)
            if tuple(res) != (o2, s1 + s2, c1 or c2):
                return "composite differs from running the stages on %r" % w
            if s1 + s2 > len(w) ** exponent + exponent:
                return "composed clock does not cover the stages on %r" % w
        return None


def all_words(length):
    return [ref.word(i) for i in range(2 ** (length + 1) - 1)]


WORKLOADS = {w.name: w for w in (Decode, Hierarchy, Search, Run)}
