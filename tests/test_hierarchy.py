"""Fast-growing hierarchy evaluation, certificates, and window domination."""

from functools import cmp_to_key

import pytest
from hypothesis import given, settings, strategies as st

from tmlab.hierarchy import (
    EPS0,
    UNKNOWN,
    FailsAt,
    FghFn,
    Holds,
    Overflow,
    TableFn,
    Unknown,
    Value,
    dominates_on_window,
    fgh_at_least,
    fgh_eval,
    fn_at_least,
    fn_eval,
    WINDOW_BITS,
    WINDOW_POINTS,
    parse_fn_descriptor,
    poly_eval,
)
from tmlab.ordinals import (ONE, ZERO, OrdinalCNF, ParseError, clock_index_ordinal, from_nat,
                            fundamental_sequence, is_limit, ord_compare, ord_format, ord_parse,
                            predecessor)

BIG = 10 ** 6


def _nat(k):
    return ord_parse(str(k))


class _OutOfCalls(Exception):
    pass


def _counted_fgh(a, x, left, cap):
    """(F_a(x), calls left) by the plain recursion, in which every level, F_1
    included, takes a call of its own; _OutOfCalls when no call is left.
    With a cap an iteration stops at its first value >= cap."""
    if left <= 0:
        raise _OutOfCalls()
    left -= 1
    if a == from_nat(0):
        return 0, left
    if a == from_nat(1):
        return 2 * x, left
    if is_limit(a):
        return _counted_fgh(fundamental_sequence(a, x), x, left, cap)
    b, v = predecessor(a), 1
    for _ in range(x):
        v, left = _counted_fgh(b, v, left, cap)
        if cap is not None and v >= cap:
            break
    return v, left


def _counted_run(a, x: int, budget: int, cap=None):
    """(F_a(x), calls used) by the counted recursion, or None past budget.
    Like the evaluator, it counts stack exhaustion as running out."""
    try:
        v, left = _counted_fgh(a, x, budget, cap)
    except (_OutOfCalls, RecursionError):
        return None
    return v, budget - left


def _reference_fgh(alpha_text: str, x: int) -> int:
    """Independent recurrence iterator used as the value oracle."""
    return _counted_run(ord_parse(alpha_text), x, BIG)[0]


def test_base_clauses_match_reference():
    for x in range(11):
        assert fgh_eval(_nat(0), x, BIG) == Value(0, 1)
        got = fgh_eval(_nat(1), x, BIG)
        assert isinstance(got, Value) and got.value == 2 * x == _reference_fgh("1", x)


def test_level_two_is_doubling_iterated():
    for x in range(11):
        got = fgh_eval(_nat(2), x, BIG)
        assert isinstance(got, Value) and got.value == 2 ** x == _reference_fgh("2", x)


@pytest.mark.parametrize("alpha,x,value", [
    ("3", 2, 4), ("3", 3, 16), ("w", 2, 4), ("w", 3, 16),
    ("2", 0, 1), ("w+1", 1, 2), ("w*2", 2, 4), ("w^w", 2, 4),
])
def test_value_pins_match_reference(alpha, x, value):
    got = fgh_eval(ord_parse(alpha), x, BIG)
    assert isinstance(got, Value) and got.value == value
    assert _reference_fgh(alpha, x) == value


def test_everything_at_two_is_four():
    # F_beta(2) = 4 for every beta >= 2: the hierarchy cannot separate
    # levels at argument 2, which is what sinks the x=2 leg of the
    # inequality acceptance probe.
    for alpha in ["2", "3", "6", "w", "w+5", "w^2", "w^w", "w^w^w"]:
        assert fgh_eval(ord_parse(alpha), 2, BIG).value == 4
        assert fgh_eval(ord_parse(alpha), 1, BIG).value == 2


def test_cost_accounting_pin():
    # F_2(3): one call plus doubling three times from 1
    assert fgh_eval(_nat(2), 3, BIG) == Value(8, 4)


def test_overflow_on_tiny_budget():
    got = fgh_eval(_nat(3), 10, 50)
    assert got == Overflow(50)


def test_overflow_even_with_generous_budget_on_towering_values():
    got = fgh_eval(_nat(3), 8, 10 ** 4)
    assert got == Overflow(10 ** 4)


def test_deep_finite_levels_stay_total():
    # F_k(2) = 4 costs k(k+1)/2 calls, 12,502,500 for k = 5000, more than the
    # budget of 10^6: Overflow is the budget's own answer
    assert fgh_eval(_nat(5000), 2, BIG) == Overflow(BIG)
    assert fgh_at_least(_nat(5000), 2, 5, BIG) is UNKNOWN


def test_negative_arguments_are_value_errors():
    with pytest.raises(ValueError):
        fgh_eval(_nat(2), -5, 100)
    with pytest.raises(ValueError):
        fgh_eval(_nat(1), -3, 100)
    with pytest.raises(ValueError):
        fgh_at_least(_nat(2), -5, 1, 100)
    with pytest.raises(ValueError):
        fgh_at_least(_nat(2), -5, 0, 100)  # before the threshold shortcut
    with pytest.raises(ValueError):
        fgh_eval(EPS0, -1, 100)


@st.composite
def ordinals(draw, depth):
    """An ordinal below epsilon_0 whose CNF nests at most depth deep."""
    if depth == 0 or draw(st.booleans()):
        return from_nat(draw(st.integers(0, 3)))
    exponents = []
    for e in draw(st.lists(ordinals(depth - 1), min_size=1, max_size=2)):
        if all(ord_compare(e, f) != 0 for f in exponents):
            exponents.append(e)
    exponents.sort(key=cmp_to_key(ord_compare), reverse=True)
    return OrdinalCNF(tuple((e, draw(st.integers(1, 2))) for e in exponents))


def _depth(alpha) -> int:
    """CNF nesting height with finite ordinals at 0 and w at 1, by an explicit
    stack rather than recursion."""
    height, stack = 0, [(alpha, 0)]
    while stack:
        a, above = stack.pop()
        for e, _ in a.terms:
            if e.terms:  # a term w^e with e >= 1 nests one level deeper
                height = max(height, above + 1)
                stack.append((e, above + 1))
    return height


@settings(deadline=None, max_examples=200)
@given(ordinals(6), st.integers(1, 4), st.integers(0, 200))
def test_depth_lemma_and_value_size(alpha, x, budget):
    got = fgh_eval(alpha, x, budget)
    depth = _depth(alpha)
    if budget < depth + 1:
        assert got == Overflow(budget)
    if isinstance(got, Value):
        assert got.cost >= depth + 1
        assert got.value.bit_length() <= max(x, 1).bit_length() + got.cost


@settings(deadline=None, max_examples=100)
@given(ordinals(3), st.integers(0, 4), st.integers(0, 3000), st.integers(1, 10 ** 6))
def test_at_least_agrees_with_eval(alpha, x, budget, threshold):
    """At the exact value's own cost the certificate decides every threshold,
    and a False is only ever an exact value below the threshold.  Levels nest
    3 deep, not 4: fgh_eval(w^w^(w^(w*2)+1), 3, 2207) alone takes 0.8 s on a
    2-core Xeon and answers Overflow at the interpreter's recursion limit, as
    every evaluator call re-validates the deep ordinals it builds."""
    got = fgh_eval(alpha, x, budget)
    if isinstance(got, Value):
        v, cost = got.value, got.cost
        for t in (1, v, v + 1, 2 * v + 1):
            assert fgh_at_least(alpha, x, t, cost) == (v >= t), t
    for t in (threshold,) + ((1, got.value + 1) if isinstance(got, Value) else ()):
        if fgh_at_least(alpha, x, t, budget) is False:
            assert isinstance(got, Value) and got.value < t


def _fresh(a):
    """A copy of a that shares no object with it, so that no subterm is the
    module's ZERO or ONE."""
    return OrdinalCNF(tuple((_fresh(e), c) for e, c in a.terms))


def _subterms(a):
    yield a
    for e, _ in a.terms:
        yield from _subterms(e)


@settings(deadline=None, max_examples=100)
@given(ordinals(3), st.integers(0, 4), st.integers(0, 3000),
       st.one_of(st.none(), st.integers(1, 40), st.integers(1, 1 << 40)))
def test_shape_tests_match_counted_recursion(alpha, x, budget, cap):
    """The evaluator reads levels by the shape of their terms and runs F_2's
    doublings in its own loop; values, costs and capped answers stay those of
    the plain recursion, on levels that share no object with the constants."""
    level = _fresh(alpha)
    assert not any(t is ZERO or t is ONE for t in _subterms(level))
    want = _counted_run(level, x, budget)
    assert fgh_eval(level, x, budget) == (Overflow(budget) if want is None else Value(*want))
    if cap is not None:
        capped = _counted_run(level, x, budget, cap)
        assert fgh_at_least(level, x, cap, budget) is (UNKNOWN if capped is None
                                                       else capped[0] >= cap)


def test_level_two_charges_one_call_per_doubling():
    # F_2(x) = 2^x costs its own call plus one per doubling: x + 1 in all
    for x in range(21):
        assert fgh_eval(_nat(2), x, x) == Overflow(x)
        assert fgh_eval(_nat(2), x, x + 1) == Value(2 ** x, x + 1)
        assert fgh_at_least(_nat(2), x, 2 ** x, x) is UNKNOWN
        assert fgh_at_least(_nat(2), x, 2 ** x, x + 1) is True


def test_depth_of_known_levels():
    assert [_depth(ord_parse(t)) for t in ("0", "5", "w", "w*2+3", "w^w", "w^(w^w)+w^2")] \
        == [0, 0, 1, 1, 2, 3]
    assert _depth(clock_index_ordinal(5)) == 6
    assert fgh_eval(ord_parse("w^w^w"), 1, BIG) == Value(2, 4)  # the lemma is tight


def test_at_least_exact_false():
    assert fgh_at_least(_nat(1), 3, 10, BIG) is False  # F_1(3) = 6


def test_at_least_exact_true():
    assert fgh_at_least(_nat(2), 5, 32, BIG) is True


def test_at_least_trivial_thresholds():
    assert fgh_at_least(_nat(0), 5, 0, 10) is True
    assert fgh_at_least(ord_parse("w"), 3, -2, 10) is True


def test_at_least_early_exit_on_huge_value():
    # F_6(3) is far beyond materialization, yet the certificate is cheap
    assert fgh_at_least(_nat(6), 3, 10 ** 6, BIG) is True
    assert fgh_at_least(ord_parse("w^w"), 4, 10 ** 12, BIG) is True


def test_at_least_small_argument_is_exactly_decided():
    # F_6(2) = 4: the certificate honestly refuses thresholds above it
    assert fgh_at_least(_nat(6), 2, 10, BIG) is False
    assert fgh_at_least(_nat(6), 2, 4, BIG) is True


def test_at_least_unknown_when_budget_dies():
    got = fgh_at_least(_nat(3), 100, 10 ** 80, 5)
    assert got is UNKNOWN


def test_poly_eval():
    assert poly_eval((1, 2, 3), 2) == 1 + 4 + 12
    assert poly_eval((0, 0, 1), 5) == 25


def _format_descriptor(d) -> str:
    """Oracle for the descriptor grammar: the text a descriptor was read from."""
    if isinstance(d, TableFn):
        return "table:" + ",".join(map(str, d.values))
    level = EPS0 if d.alpha == EPS0 else "fgh:" + ord_format(d.alpha)
    return level + ("@poly:" + ",".join(map(str, d.poly)) if d.poly else "")


@pytest.mark.parametrize("text", [
    "fgh:w^w", "fgh:3@poly:1,2", "eps0", "eps0@poly:0,2", "table:0,5,10",
])
def test_descriptor_roundtrip(text):
    assert _format_descriptor(parse_fn_descriptor(text)) == text


def test_descriptor_rejects_garbage():
    for bad in ["", "fgh:", "poly:1", "table:", "fgh:w@poly:", "table:0,-5",
                "table:\u0663,4", "table:1_0", "table:+3", "fgh:1@poly:\u0663", "fgh:1@poly:1_0",
                "fgh:\u0663"]:
        with pytest.raises(ValueError):
            parse_fn_descriptor(bad)


def test_descriptor_level_grammar_pins():
    # eps0 is a bare descriptor; after "fgh:" only ordinal text is a level
    for text in ["eps0", "eps0@poly:0,1", "fgh:2@poly:0,1"]:
        assert _format_descriptor(parse_fn_descriptor(text)) == text
    assert fn_eval(parse_fn_descriptor("eps0@poly:0,1"), 2, BIG) == 4
    assert fn_eval(parse_fn_descriptor("fgh:2@poly:0,1"), 3, BIG) == 8  # 2^3
    for bad, kind, message in [
        ("fgh:eps0", ParseError, "expected ordinal at 0 in 'eps0'"),
        ("eps0@x", ValueError, "unknown function descriptor 'eps0@x'"),
        ("fgh:2@", ValueError, "expected poly:c0,c1,... in ''"),
    ]:
        with pytest.raises(kind) as info:
            parse_fn_descriptor(bad)
        assert str(info.value) == message


def test_fn_eval_variants():
    assert fn_eval(TableFn((4, 7, 9)), 1, BIG) == 7
    assert fn_eval(TableFn((4,)), 3, BIG) is None
    assert fn_eval(FghFn(_nat(2)), 4, BIG) == 16
    assert fn_eval(FghFn(_nat(1), poly=(0, 0, 1)), 3, BIG) == 18  # F_1(3^2)
    assert fn_eval(FghFn(_nat(3)), 8, 10 ** 4) is None  # overflow
    assert fn_eval(FghFn(EPS0), 2, BIG) == 4  # diagonal at 2, like every level >= 2


def test_eps0_depth_shortcut_matches_plain_evaluation():
    # for k >= 1 and budget < k + 2 the eps0 level answers without building
    # the tower; the plain evaluation of that tower must agree everywhere
    for k in range(0, 7):
        tower = clock_index_ordinal(k)
        for budget in range(0, 11):
            assert fgh_eval(EPS0, k, budget) == fgh_eval(tower, k, budget)
            assert fn_eval(FghFn(EPS0), k, budget) == fn_eval(FghFn(tower), k, budget)
            for threshold in (0, 1, 2, 3, 5, 100):
                assert (fgh_at_least(EPS0, k, threshold, budget)
                        is fgh_at_least(tower, k, threshold, budget))
                assert (fn_at_least(FghFn(EPS0), k, threshold, budget)
                        is fn_at_least(FghFn(tower), k, threshold, budget))
    # the bound is tight at k = 1: three calls settle it, two do not
    assert fgh_eval(EPS0, 1, 3) == Value(2, 3)
    assert fgh_eval(EPS0, 1, 2) == Overflow(2)


def test_eps0_level_beyond_budget_builds_no_tower():
    # a tower this tall would not fit in memory; the depth lemma answers first
    k = 4_533_791_592
    assert fgh_eval(EPS0, k, 10 ** 4) == Overflow(10 ** 4)
    assert fgh_at_least(EPS0, k, 5, 10 ** 4) is UNKNOWN
    assert fgh_at_least(EPS0, k, 0, 10 ** 4) is True
    assert fn_eval(FghFn(EPS0), k, 10 ** 4) is None


def test_fn_at_least_variants():
    assert fn_at_least(TableFn((4, 7)), 1, 7, BIG) is True
    assert fn_at_least(TableFn((4, 7)), 1, 8, BIG) is False
    assert fn_at_least(FghFn(_nat(6)), 3, 10 ** 9, BIG) is True
    assert fn_at_least(FghFn(_nat(3)), 100, 10 ** 80, 5) is UNKNOWN


def test_dominates_holds():
    got = dominates_on_window(parse_fn_descriptor("fgh:2"),
                              parse_fn_descriptor("fgh:1"), (1, 10), BIG)
    assert got == Holds()


def test_dominates_fails_at():
    got = dominates_on_window(parse_fn_descriptor("fgh:1"),
                              parse_fn_descriptor("fgh:2"), (1, 10), BIG)
    assert got == FailsAt(3)  # 2x >= 2^x last holds at x = 2


def test_dominates_squared_argument_window():
    # F_6 vs F_1(x^2): fails at x = 2 (4 < 8), holds from x = 3 on
    f6 = parse_fn_descriptor("fgh:6")
    g = parse_fn_descriptor("fgh:1@poly:0,0,1")
    assert dominates_on_window(f6, g, (2, 4), BIG) == FailsAt(2)
    assert dominates_on_window(f6, g, (3, 4), BIG) == Holds()


def test_dominates_unknown_when_g_unevaluable():
    got = dominates_on_window(parse_fn_descriptor("fgh:2"),
                              parse_fn_descriptor("fgh:3"), (8, 9), 10 ** 4)
    assert got == Unknown(8)  # F_3(8) cannot be materialized for comparison


def test_dominates_window_length_bound():
    f = parse_fn_descriptor("table:0")
    # table values run out at x = 1, so a long window answers at once
    assert dominates_on_window(f, f, (0, WINDOW_POINTS - 1), BIG) == Unknown(1)
    for window in [(0, WINDOW_POINTS), (5, 5 + WINDOW_POINTS), (0, 10 ** 11)]:
        with pytest.raises(ValueError, match="has more than %d points" % WINDOW_POINTS):
            dominates_on_window(f, f, window, BIG)


def test_dominates_window_work_bound():
    # F_2(x) = 2^x has x + 1 bits, so the g values over [0, x] have
    # (x + 1)(x + 2) / 2 bits in all: 32,640 at x = 254, 32,896 at x = 255
    assert WINDOW_BITS == 1 << 15
    f2 = parse_fn_descriptor("fgh:2")
    assert dominates_on_window(f2, f2, (0, 254), 10 ** 4) == Holds()
    assert dominates_on_window(f2, f2, (0, WINDOW_POINTS - 1), 10 ** 4) == Unknown(255)
    # the bound counts every kind of g value, from where the window starts
    big = TableFn((0, 0, 1 << WINDOW_BITS))
    assert dominates_on_window(big, big, (1, 2), BIG) == Unknown(2)
    assert dominates_on_window(big, TableFn((0, 0, 1 << (WINDOW_BITS - 1))), (1, 2), BIG) \
        == Holds()


def test_dominates_table_window():
    f = parse_fn_descriptor("table:0,2,4,6,8")
    g = parse_fn_descriptor("table:0,1,2,3,4")
    assert dominates_on_window(f, g, (0, 4), BIG) == Holds()


def test_dominates_one_point_window():
    # lo == hi is a window of one point, judged like any other
    f1, f2 = parse_fn_descriptor("fgh:1"), parse_fn_descriptor("fgh:2")
    assert dominates_on_window(f2, f1, (3, 3), BIG) == Holds()
    assert dominates_on_window(f1, f2, (3, 3), BIG) == FailsAt(3)
