import math
from fractions import Fraction as F
from itertools import repeat

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from piercelab import arith, rules
from piercelab.arith import DomainError, Enclosure, GuardExceededError, log2_enclosure
from piercelab.constructions import divergent_tail_rule
from piercelab.exponent import Verdict, classify_divergence, reciprocal_power_sum
from piercelab.pierce import validate_prefix
from piercelab.rules import (
    BitPerturbedRule,
    LinearRule,
    PowerFloorRule,
)
from piercelab.space import PierceSeq, expansion_value

PATTERN = (0, 1, 1, 0, 1, 0, 1)

# id -> (rule, whether tail log enclosures come from the materialised floor)
CASES = {
    "power-1/2": (PowerFloorRule((2,), F(1, 2)), False),  # p == 1: scaled log2(b)
    "power-2/3-small": (PowerFloorRule((2,), F(2, 3)), True),  # exact floor
    "power-3/5-small": (PowerFloorRule((2,), F(3, 5)), True),  # exact floor, odd root
    "power-2/3-large": (PowerFloorRule((2**18,), F(2, 3)), False),  # 3/b slack
    "tower": (PowerFloorRule((2,), 0), False),
    "linear": (LinearRule(3), True),
    "binary-2/3": (BitPerturbedRule(F(2, 3), PATTERN), True),
    "binary-0": (BitPerturbedRule(F(0), PATTERN), False),
}

S_GRID = (F(1, 10), F(1, 3), F(1, 2), F(2, 3), F(3, 4), F(9, 10), F(1))


def prefix_of(rule) -> tuple[int, ...]:
    return tuple(rule.describe().get("prefix", ()))


def indices(rule) -> list[int]:
    m = len(prefix_of(rule))
    return list(range(1, m + 41)) + [m + 100, m + 1000]


@pytest.fixture(params=sorted(CASES))
def case(request):
    return CASES[request.param]


def test_terms_strictly_increase(case):
    rule, _ = case
    ks = indices(rule)
    terms = [rule.term(k) for k in ks]
    assert all(a < b for a, b in zip(terms, terms[1:]))
    prefix = prefix_of(rule)
    assert rule.terms(len(prefix)) == prefix


BOUND = rules._EXACT_LOG_BASE_BOUND

PREFIXES = st.lists(st.integers(1, 200), max_size=5, unique=True).map(lambda ds: tuple(sorted(ds)))
ALPHAS = st.integers(1, 8).flatmap(lambda q: st.integers(1, q).map(lambda p: F(p, q)))  # >= 1/8
DRAWN_RULES = st.one_of(
    st.builds(PowerFloorRule, PREFIXES, ALPHAS),
    st.builds(PowerFloorRule, PREFIXES, st.just(F(0))),
    st.builds(LinearRule, st.integers(0, 10)),
    st.builds(
        BitPerturbedRule,
        st.one_of(st.just(F(0)), ALPHAS),
        st.lists(st.integers(0, 1), max_size=16).map(tuple),
    ),
)


def seam_indices(rule) -> list[int]:
    """The first index past the prefix or bit pattern, and about where bases reach 2**18."""
    if isinstance(rule, BitPerturbedRule):
        return [len(rule.bits) + 1, BOUND // 2]  # b_k = 2k - 1 + eps_k
    return [len(prefix_of(rule)) + 1, BOUND - rule._bases(0, 0)[0]]  # b_k = k + b_0


@given(DRAWN_RULES, st.data())
@settings(max_examples=60, deadline=None)
def test_drawn_terms_strictly_increase(rule, data):
    # Construction checks only the prefix, and no reader checks the tail:
    # its increase, seams included, rests on the proof in the DigitRule
    # docstring, and this test pins it.
    prefix = prefix_of(rule)
    terms = rule.terms(len(prefix) + 64)
    assert terms[:len(prefix)] == prefix
    assert validate_prefix(terms) == terms
    # 64 terms from a drawn start with the term before them, also across
    # the seams; tower digits pass the digit guard long before 2**18
    top = BOUND + 64 if rule.certificate else 1024
    seams = [k for k in seam_indices(rule) if k <= top]
    near_seam = st.sampled_from(seams).flatmap(lambda k: st.integers(max(2, k - 63), max(2, k)))
    lo = data.draw(st.integers(2, top) | near_seam)
    run = (rule.term(lo - 1), *rule.terms_run(lo, lo + 63))
    assert validate_prefix(run) == run


def test_construction_takes_no_root(monkeypatch):
    calls = []
    monkeypatch.setattr(rules, "integer_root", lambda m, p: calls.append((m, p)))
    PowerFloorRule((2,), F(2, 347001))
    PowerFloorRule((2,), 0)
    BitPerturbedRule(F(2, 3), (0, 1, 1))
    assert calls == []


def is_floor_power(x, b, p, q):
    """Whether x = floor(b**(q/p)), by the bracketing x**p <= b**q < (x+1)**p."""
    return x**p <= b**q < (x + 1) ** p


def follows_family_formula(rule, k, d):
    """Whether d is the k-th digit written out from the family docstrings."""
    prefix = prefix_of(rule)
    if k <= len(prefix):
        return d == prefix[k - 1]
    if isinstance(rule, LinearRule):
        return d == rule.offset + k
    if isinstance(rule, BitPerturbedRule):
        b = (rule.bits[k - 1] if k <= len(rule.bits) else 0) + 2 * k - 1
    else:
        b = (prefix[-1] if prefix else 1) + k - len(prefix)
    alpha = rule.certificate
    return d == b**k if alpha == 0 else is_floor_power(d, b, alpha.numerator, alpha.denominator)


def test_terms_follow_the_family_formulas(case):
    rule, _ = case
    for k in indices(rule):
        assert follows_family_formula(rule, k, rule.term(k)), k


def test_log2_term_certifies_the_term(case):
    rule, tail_materialises = case
    for k in indices(rule):
        ((lo, hi, den),) = rule.log2_term_run(k, k)
        enc = Enclosure(F(lo, den), F(hi, den))
        ref = log2_enclosure(rule.term(k))
        assert enc.lo <= ref.hi and ref.lo <= enc.hi, k  # both hold log2(term(k))
        if k <= len(prefix_of(rule)) or tail_materialises:
            assert enc == ref, k


@given(st.integers(0, 3000), st.integers(0, 400))
@settings(max_examples=15, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
def test_log2_term_run_equals_the_bounds(case, monkeypatch, start, length):
    # Prefix indices, p == 1 (tower too), materialised floors and the slack path.
    rule, _ = case
    lo = max(1, len(prefix_of(rule)) + start - 50)
    ks = range(lo, lo + length + 1)
    monkeypatch.setattr(arith, "_LOG2_CACHE", {})
    expected = [rule.log2_term_run(k, k)[0] for k in ks]
    monkeypatch.setattr(arith, "_LOG2_CACHE", {})
    assert rule.log2_term_run(ks.start, ks.stop - 1) == expected


@pytest.mark.parametrize(
    "rule, lo, hi",
    [
        # the tail leaves the materialised floor for the slack path at b = 2**18
        (PowerFloorRule((), F(2, 3)), (1 << 18) - 60, (1 << 18) + 60),
        (PowerFloorRule((), F(3, 5)), 1, 300),  # odd-root floors from the first index
        (PowerFloorRule((2, 5), F(2, 3)), (1 << 18) - 60, (1 << 18) + 60),
        (BitPerturbedRule(F(2, 3), PATTERN), (1 << 17) - 30, (1 << 17) + 30),
        # windows across the prefix end, for every family with a prefix
        (PowerFloorRule((2, 5, 11), F(1, 2)), 1, 40),
        (PowerFloorRule((2, 5, 11), F(2, 3)), 2, 40),
        (PowerFloorRule((2**18,), F(2, 3)), 1, 40),
        (PowerFloorRule((2, 9), 0), 1, 40),
        (LinearRule(3), 1, 40),
        # windows across the end of the perturbation pattern
        (BitPerturbedRule(F(2, 3), PATTERN), 1, 40),
        (BitPerturbedRule(F(2, 3), PATTERN), len(PATTERN), len(PATTERN) + 1),
        (BitPerturbedRule(F(0), PATTERN), len(PATTERN), len(PATTERN) + 1),
        (BitPerturbedRule(F(1, 2), (1,) * 20), 5, 60),
        # empty windows
        (PowerFloorRule((2, 5, 11), F(1, 2)), 3, 2),
        (PowerFloorRule((2,), 0), 10, 9),
        (LinearRule(0), 5, 1),
        (BitPerturbedRule(F(2, 3), PATTERN), 8, 7),
        # n <= 0 digits: a negative end must not count from the prefix's end
        (PowerFloorRule((2, 5, 11), F(1, 2)), 1, -1),
        (PowerFloorRule((2, 5, 11), F(2, 3)), 1, 0),
        (PowerFloorRule((2, 5), 0), 1, -1),
        (PowerFloorRule((2, 5), 0), 1, 0),
        (BitPerturbedRule(F(2, 3), PATTERN), 1, -1),
        (LinearRule(3), 1, -1),
        (BitPerturbedRule(F(0), PATTERN), 1, -1),
    ],
)
def test_log2_term_run_across_branches(rule, lo, hi, monkeypatch):
    monkeypatch.setattr(arith, "_LOG2_CACHE", {})
    expected = [rule.log2_term_run(k, k)[0] for k in range(lo, hi + 1)]
    monkeypatch.setattr(arith, "_LOG2_CACHE", {})
    assert rule.log2_term_run(lo, hi) == expected
    assert list(rule.terms_run(lo, hi)) == [rule.term(k) for k in range(lo, hi + 1)]
    if hi <= 0:
        assert rule.terms(hi) == ()



@st.composite
def seam_windows(draw):
    """(rule, lo, hi) for p > 1 across the prefix seam or across b = 2**18."""
    alpha = draw(ALPHAS.filter(lambda a: a.numerator > 1 and a < 1))
    family = draw(st.sampled_from(["power", "binary"]))
    if family == "binary":
        rule = BitPerturbedRule(alpha, tuple(draw(st.lists(st.integers(0, 1), max_size=40))))
        seam = draw(st.sampled_from([1, BOUND // 2]))
    else:
        prefix = draw(PREFIXES)
        rule = PowerFloorRule(prefix, alpha)
        seam = draw(st.sampled_from([len(prefix) + 1, BOUND - (prefix[-1] if prefix else 1)]))
    lo = max(1, seam - draw(st.integers(0, 40)))
    return rule, lo, seam + draw(st.integers(0, 40))


@given(seam_windows())
@settings(max_examples=60, deadline=None)
def test_operands_floor_the_small_bases(window):
    rule, lo, hi = window
    alpha = rule.certificate
    p, q = alpha.numerator, alpha.denominator
    prefix = prefix_of(rule)
    for k, (x, *exponents) in zip(range(lo, hi + 1), rule._operands(lo, hi), strict=True):
        if k <= len(prefix):
            assert (x, *exponents) == (prefix[k - 1], 1, 1)
            continue
        (b,) = rule._bases(k, k)
        if b < BOUND:
            assert exponents == [1, 1] and is_floor_power(x, b, p, q)
        else:
            assert (x, *exponents) == (b, p, q)


DEGREES = st.sampled_from([2, 3, 4, 5, 7, 9])


@given(
    DEGREES.flatmap(lambda p: st.tuples(st.just(p), st.integers(p + 1, 12 * p)))
    .filter(lambda pq: math.gcd(*pq) == 1),
    st.integers(1, BOUND // 2 + 20) | st.integers(BOUND // 2 - 40, BOUND // 2),
    st.lists(st.integers(0, 1), max_size=80),
)
@settings(max_examples=150, deadline=None)
def test_operands_and_terms_run_equal_the_floors(pq, lo, bits):
    # bit-perturbed bases step by 1 to 3, across the 2**18 seam
    p, q = pq
    rule = BitPerturbedRule(F(p, q), (0,) * (lo - 1) + tuple(bits))
    hi = lo + len(bits)
    bases = list(rule._bases(lo, hi))
    for b, (x, *exponents) in zip(bases, rule._operands(lo, hi), strict=True):
        if b < BOUND:
            assert exponents == [1, 1] and is_floor_power(x, b, p, q)
        else:
            assert (x, *exponents) == (b, p, q)
    terms = list(rule.terms_run(lo, hi))
    assert len(terms) == len(bases)
    assert all(map(is_floor_power, terms, bases, repeat(p), repeat(q)))


@pytest.mark.parametrize("p, q, first_refused", [(3, 200, 32768), (2, 131, 39435)])
def test_operands_refuse_at_the_guarded_base(monkeypatch, p, q, first_refused):
    # a 1000-bit guard refuses these floors part-way through the small bases
    monkeypatch.setattr(rules, "DIGIT_BITS_GUARD", 1000)
    rule = PowerFloorRule((first_refused - 41,), F(p, q))  # base k + first_refused - 42
    operands = rule._operands(2, 80)
    for b in range(first_refused - 40, first_refused):
        x, *exponents = next(operands)
        assert exponents == [1, 1] and is_floor_power(x, b, p, q)
    with pytest.raises(GuardExceededError):
        next(operands)


@pytest.mark.parametrize("b, p", [(2, 1), (3, 1), (3, 2), (7, 3), (2**18 + 3, 5)])
@pytest.mark.parametrize("guard", [1000, 4099])
def test_digit_size_guard_refuses_exactly_past_the_bound(b, p, guard, monkeypatch):
    monkeypatch.setattr(rules, "DIGIT_BITS_GUARD", guard)
    # floor(b**(q/p)) has (bit_length(b**q) - 1) // p + 1 bits; q is the
    # largest power that keeps it within the guard
    q = 1
    while ((b ** (q + 1)).bit_length() - 1) // p + 1 <= guard:
        q += 1
    assert is_floor_power(rules._floor_power(b, p, q), b, p, q)
    with pytest.raises(GuardExceededError):
        rules._floor_power(b, p, q + 1)


@pytest.fixture
def built(monkeypatch):
    """The (b, p, q) of every digit floor(b**(q/p)) built; past 100 the test fails.

    The operands build the floor of each base below 2**18 as they read the base.
    """
    calls = []
    floor_power = rules._floor_power

    def spy(b, p, q):
        calls.append((b, p, q))
        assert len(calls) <= 100, "digits built past the ones read"
        return floor_power(b, p, q)

    monkeypatch.setattr(rules, "_floor_power", spy)
    return calls


def test_power_sum_builds_no_tower_term_past_the_tail_cut(built):
    # 19**18 > 2**73 is the first term below the resolution at 64 bits
    reciprocal_power_sum(PierceSeq.infinite(PowerFloorRule((), 0)), F(1), 10**6)
    assert built == [(k + 1, 1, k) for k in range(1, 19)]


def test_power_sum_floors_no_base_past_the_tail_cut(built):
    # the operands floor bases below 2**18 themselves; 27**(31/2) > 2**73 closes the sum
    reciprocal_power_sum(PierceSeq.infinite(PowerFloorRule((), F(2, 31))), F(1), 10**6)
    assert [b for b, p, _ in built if p == 2] == list(range(2, 28))


def test_expansion_value_builds_no_digit_past_its_depth(built):
    # the bracket 1/(2 * 5 * 6**3 * ... * 12**3) is the first below 2**-64
    expansion_value(PierceSeq.infinite(PowerFloorRule((2, 5), F(1, 3))), 64, min_depth=4)
    assert [b for b, _, q in built if q == 3] == list(range(6, 13))


@pytest.mark.parametrize("bits, min_depth", [(1, 2), (64, 2), (64, 12), (300, 4)])
def test_expansion_value_builds_the_terms_read_one_at_a_time(case, bits, min_depth, built):
    # The bounded stream builds the digits, and in the same order, that
    # reading term(k) for k = 1, 2, ... up to the closing bracket builds.
    rule, _ = case
    expansion_value(PierceSeq.infinite(rule), bits, min_depth)
    streamed = built[:]
    built.clear()
    k, product = 0, 1
    while k < max(min_depth + 1, 3) or product < 1 << bits:
        k += 1
        product *= rule.term(k)
    assert streamed == built


def test_power_sum_diverges_at_and_below_the_certificate(case):
    rule, _ = case
    cert = rule.certificate
    for s in S_GRID + ((cert,) if cert > 0 else ()):
        expected = Verdict.DIVERGENT if cert > 0 and s <= cert else Verdict.CONVERGENT
        assert classify_divergence(rule, s) is expected, s


def test_tower_power_sums_converge():
    for rule in (PowerFloorRule((2,), 0), BitPerturbedRule(F(0), PATTERN)):
        assert rule.certificate == 0
        assert all(classify_divergence(rule, s) is Verdict.CONVERGENT for s in S_GRID)


@pytest.mark.parametrize("prefix", [(), (2,), (3, 7)])
def test_power_floor_at_zero_is_the_tower(prefix):
    rule = PowerFloorRule(prefix, 0)
    shift = (prefix[-1] if prefix else 1) - len(prefix)
    tower = prefix + tuple((k + shift) ** k for k in range(len(prefix) + 1, 9))
    assert rule.terms(8) == tower
    assert rule.describe() == {"family": "tower", "prefix": list(prefix)}
    assert rule.certificate == 0


# caller of _check_alpha -> whether it admits exponent 0
ALPHA_READERS = {
    "PowerFloorRule": (lambda a: PowerFloorRule((2,), a), True),
    "BitPerturbedRule": (lambda a: BitPerturbedRule(a, (0, 1)), True),
    "classify_divergence": (lambda s: classify_divergence(LinearRule(), s), False),
    "reciprocal_power_sum": (lambda s: reciprocal_power_sum(PierceSeq.infinite(LinearRule()), s, 5),
                             False),
    "divergent_tail_rule": (lambda s: divergent_tail_rule((2,), s, 1), False),
}


@pytest.mark.parametrize("reader", sorted(ALPHA_READERS))
def test_every_exponent_reader_shares_one_range_check(reader):
    call, allow_zero = ALPHA_READERS[reader]
    for bad in (F(-1), F(3, 2)):
        with pytest.raises(DomainError, match=rf"^value {bad} lies outside \[0, 1\]$"):
            call(bad)
    if allow_zero:
        call(F(0))
    else:
        with pytest.raises(DomainError, match=r"^value 0 lies outside \(0, 1\]$"):
            call(F(0))
    call(F(1))

