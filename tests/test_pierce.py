import math
import random
import re
from fractions import Fraction as F

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from piercelab.arith import DomainError, Enclosure, INFINITY
from piercelab.pierce import (
    DigitStatus,
    SafeDigits,
    _digit_run,
    alternating_sums,
    digit_step,
    digits_rational,
    safe_digits,
    shift_orbit,
    validate_prefix,
)
from piercelab.space import PierceSeq, expansion_value

unit_fractions = st.fractions(min_value=0, max_value=1, max_denominator=10**6)


class TestDigitStep:
    def test_branches(self):
        assert digit_step(F(0)) == (INFINITY, F(0))
        assert digit_step(F(1)) == (1, F(0))
        assert digit_step(F(7, 10)) == (1, F(3, 10))

    def test_domain(self):
        with pytest.raises(DomainError):
            digit_step(F(11, 10))

    @given(unit_fractions.filter(lambda x: x > 0))
    def test_numerator_strictly_decreases(self, x):
        d, t = digit_step(x)
        assert 0 <= t <= 1
        assert t.numerator < x.numerator or t == 0


class TestDigitsRational:
    def test_examples(self):
        assert digits_rational(F(0)) == ()
        assert digits_rational(F(1)) == (1,)
        assert digits_rational(F(2, 3)) == (1, 3)
        assert digits_rational(F(7, 10)) == (1, 3, 10)

    @given(unit_fractions)
    def test_strictly_increasing_and_short(self, x):
        digits = digits_rational(x)
        assert all(a < b for a, b in zip(digits, digits[1:]))
        assert len(digits) <= max(x.numerator, 1)

    @given(unit_fractions.filter(lambda x: 0 < x < 1))
    def test_last_gap_at_least_two(self, x):
        # The greedy remainder never lands exactly on 1/(d+1), so the
        # final digit always jumps by at least 2.
        digits = digits_rational(x)
        if len(digits) >= 2:
            assert digits[-1] - digits[-2] >= 2

    @given(unit_fractions)
    def test_round_trip(self, x):
        assert expansion_value(PierceSeq.finite(digits_rational(x))) == x


def partial_sums(digits) -> list[F]:
    return [F(s, p) for s, p in alternating_sums(digits)]


class TestPartialSums:
    def test_examples(self):
        assert partial_sums([2]) == [F(1, 2)]
        assert partial_sums([1, 3, 10]) == [F(1), F(2, 3), F(7, 10)]
        assert partial_sums([1, 2]) == [F(1), F(1, 2)]

    @given(st.lists(st.integers(1, 40), min_size=1, max_size=8, unique=True))
    def test_alternating_nesting(self, raw):
        digits = tuple(sorted(raw))
        sums = partial_sums(digits)
        odd = sums[0::2]
        even = sums[1::2]
        # s_2 <= s_4 <= ... <= s_3 <= s_1
        assert all(a <= b for a, b in zip(even, even[1:]))
        assert all(a >= b for a, b in zip(odd, odd[1:]))
        if even:
            assert max(even) <= min(odd)


class TestShiftOrbit:
    def test_examples(self):
        assert shift_orbit(F(7, 10), 3) == [F(3, 10), F(1, 10), F(0)]
        assert shift_orbit(F(0), 3) == [F(0), F(0), F(0)]
        assert shift_orbit(F(1, 2), 2) == [F(0), F(0)]

    @given(unit_fractions)
    def test_sandwich(self, x):
        # 1/(d_{k+1} + 1) <= T^k(x) <= 1/d_{k+1}, exactly at every step
        digits = digits_rational(x)
        orbit = [x] + shift_orbit(x, len(digits))
        for k, d in enumerate(digits):
            t = orbit[k]
            assert F(1, d + 1) <= t <= F(1, d)


def two_division_safe_digits(interval, max_n):
    """safe_digits restated with each endpoint's digit taken by its own division."""
    lo, hi = interval.lo, interval.hi
    q = math.lcm(lo.denominator, hi.denominator)
    a = lo.numerator * (q // lo.denominator)
    b = hi.numerator * (q // hi.denominator)
    digits = []
    while True:
        if b == 0:
            return SafeDigits(tuple(digits), DigitStatus.TERMINATED)
        if len(digits) >= max_n:
            return SafeDigits(tuple(digits), DigitStatus.EXHAUSTED)
        d = q // b
        if a == 0 or q // a != d:
            return SafeDigits(tuple(digits), DigitStatus.AMBIGUOUS)
        digits.append(d)
        a, b = q - d * b, q - d * a


open_unit = st.fractions(min_value=0, max_value=1, max_denominator=10**6).filter(bool)


@st.composite
def split_at_step_one(draw):
    """lo in the cell of digit k + 1, hi in the cell of digit k."""
    k = draw(st.integers(1, 50))
    s, t = draw(open_unit), draw(open_unit)
    lo = F(1, k + 2) + s * (F(1, k + 1) - F(1, k + 2))
    hi = F(1, k + 1) + t * (F(1, k) - F(1, k + 1))
    return lo, hi


safe_digit_endpoints = st.one_of(
    st.tuples(unit_fractions, unit_fractions).map(sorted),
    unit_fractions.map(lambda x: (x, x)),  # point enclosures
    unit_fractions.map(lambda x: (F(0), x)),  # lo = 0: digit INFINITY at lo
    split_at_step_one(),
)


class TestSafeDigits:
    @given(safe_digit_endpoints, st.integers(0, 12))
    @settings(max_examples=300)
    def test_equals_the_two_division_restatement(self, ends, max_n):
        interval = Enclosure(*ends)
        assert safe_digits(interval, max_n) == two_division_safe_digits(interval, max_n)

    def test_ambiguous_example(self):
        res = safe_digits(Enclosure(F(2, 5), F(9, 20)), 5)
        assert res.prefix == (2,)
        assert res.status is DigitStatus.AMBIGUOUS

    def test_point_terminates(self):
        res = safe_digits(Enclosure.exact(F(1, 3)), 5)
        assert res.prefix == (3,)
        assert res.status is DigitStatus.TERMINATED

    def test_full_interval(self):
        res = safe_digits(Enclosure(F(0), F(1)), 5)
        assert res.prefix == ()
        assert res.status is DigitStatus.AMBIGUOUS

    def test_exhausted(self):
        res = safe_digits(Enclosure.exact(F(7, 10)), 2)
        assert res.prefix == (1, 3)
        assert res.status is DigitStatus.EXHAUSTED

    @given(
        unit_fractions,
        st.fractions(min_value=0, max_value=F(1, 100), max_denominator=10**6),
        st.fractions(min_value=0, max_value=1, max_denominator=97),
    )
    @settings(max_examples=80)
    def test_soundness(self, lo, width, pick):
        # Any rational inside the enclosure extends the certified prefix.
        hi = min(lo + width, F(1))
        res = safe_digits(Enclosure(lo, hi), 12)
        y = lo + pick * (hi - lo)
        digits = digits_rational(y)
        assert digits[: len(res.prefix)] == res.prefix

    @given(unit_fractions, st.one_of(st.none(), unit_fractions), st.integers(0, 12))
    @settings(max_examples=300)
    def test_exact(self, x, y, max_n):
        # The result is pinned, not only sound: a point yields its own
        # digits; a proper interval yields the longest common prefix of
        # its endpoints' digits, in both cases cut at max_n.
        lo, hi = (x, x) if y is None else (min(x, y), max(x, y))
        res = safe_digits(Enclosure(lo, hi), max_n)
        a, b = digits_rational(lo), digits_rational(hi)
        if lo == hi:
            status = DigitStatus.TERMINATED if len(a) <= max_n else DigitStatus.EXHAUSTED
            assert res == SafeDigits(a[:max_n], status)
            return
        c = next((i for i, (u, v) in enumerate(zip(a, b)) if u != v), min(len(a), len(b)))
        if c >= max_n:
            assert res == SafeDigits(a[:max_n], DigitStatus.EXHAUSTED)
        else:
            assert res == SafeDigits(a[:c], DigitStatus.AMBIGUOUS)


@pytest.mark.parametrize("bits", [256, 1024, 4096])
def test_integer_entry_equals_the_enclosure_entry(bits):
    # sample_digit_statistics enters the loop with (p, p + 1, 2**bits); p = 2**(bits-1)
    # has rest == a at its first step (lo = 1/2 has digit 2, every point above it 1)
    q = 1 << bits
    rng = random.Random(bits)
    for p in (0, 1, q >> 1, q - 2, q - 1, *(rng.getrandbits(bits) for _ in range(20))):
        interval = Enclosure(F(p, q), F(p + 1, q))
        for max_n in (10**6, 2):
            expected = two_division_safe_digits(interval, max_n)
            digits, _, status = _digit_run(p, p + 1, q, max_n)
            assert SafeDigits(tuple(digits), status) == safe_digits(interval, max_n) == expected


def reference_step(x: F) -> tuple[int, F]:
    """(floor(1/x), T(x)) for x in (0, 1], from the definition T(x) = 1 - floor(1/x)*x."""
    d = math.floor(1 / x)
    return d, 1 - d * x


def reference_digits(x: F) -> tuple[int, ...]:
    digits = []
    while x:
        d, x = reference_step(x)
        digits.append(d)
    return tuple(digits)


def reference_orbit(x: F, n: int) -> list[F]:
    """[T(x), ..., T^n(x)], with T(0) = 0."""
    orbit = []
    for _ in range(n):
        x = reference_step(x)[1] if x else x
        orbit.append(x)
    return orbit


# wide denominators as well as small ones, 0 and 1 included
orbit_points = st.one_of(
    unit_fractions,
    st.integers(1, 1 << 128).flatmap(lambda q: st.integers(0, q).map(lambda p: F(p, q))),
    st.sampled_from([F(0), F(1)]),
)


class TestReferenceOrbit:
    """The integer orbit loop against Fraction stepping from the definition."""

    @given(orbit_points)
    def test_digits_rational(self, x):
        assert digits_rational(x) == reference_digits(x)

    @given(orbit_points)
    def test_digit_step(self, x):
        assert digit_step(x) == (reference_step(x) if x else (INFINITY, F(0)))

    @given(orbit_points, st.integers(0, 4), st.booleans())
    def test_shift_orbit(self, x, extra, past_end):
        # n = 0 and n within the orbit, or n up to 4 past its termination
        n = len(digits_rational(x)) + extra if past_end else extra
        assert shift_orbit(x, n) == reference_orbit(x, n)

    def test_shift_orbit_edges(self):
        assert shift_orbit(F(0), 0) == shift_orbit(F(1), 0) == []
        assert shift_orbit(F(0), 2) == [F(0), F(0)]
        assert shift_orbit(F(1), 3) == [F(0), F(0), F(0)]
        assert digit_step(F(1)) == (1, F(0))


def lazy_check(digits):
    """validate_prefix restated as a stream: each digit a positive int above the last."""
    last = 0
    for k, d in enumerate(digits, start=1):
        if not isinstance(d, int) or d < 1:
            raise DomainError(f"digit {d!r} at index {k} is not a positive integer")
        if d <= last:
            raise DomainError(f"strict increase fails at index {k}: {last} -> {d}")
        last = d
        yield d


BAD_PREFIXES = {
    (0,): "digit 0 at index 1 is not a positive integer",
    (-3,): "digit -3 at index 1 is not a positive integer",
    (2, 2): "strict increase fails at index 2: 2 -> 2",
    (3, 1): "strict increase fails at index 2: 3 -> 1",
    (1.0,): "digit 1.0 at index 1 is not a positive integer",
    ("3",): "digit '3' at index 1 is not a positive integer",
    (1, 0): "digit 0 at index 2 is not a positive integer",
    (2, 5, 5): "strict increase fails at index 3: 5 -> 5",
}


class TestValidatePrefix:
    @pytest.mark.parametrize("bad", BAD_PREFIXES, ids=repr)
    def test_refusals_keep_their_message(self, bad):
        # the same words given a tuple, a list or an iterator
        for prefix in (bad, list(bad), iter(bad)):
            with pytest.raises(DomainError) as caught:
                validate_prefix(prefix)
            assert str(caught.value) == BAD_PREFIXES[bad]

    def test_int_subclasses_pass(self):
        class Digit(int):
            pass

        assert validate_prefix((True, 2)) == (True, 2)
        assert type(validate_prefix((True, 2))[0]) is bool
        assert validate_prefix([Digit(3), Digit(5)]) == (3, 5)
        assert validate_prefix(iter([1, 2])) == (1, 2)
        assert validate_prefix(()) == ()

    @given(st.lists(st.integers(-3, 40), max_size=8))
    def test_agrees_with_the_lazy_check(self, raw):
        try:
            expected = tuple(lazy_check(raw))
        except DomainError as exc:
            with pytest.raises(DomainError, match=f"^{re.escape(str(exc))}$"):
                validate_prefix(raw)
        else:
            assert validate_prefix(raw) == expected
