import decimal
import functools
import math
from decimal import Decimal
from fractions import Fraction as F

import pytest
from hypothesis import HealthCheck, assume, given, settings
from hypothesis import strategies as st

from piercelab import arith
from piercelab.arith import (
    DomainError,
    Enclosure,
    INFINITY,
    LOG2_SCALE,
    ceil_root_power,
    floor_reciprocal,
    floor_root_power,
    integer_root,
    ln2_enclosure,
    ln_enclosure,
    log2_bounds,
    log2_enclosure,
    pow_enclosure,
    unit_interval,
    unit_reciprocal,
)


def log_ratio_bracket(n: int, m: int, denom: int) -> tuple[F, F]:
    """Independent oracle: log(n)/log(m) in [t/denom, (t+1)/denom].

    Found by direct big-integer power comparison m**t <= n**denom < m**(t+1);
    shares nothing with the atanh series of the implementation.
    """
    assert n >= 1 and m >= 2
    target = n**denom
    t = int(denom * math.log(n) / math.log(m))
    while m**t > target:
        t -= 1
    while m ** (t + 1) <= target:
        t += 1
    return F(t, denom), F(t + 1, denom)


@functools.lru_cache(maxsize=None)
def decimal_ln2(prec: int) -> Decimal:
    return decimal.Context(prec=prec).ln(Decimal(2))


def decimal_log2_floor(n: int, steps: int):
    """Independent oracle: floor(2**steps * log2 n) by stdlib decimal, or None.

    The precision leaves about 50 correct digits after the point.  Within
    10**-40 of an integer K the digits cannot decide the floor: where K is
    a multiple of 2**steps, log2 n is next to E = K >> steps and n < 2**E
    decides it exactly; any other such value is skipped (None).
    """
    prec = 50 + len(str(n.bit_length() << steps))
    ctx = decimal.Context(prec=prec)
    x = ctx.multiply(ctx.divide(ctx.ln(Decimal(n)), decimal_ln2(prec)), 1 << steps)
    k = int(x.to_integral_value())
    if abs(x - k) >= Decimal(10) ** -40:
        return int(x.to_integral_value(rounding=decimal.ROUND_FLOOR))
    if k % (1 << steps) == 0:
        return k - (n < 1 << (k >> steps))
    return None


@pytest.fixture
def kernel_calls(monkeypatch):
    """(m, w) of every anchor."""
    calls = []
    anchored = arith._log2_anchored

    def spy(m, w, c_lo, c_hi):
        calls.append((m, w))
        return anchored(m, w, c_lo, c_hi)

    monkeypatch.setattr(arith, "_log2_anchored", spy)
    return calls


class TestFloorReciprocal:
    def test_zero_is_infinite(self):
        assert floor_reciprocal(F(0)) is INFINITY

    def test_one(self):
        assert floor_reciprocal(F(1)) == 1

    def test_hand_values(self):
        assert floor_reciprocal(F(7, 10)) == 1
        assert floor_reciprocal(F(3, 10)) == 3
        assert floor_reciprocal(F(1, 10)) == 10

    def test_domain(self):
        with pytest.raises(DomainError):
            floor_reciprocal(F(-1, 2))
        with pytest.raises(DomainError):
            floor_reciprocal(F(3, 2))

    @given(st.fractions(min_value=F(1, 10**9), max_value=1, max_denominator=10**9))
    def test_cross_multiplication(self, x):
        # d <= 1/x < d + 1, checked exactly
        d = floor_reciprocal(x)
        assert d * x <= 1 < (d + 1) * x


class TestRoots:
    def test_examples(self):
        assert floor_root_power(3, 1, 2) == 9
        assert floor_root_power(5, 2, 1) == 2
        assert floor_root_power(10, 3, 2) == 4

    @given(st.integers(1, 10**6), st.integers(1, 6), st.integers(1, 6))
    def test_bracketing(self, n, p, q):
        m = floor_root_power(n, p, q)
        assert m**p <= n**q < (m + 1) ** p

    @given(st.integers(1, 10**6), st.integers(1, 6), st.integers(1, 6))
    def test_ceil(self, n, p, q):
        c = ceil_root_power(n, p, q)
        assert (c - 1) ** p < n**q <= c**p

    @given(st.integers(0, 10**30), st.integers(1, 12))
    def test_integer_root(self, m, p):
        r = integer_root(m, p)
        assert r**p <= m
        assert (r + 1) ** p > m

    @given(st.integers(3, 99), st.integers(10**3, 10**4), st.data())
    @settings(max_examples=80, deadline=None)
    def test_wide_integer_root(self, p, bits, data):
        # Roots past 128 bits start at doubling precision; exact powers
        # and their predecessors sit on either side of a floor step.
        r = data.draw(st.integers(2, 1 << -(-bits // p)))
        m = data.draw(st.integers(1 << (bits - 1), (1 << bits) - 1))
        assert integer_root(r**p, p) == r
        assert integer_root(r**p - 1, p) == r - 1
        root = integer_root(m, p)
        assert root**p <= m < (root + 1) ** p

    def test_bisection_oracle(self):
        # Independent oracle for a handful of frozen cases.
        def by_bisection(n, p, q):
            target = n**q
            lo, hi = 0, max(n, 2) ** q
            while lo < hi:
                mid = (lo + hi + 1) // 2
                if mid**p <= target:
                    lo = mid
                else:
                    hi = mid - 1
            return lo

        for n, p, q in [(5, 2, 1), (10, 3, 2), (81, 4, 3), (2, 5, 7), (97, 3, 5)]:
            assert floor_root_power(n, p, q) == by_bisection(n, p, q)


class TestBigRationalRoundTrips:
    @given(
        st.fractions(max_denominator=10**6),
        st.fractions(max_denominator=10**6),
    )
    def test_add_sub(self, a, b):
        assert (a + b) - b == a

    @given(
        st.fractions(max_denominator=10**6),
        st.fractions(max_denominator=10**6).filter(lambda b: b != 0),
    )
    def test_mul_div(self, a, b):
        assert (a * b) / b == a


class TestExtNat:
    def test_infinity_reciprocal(self):
        assert unit_reciprocal(INFINITY) == 0
        assert unit_reciprocal(4) == F(1, 4)

    def test_infinity_ordering(self):
        assert INFINITY > 10**100
        assert not (INFINITY < 3)
        assert INFINITY == INFINITY
        assert INFINITY != 5

    def test_bad_digit(self):
        with pytest.raises(DomainError):
            unit_reciprocal(0)


class TestIntervals:
    def test_bounds_enforced(self):
        with pytest.raises(DomainError, match="endpoints out of order"):
            Enclosure(F(1, 2), F(1, 3))
        with pytest.raises(DomainError, match=r"not within \[0, 1\]"):
            unit_interval(Enclosure(F(-1, 2), F(1, 3)))
        with pytest.raises(DomainError, match=r"not within \[0, 1\]"):
            unit_interval(Enclosure.exact(F(3, 2)))
        assert unit_interval(Enclosure.exact(F(1, 2))) == (F(1, 2), F(1, 2))
        assert unit_interval(Enclosure(F(0), F(1))) == (F(0), F(1))
        lo, hi = unit_interval(Enclosure(0, 1))
        assert type(lo) is F and type(hi) is F

    def test_containment(self):
        outer = Enclosure(F(1, 4), F(3, 4))
        inner = Enclosure(F(1, 3), F(1, 2))
        assert outer.contains_interval(inner)
        assert outer.contains_interval(outer)
        assert not inner.contains_interval(outer)
        assert F(1, 3) in inner
        assert F(3, 4) not in inner
        assert Enclosure(F(-1), F(2)).contains_interval(outer)

    def test_enclosure_arithmetic(self):
        a = Enclosure(F(1), F(2))
        b = Enclosure(F(3), F(4))
        assert a.mul_pos(b) == Enclosure(F(3), F(8))
        assert b.div_pos(a) == Enclosure(F(3, 2), F(4))
        assert a.mul_pos(Enclosure.exact(F(1, 2))) == Enclosure(F(1, 2), F(1))


class TestLog2Enclosure:
    def test_exact_powers(self):
        for e in range(0, 40, 7):
            enc = log2_enclosure(1 << e)
            assert enc.lo == enc.hi == e

    @given(st.integers(2, 10**6))
    @settings(max_examples=60)
    def test_contains_log2(self, n):
        enc = log2_enclosure(n)
        lo, hi = log_ratio_bracket(n, 2, 128)
        # Both intervals contain log2(n); certified width bound holds.
        assert enc.width <= F(1, LOG2_SCALE)
        assert enc.lo <= hi and lo <= enc.hi

    def test_sharp_oracle(self):
        for n in (3, 7, 10, 1000, 999983):
            enc = log2_enclosure(n)
            lo, hi = log_ratio_bracket(n, 2, 4096)
            assert enc.lo <= hi and lo <= enc.hi
            assert enc.lo * LOG2_SCALE == decimal_log2_floor(n, arith.LOG2_SCALE_BITS)
            assert enc.width == F(1, LOG2_SCALE)

    @given(st.integers(1, 8), st.integers(2, 1 << 20))
    @settings(max_examples=200)
    def test_integer_oracle(self, k, n):
        # The top bits of lo = floor(LOG2_SCALE * log2(n)) are l = floor(2**k * log2(n)),
        # which is 2**l <= n**(2**k) < 2**(l+1).
        enc = log2_enclosure(n)
        lo, hi = enc.lo * LOG2_SCALE, enc.hi * LOG2_SCALE
        assert lo.denominator == hi.denominator == 1
        assert hi - lo == (n & (n - 1) != 0)
        low = int(lo) >> arith.LOG2_SCALE_BITS - k
        power = n ** (1 << k)
        assert 2**low <= power < 2 ** (low + 1)

    def test_kernel_bits_or_retry(self):
        # At tiny guards an anchor often leaves the floor undecided; every
        # one it decides must still be floor(2**steps * log2(n)), and every
        # anchor at w bits must bracket floor(2**w * log2(n)), checked in integers.
        decided = undecided = 0
        for n in range(3, 600, 2):
            for steps in range(1, 7):
                power = n ** (1 << steps)
                for guard in range(1, 13):
                    w = steps + guard
                    lo, hi = arith._log2_anchored(n, w, *arith._log2_constants(w))
                    if w <= 10:
                        assert 2**lo <= n ** (1 << w) < 2 ** (hi + 1)
                    if lo >> guard == hi >> guard:
                        low = lo >> guard
                        assert 2**low <= power < 2 ** (low + 1)
                        decided += 1
                    else:
                        undecided += 1
        assert decided > undecided > 0

    def test_precision_retry(self, monkeypatch, kernel_calls):
        # n = isqrt(2**(2k+1)) puts LOG2_SCALE*log2(n) within about
        # 2**(32+1.5-k) below K = 2**32 * (2k+1).  For k = 96 the batch's
        # anchor at g guard bits and the first _log2_floor anchor at 2g
        # straddle K, and the second, at 4g, decides.
        k = 96
        n = math.isqrt(2 << 2 * k)
        assert 1 << 2 * k <= n * n < 2 << 2 * k  # floor(2 * log2(n)) == 2k
        K = (2 * k + 1) << 32
        assert decimal_log2_floor(n, arith.LOG2_SCALE_BITS) == K - 1
        monkeypatch.setattr(arith, "_LOG2_CACHE", {})
        g = arith._RUN_GUARD_BITS
        assert arith._log2_floor(n) == K - 1
        assert [w for _, w in kernel_calls] == [33 + 2 * g, 33 + 4 * g]
        kernel_calls.clear()
        assert log2_bounds(n) == (K - 1, K)
        assert [w for _, w in kernel_calls] == [33 + g, 33 + 2 * g, 33 + 4 * g]

    @pytest.mark.parametrize("frac_bits", [0, 8, 32])
    def test_bounds_scale_the_enclosure(self, frac_bits):
        # The enclosure is the bounds over LOG2_SCALE, and lo shifted down to
        # the coarser scale 2 << frac_bits is that scale's floor of log2(n).
        shift = arith.LOG2_SCALE_BITS - 1 - frac_bits
        for n in (2, 3, 1024, 1025, 3**40):
            lo, hi = log2_bounds(n)
            assert hi - lo == (0 if n & (n - 1) == 0 else 1)
            assert log2_enclosure(n) == Enclosure(F(lo, LOG2_SCALE), F(hi, LOG2_SCALE))
            assert lo >> shift == decimal_log2_floor(n, frac_bits + 1)

    @pytest.mark.parametrize("n", [0, -1, F(3)])
    def test_bounds_refuse_non_positive_or_non_integer(self, n):
        with pytest.raises(DomainError):
            log2_bounds(n)

    def test_big_input(self):
        n = 3**500
        enc = log2_enclosure(n)
        assert enc.width <= F(1, LOG2_SCALE)
        assert abs(float(enc.lo) - 500 * math.log2(3)) < 1e-6



FRAC_BITS = st.sampled_from([0, 8, 32, 48])


@st.composite
def mixed_runs(draw):
    """Increasing runs whose gaps are small, within n/16 (stepped) or past it (kernel)."""
    n = draw(st.integers(1, 1 << 40))
    run = [n]
    for kind in draw(st.lists(st.sampled_from("sml"), min_size=50, max_size=300)):
        top = {"s": 3, "m": max(1, n // 16), "l": n + 2}[kind]
        low = n // 16 + 1 if kind == "l" else 1
        n += draw(st.integers(low, max(low, top)))
        run.append(n)
    return run


def run_settings(examples: int):
    # check() swaps the cache with monkeypatch anew in every example.
    return settings(max_examples=examples, deadline=None,
                    suppress_health_check=[HealthCheck.function_scoped_fixture])


@st.composite
def step_gaps(draw):
    """(n, m) with n <= m < 2n: up to n/16 along a run, up to 2n from an anchor."""
    n = draw(st.integers(1, 1 << 80))
    return n, n + draw(st.integers(0, draw(st.sampled_from([n // 16, n - 1]))))


class TestLog2Step:
    """One atanh step brackets the log it steps to, against the decimal oracle."""

    @given(step_gaps(), FRAC_BITS)
    @settings(max_examples=300, deadline=None)
    def test_seeded_step_brackets_the_floor(self, gap, frac_bits):
        n, m = gap
        w = frac_bits + 1 + arith._RUN_GUARD_BITS
        seed, floor = decimal_log2_floor(n, w), decimal_log2_floor(m, w)
        assume(seed is not None and floor is not None)
        acc_lo, acc_hi = arith._log2_step(seed, seed, n, m, *arith._log2_constants(w))
        assert acc_lo <= floor <= acc_hi

    @given(step_gaps(), st.integers(1, 90))
    @settings(max_examples=300, deadline=None)
    def test_step_brackets_the_log_difference(self, gap, w):
        # The difference at w + 32 bits is A with A - 1 < 2**(w+32) *
        # (log2 m - log2 n) < A + 1; the step from 0 must cover it.
        n, m = gap
        floor_m, floor_n = decimal_log2_floor(m, w + 32), decimal_log2_floor(n, w + 32)
        assume(floor_m is not None and floor_n is not None)
        lo, hi = arith._log2_step(0, 0, n, m, *arith._log2_constants(w))
        diff = floor_m - floor_n
        assert lo << 32 < diff + 1
        assert hi << 32 >= diff + 1


@st.composite
def wide_logs(draw):
    """n of 100 to 5000 bits, often next to a power of two: the anchor truncates them all."""
    e = draw(st.integers(100, 4999))
    near = st.sampled_from([1 << e, (1 << e) + 1, (1 << e) - 1, (2 << e) - 1])
    return draw(near | st.integers(1 << e, (2 << e) - 1))


class TestLog2Wide:
    """Anchors of wide n step from n's top bits, and still give the floor."""

    @given(wide_logs(), FRAC_BITS)
    @run_settings(120)
    def test_truncated_anchor_brackets_the_floor(self, monkeypatch, n, frac_bits):
        w = frac_bits + 1 + arith._RUN_GUARD_BITS
        floor = decimal_log2_floor(n, w)
        low = decimal_log2_floor(n, arith.LOG2_SCALE_BITS)
        assume(floor is not None and low is not None)
        lo, hi = arith._log2_anchored(n, w, *arith._log2_constants(w))
        assert lo <= floor <= hi
        assert arith._log2_floor(n) == low
        monkeypatch.setattr(arith, "_LOG2_CACHE", {})
        assert log2_bounds(n) == (low, low + (n & (n - 1) != 0))

    @pytest.mark.parametrize("e", [40, 100, 1000, 5000])
    def test_below_a_power_of_two_anchors_once(self, monkeypatch, kernel_calls, e):
        # log2(2**(e+1) - 1) is within 2**-e of e + 1; only m < 2**(e+1)
        # keeps the anchor's upper end below it.
        n = (2 << e) - 1
        monkeypatch.setattr(arith, "_LOG2_CACHE", {})
        assert log2_bounds(n) == (((e + 1) << 33) - 1, (e + 1) << 33)
        assert kernel_calls == [(n, 33 + arith._RUN_GUARD_BITS)]


class TestLog2Run:
    """_log2_lows along a run gives exactly the lower ends of log2_bounds, sharing its cache."""

    @staticmethod
    def check(monkeypatch, ns, prefill=()):
        expected = [decimal_log2_floor(n, arith.LOG2_SCALE_BITS) for n in ns]
        monkeypatch.setattr(arith, "_LOG2_CACHE", {})
        for n in prefill:
            log2_bounds(n)
        lows = arith._log2_lows(ns)
        assert all(e is None or lo == e for lo, e in zip(lows, expected))
        assert all(arith._LOG2_CACHE[n] == lo for n, lo in zip(ns, lows))

    @given(st.integers(1, 3), st.integers(300, 3000))
    @run_settings(12)
    def test_consecutive_from_the_start(self, monkeypatch, start, length):
        self.check(monkeypatch, range(start, start + length))

    @given(st.integers(9, 70), st.integers(1, 300), st.integers(1, 300))
    @run_settings(30)
    def test_across_powers_of_two(self, monkeypatch, e, below, above):
        self.check(monkeypatch, range((1 << e) - below, (1 << e) + above))

    @given(st.integers(2, 10**6), st.integers(1, 400))
    @run_settings(20)
    def test_gappy_floor_powers(self, monkeypatch, b, length):
        ns = [floor_root_power(c, 3, 4) for c in range(b, b + length)]
        self.check(monkeypatch, ns)

    @given(mixed_runs())
    @run_settings(40)
    def test_mixed_and_kernel_sized_gaps(self, monkeypatch, ns):
        self.check(monkeypatch, ns)

    @given(mixed_runs(), st.data())
    @run_settings(40)
    def test_interleaved_with_cached_entries(self, monkeypatch, ns, data):
        prefill = data.draw(st.lists(st.sampled_from(ns) | st.integers(1, 1 << 41)))
        self.check(monkeypatch, ns, prefill)

    @pytest.mark.parametrize("guard_bits", [1, 2])
    def test_tiny_guard_forces_fallbacks(self, monkeypatch, kernel_calls, guard_bits):
        monkeypatch.setattr(arith, "_RUN_GUARD_BITS", guard_bits)
        ns = range(1000, 3000)
        self.check(monkeypatch, ns)
        anchors = [m for m, w in kernel_calls if w == 33 + guard_bits]
        assert len(anchors) > len(ns) // 2
        # some anchors disagree too, and _log2_floor anchors wider
        assert any(w == 33 + 2 * guard_bits for _, w in kernel_calls)

    def test_default_guard_rarely_falls_back(self, monkeypatch, kernel_calls):
        monkeypatch.setattr(arith, "_LOG2_CACHE", {})
        assert len(arith._log2_lows(range(50_000, 60_000))) == 10_000
        # the first n anchors the accumulator, and the rest step from it
        assert kernel_calls[0] == (50_000, 33 + 24)
        assert len(kernel_calls) <= 10

    def test_far_apart_runs_anchor_every_miss(self, monkeypatch, kernel_calls):
        ns = [3**k for k in range(1, 60)]
        self.check(monkeypatch, ns)
        assert kernel_calls == [(n, 33 + 24) for n in ns]

    def test_cached_bounds_build_no_step_constants(self, monkeypatch, kernel_calls):
        monkeypatch.setattr(arith, "_LOG2_CACHE", {})
        ns = range(1100, 1200)  # no power of two
        lows = arith._log2_lows(ns)
        calls = []
        monkeypatch.setattr(arith, "ln2_enclosure", lambda *args: calls.append(args))
        kernel_calls.clear()
        assert [log2_bounds(n) for n in ns] == [(lo, lo + 1) for lo in lows]
        assert calls == [] and kernel_calls == []


class TestLnEnclosures:
    def test_ln2(self):
        enc = ln2_enclosure(64)
        # float ln2 is within 1e-15 of the truth; the enclosure is far tighter
        assert abs(float(enc.lo) - math.log(2)) < 1e-14
        assert enc.width <= F(1, 1 << 64)

    @pytest.mark.parametrize("frac_bits", [0, 1, 64, 300])
    def test_ln2_is_the_series_sum(self, frac_bits):
        # The per-term Fraction sum is the reference for the common-denominator one.
        terms = frac_bits + 8
        s = sum(F(1, k << k) for k in range(1, terms + 1))
        enc = ln2_enclosure(frac_bits)
        assert enc == Enclosure(s, s + F(1, (terms + 1) << terms))
        ln2, err = F(decimal_ln2(150)), F(1, 10**140)
        assert enc.lo <= ln2 + err and ln2 - err <= enc.hi

    def test_ln(self):
        enc = ln_enclosure(10)
        assert float(enc.lo) <= math.log(10) <= float(enc.hi)
        # ln 2 stays at 32 bits, which the sample command's output bytes rest on
        assert enc == log2_enclosure(10).mul_pos(ln2_enclosure(32))


class TestPowEnclosure:
    def test_integer_exponent_exact(self):
        assert pow_enclosure(7, F(3)).is_exact
        assert pow_enclosure(7, F(3)).lo == 343

    def test_perfect_root_exact(self):
        enc = pow_enclosure(8, F(1, 3))
        assert enc.is_exact and enc.lo == 2

    @given(
        st.integers(2, 500),
        st.fractions(min_value=F(-3), max_value=F(3), max_denominator=5),
    )
    @settings(max_examples=60)
    def test_contains_true_power(self, base, exponent):
        enc = pow_enclosure(base, exponent, 48)
        true = base ** float(exponent)
        assert float(enc.lo) <= true * (1 + 1e-9) and true * (1 - 1e-9) <= float(enc.hi)

    def test_reciprocal(self):
        enc = pow_enclosure(4, F(-1, 2))
        assert enc.is_exact and enc.lo == F(1, 2)
