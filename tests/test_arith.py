import decimal
import functools
import itertools
import math
import operator
import os
import subprocess
import sys
from decimal import Decimal
from fractions import Fraction as F

import pytest
from hypothesis import HealthCheck, assume, given, settings
from hypothesis import strategies as st

import piercelab
from piercelab import arith
from piercelab.arith import (
    DomainError,
    Enclosure,
    INFINITY,
    LOG2_SCALE,
    _scaled_root,
    floor_reciprocal,
    integer_root,
    ln2_enclosure,
    ln_enclosure,
    log2_bounds,
    log2_enclosure,
    pow_enclosure,
    unit_interval,
    unit_rational,
    unit_reciprocal,
)
from piercelab.dimension import TupleEnumeration
from piercelab.rules import LinearRule, PowerFloorRule
from piercelab.space import FundamentalInterval, PierceSeq, fundamental_interval


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


class TestUnitRational:
    @pytest.mark.parametrize("x, value", [
        (F(0), F(0)), (F(1), F(1)), (F(7, 10), F(7, 10)), (0, F(0)), (1, F(1)), (True, F(1)),
        ("1/3", F(1, 3)), ("0.25", F(1, 4)), ("1", F(1)), (0.5, F(1, 2)), (1.0, F(1)),
        (Decimal("0.125"), F(1, 8)),
    ])
    def test_values(self, x, value):
        got = unit_rational(x)
        assert got == value and type(got) is F
        if type(x) is F:
            assert got is x  # a Fraction is checked, not copied

    @pytest.mark.parametrize("x, shown", [
        (F(-1, 2), "-1/2"), (F(3, 2), "3/2"), (F(-1, 10**30), f"-1/{10**30}"),
        (F(10**30 + 1, 10**30), f"{10**30 + 1}/{10**30}"), (-1, "-1"), (2, "2"),
        ("5/4", "5/4"), ("-1/7", "-1/7"), (1.5, "3/2"), (-0.25, "-1/4"),
    ])
    def test_refusals_on_either_side(self, x, shown):
        with pytest.raises(DomainError) as caught:
            unit_rational(x)
        assert str(caught.value) == f"value {shown} lies outside [0, 1]"

    def test_fraction_subclass_becomes_a_fraction(self):
        class Sub(F):
            pass

        got = unit_rational(Sub(1, 3))
        assert got == F(1, 3) and type(got) is F

    @given(st.fractions(max_denominator=10**12))
    def test_integer_check_equals_the_comparison(self, x):
        if 0 <= x <= 1:
            assert unit_rational(x) is x
        else:
            with pytest.raises(DomainError, match="lies outside"):
                unit_rational(x)


def root_by_bisection(m, p):
    """Independent oracle: the largest r with r**p <= m, by bisection."""
    lo, hi = 0, 1 << -(-m.bit_length() // p)
    while lo < hi:
        mid = (lo + hi + 1) // 2
        if mid**p <= m:
            lo = mid
        else:
            hi = mid - 1
    return lo


class TestRoots:
    def test_examples(self):
        assert integer_root(3**2, 1) == 9
        assert integer_root(5, 2) == 2
        assert integer_root(10**2, 3) == 4

    @given(st.integers(1, 10**6), st.integers(1, 6), st.integers(1, 6))
    def test_bracketing(self, n, p, q):
        m = integer_root(n**q, p)
        assert m**p <= n**q < (m + 1) ** p

    @given(st.integers(1, 10**6), st.integers(1, 6), st.integers(1, 6))
    def test_ceil(self, n, p, q):
        # the ceiling of a root, as covering_sum's digit floors take it
        r, exact = _scaled_root(n**q, p, 0)
        c = r + (not exact)
        assert (c - 1) ** p < n**q <= c**p

    @given(st.integers(0, 10**30), st.integers(1, 12))
    def test_integer_root(self, m, p):
        r = integer_root(m, p)
        assert r**p <= m
        assert (r + 1) ** p > m

    @given(st.integers(3, 99), st.integers(10**3, 10**4), st.data())
    @settings(max_examples=80, deadline=None)
    def test_wide_integer_root(self, p, bits, data):
        # Wide radicands recurse through several doubling starts; exact
        # powers and their predecessors sit on either side of a floor step.
        r = data.draw(st.integers(2, 1 << -(-bits // p)))
        m = data.draw(st.integers(1 << (bits - 1), (1 << bits) - 1))
        assert integer_root(r**p, p) == r
        assert integer_root(r**p - 1, p) == r - 1
        root = integer_root(m, p)
        assert root**p <= m < (root + 1) ** p

    def test_bisection_oracle(self):
        # Independent oracle for a handful of frozen cases.
        for n, p, q in [(5, 2, 1), (10, 3, 2), (81, 4, 3), (2, 5, 7), (97, 3, 5)]:
            assert integer_root(n**q, p) == root_by_bisection(n**q, p)

    @given(st.integers(1, 32), st.integers(1, 4096), st.data())
    @settings(max_examples=120, deadline=None)
    def test_even_degree_root(self, half, bits, data):
        # Even degrees go through math.isqrt; exact powers and their
        # predecessors sit on either side of a floor step.
        p = 2 * half
        m = data.draw(st.integers(1 << (bits - 1), (1 << bits) - 1))
        assert integer_root(m, p) == root_by_bisection(m, p)
        r = data.draw(st.integers(2, max(2, 1 << bits // p)))
        assert integer_root(r**p, p) == r == root_by_bisection(r**p, p)
        assert integer_root(r**p - 1, p) == r - 1 == root_by_bisection(r**p - 1, p)

    @pytest.mark.parametrize("p", range(2, 65, 2))
    def test_even_degree_root_at_4096_bits(self, p):
        r = (1 << 4096 // p) - 1 - p  # r**p just under 2**4096
        for m in (r**p, r**p - 1, r**p + 1, (1 << 4096) - 1):
            assert integer_root(m, p) == root_by_bisection(m, p)

    def test_even_degrees_skip_newton(self, monkeypatch):
        # Values alone cannot tell an isqrt halving from Newton at the full
        # degree; the degrees Newton is called at can.
        degrees = []
        newton = arith._newton_root

        def spy(m, p, x):
            degrees.append(p)
            return newton(m, p, x)

        monkeypatch.setattr(arith, "_newton_root", spy)
        m = (3 << 4000) + 12345
        assert integer_root(m, 4) == root_by_bisection(m, 4)
        assert degrees == []
        assert integer_root(m, 6) == root_by_bisection(m, 6)
        assert degrees and set(degrees) == {3}

    def test_high_degree_root_takes_few_newton_steps(self, monkeypatch):
        # From about twice the root a step shrinks x only by (p - 1)/p: 1388
        # steps at degree 1999.  The doubling start needs 48, over 7 calls.
        steps = []

        def counting_newton(m, p, x):
            while True:
                steps.append(p)
                y = ((p - 1) * x + m // x ** (p - 1)) // p
                if y >= x:
                    return x
                x = y

        monkeypatch.setattr(arith, "_newton_root", counting_newton)
        m = 3**126127  # 199 907 bits
        r = integer_root(m, 1999)
        assert r**1999 <= m < (r + 1) ** 1999
        assert len(steps) <= 100

    def test_narrow_odd_root_runs_no_newton_step(self, monkeypatch):
        # An odd root below 2**48 comes from its float start and unit steps
        # at any degree: here an 18-bit root of degree 16001.
        def no_newton(m, p, x):
            raise AssertionError("Newton step on a narrow root")

        monkeypatch.setattr(arith, "_newton_root", no_newton)
        m = 3 ** (11 * 16001) + 12345
        assert integer_root(m, 16001) == root_by_bisection(m, 16001) == 3**11

    @pytest.mark.parametrize("p", [3, 5, 7, 9, 11, 13, 101, 1001])
    @pytest.mark.parametrize("offset", [-3, -2, -1, 0, 1, 2])
    def test_odd_roots_at_the_float_bound(self, p, offset):
        # r**p - 1 below 2**(48*p) takes the float start, and r**p from
        # 2**48 on takes Newton; either side of each floor step.
        r = (1 << 48) + offset
        assert integer_root(r**p, p) == r
        assert integer_root(r**p - 1, p) == r - 1

    @pytest.mark.parametrize("base", [2, 8, 97, math.factorial(10), math.factorial(60)])
    @pytest.mark.parametrize("n, v", [(1, 1), (5, 2), (7, 3), (10, 3), (13, 4), (600, 7)])
    def test_root_bracket_contains_the_scaled_root(self, base, n, v):
        # Bases k and k! at coprime (n, v), w on both sides of the root's
        # width; 8 = 2**3 at v = 3 is a perfect power.
        for t, w in itertools.product((0, 8, 96), (1, 8, 40, 224, 20000)):
            x, exact = _scaled_root(base**n, v, t)
            lo, hi, e, flag = arith._root_bracket(base**n, base, v, t, w)
            assert flag is exact and exact == (integer_root(base, v) ** v == base)
            if lo == hi:
                assert (lo, e) == (x, 0)
            else:
                assert hi == lo + 1 and lo > 1 << w and w < x.bit_length()
                assert lo << e <= x <= x + (not exact) <= hi << e

    @pytest.mark.parametrize("m, p", [(8, 0), (8, -3), (-8, 3), (-1, 1)])
    def test_refusals(self, m, p):
        with pytest.raises(DomainError):
            integer_root(m, p)


class TestExtNat:
    def test_infinity_reciprocal(self):
        assert unit_reciprocal(INFINITY) == 0
        assert unit_reciprocal(4) == F(1, 4)

    def test_infinity_ordering(self):
        assert INFINITY > 10**100
        assert not (INFINITY < 3)
        assert INFINITY == INFINITY
        assert INFINITY != 5

    def test_infinity_orders_against_ints_and_itself(self):
        for n in (0, 3, 10**100):
            assert (INFINITY < n, INFINITY <= n, INFINITY > n, INFINITY >= n) == (
                False, False, True, True)
            assert (n < INFINITY, n <= INFINITY, n > INFINITY, n >= INFINITY) == (
                True, True, False, False)
        assert (INFINITY < INFINITY, INFINITY <= INFINITY) == (False, True)
        assert (INFINITY > INFINITY, INFINITY >= INFINITY) == (False, True)

    @pytest.mark.parametrize("op", [operator.lt, operator.le, operator.gt, operator.ge])
    def test_infinity_refuses_to_order_against_a_fraction(self, op):
        # Only ints and INFINITY itself are ordered against INFINITY.
        with pytest.raises(TypeError):
            op(INFINITY, F(1))
        with pytest.raises(TypeError):
            op(F(1), INFINITY)

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

    def test_order_and_containment_across_denominators(self):
        # Both are cross-multiplied: numerators alone order none of these.
        with pytest.raises(DomainError, match=r"interval \[1/2, 2/5\] has its endpoints out"):
            Enclosure(F(1, 2), F(2, 5))
        with pytest.raises(DomainError, match=r"interval \[-1/4, -1/3\] has its endpoints out"):
            Enclosure(F(-1, 4), F(-1, 3))
        assert Enclosure(F(3, 5), F(2, 3)).width == F(1, 15)
        assert Enclosure(F(-2, 3), F(-3, 5)).width == F(1, 15)
        assert Enclosure(F(-7, 3), F(5, 2)).lo == F(-7, 3)
        assert Enclosure(F(2, 6), F(1, 3)).is_exact  # equal ends
        outer = Enclosure(F(-3, 5), F(2, 3))
        assert outer.contains_interval(Enclosure(F(-3, 5), F(2, 3)))  # equal ends
        assert outer.contains_interval(Enclosure(F(-4, 7), F(5, 8)))
        assert not outer.contains_interval(Enclosure(F(-2, 3), F(1, 2)))  # lo escapes
        assert not outer.contains_interval(Enclosure(F(1, 2), F(3, 4)))  # hi escapes
        assert not Enclosure.exact(F(-1, 3)).contains_interval(Enclosure(F(-1, 2), F(-1, 3)))

    @given(
        st.lists(st.fractions(min_value=-3, max_value=3, max_denominator=10**4), min_size=4,
                 max_size=4),
    )
    def test_order_and_containment_match_fraction_order(self, ends):
        a, b, c, d = ends
        if a > b:
            with pytest.raises(DomainError, match="endpoints out of order"):
                Enclosure(a, b)
            return
        outer = Enclosure(a, b)
        if c <= d:
            assert outer.contains_interval(Enclosure(c, d)) == (a <= c and d <= b)

    def test_enclosure_arithmetic(self):
        a = Enclosure(F(1), F(2))
        b = Enclosure(F(3), F(4))
        assert a.mul_pos(b) == Enclosure(F(3), F(8))
        assert b.div_pos(a) == Enclosure(F(3, 2), F(4))
        assert a.mul_pos(Enclosure.exact(F(1, 2))) == Enclosure(F(1, 2), F(1))

    def test_enclosure_bounds_are_fractions(self):
        mid = Enclosure(0.25, 0.5).midpoint
        assert mid == F(3, 8) and type(mid) is F
        e = Enclosure(2, 3)
        assert type(e.lo) is F and type(e.hi) is F
        assert e == Enclosure(F(2), F(3))


class TestRecords:
    """The frozen value types that arith._record builds."""

    def test_equality_and_hash(self):
        a, b = Enclosure(F(1, 3), F(1, 2)), Enclosure(F(1, 3), F(1, 2))
        assert a == b and hash(a) == hash(b) and len({a, b}) == 1
        assert a != Enclosure(F(1, 3), F(2, 3))
        assert PierceSeq.finite((2, 3)) == PierceSeq((2, 3)) != PierceSeq.finite((2, 4))
        assert hash(LinearRule(2)) == hash(LinearRule(offset=2))

    def test_other_types_are_never_equal(self):
        cell = fundamental_interval((2,))
        interval = Enclosure(cell.left, cell.right)
        assert interval != cell and cell != interval

        @arith._record
        class Pair:
            lo: F
            hi: F

        e = Enclosure(cell.left, cell.right)
        assert Pair(cell.left, cell.right) != e and e != Pair(cell.left, cell.right)

    def test_fields_are_frozen(self):
        e = Enclosure(F(0), F(1))
        with pytest.raises(AttributeError):
            e.lo = F(1, 2)
        with pytest.raises(AttributeError):
            del e.hi
        seq = PierceSeq.finite((2,))
        with pytest.raises(AttributeError):
            seq.prefix = (3,)
        assert e.lo == 0 and seq.prefix == (2,)

    def test_keywords_defaults_and_arity(self):
        assert LinearRule() == LinearRule(0) == LinearRule(offset=0)
        assert TupleEnumeration(3) == TupleEnumeration(count=3, tuples=None)
        assert PierceSeq(prefix=(2,)) == PierceSeq((2,), None) == PierceSeq.finite([2])
        assert PierceSeq(rule=LinearRule()).rule == LinearRule()
        cell = fundamental_interval((2,))
        assert FundamentalInterval((2,), diameter=cell.diameter, right=cell.right,
                                   left=cell.left) == cell
        with pytest.raises(TypeError, match="missing"):
            FundamentalInterval((2,), F(1, 3))
        for args, kwargs in [((1, 2), {}), ((), {"scale": 2}), ((1,), {"offset": 1})]:
            with pytest.raises(TypeError, match="unexpected"):
                LinearRule(*args, **kwargs)

    def test_post_init_normalises(self):
        seq = PierceSeq([2, 5])
        assert seq.prefix == (2, 5) and type(seq.prefix) is tuple
        assert PowerFloorRule([2], F(1, 2)).prefix == (2,)
        with pytest.raises(DomainError, match="either a finite prefix or a rule"):
            PierceSeq(None, None)

    def test_repr(self):
        assert repr(Enclosure(F(1, 3), F(1, 2))) == "Enclosure(lo=Fraction(1, 3), hi=Fraction(1, 2))"
        assert repr(PierceSeq(rule=LinearRule())) == "PierceSeq(prefix=None, rule=LinearRule(offset=0))"

    def test_import_loads_no_dataclasses(self):
        code = (
            "import sys; before = set(sys.modules); import piercelab, piercelab.cli; "
            "print(*sorted(set(sys.modules) - before))"
        )
        src = os.path.dirname(os.path.dirname(piercelab.__file__))
        path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
        out = subprocess.run([sys.executable, "-c", code], env={**os.environ, "PYTHONPATH": path},
                             capture_output=True, text=True, check=True).stdout.split()
        assert "piercelab.cli" in out
        assert not {"dataclasses", "inspect"} & set(out)


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
    """_log2_ends along a run gives exactly the lower ends of log2_bounds, sharing its cache."""

    @staticmethod
    def check(monkeypatch, ns, prefill=()):
        expected = [decimal_log2_floor(n, arith.LOG2_SCALE_BITS) for n in ns]
        monkeypatch.setattr(arith, "_LOG2_CACHE", {})
        for n in prefill:
            log2_bounds(n)
        lows = arith._log2_ends(ns)[0]
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
        ns = [integer_root(c**4, 3) for c in range(b, b + length)]
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
        assert len(arith._log2_ends(range(50_000, 60_000))[0]) == 10_000
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
        lows = arith._log2_ends(ns)[0]
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

    def test_ln_of_one_is_exactly_zero(self):
        assert ln_enclosure(1) == Enclosure.exact(0)

    @pytest.mark.parametrize("k", [1, 2, 10, 64])
    def test_ln_of_a_power_of_two_is_k_ln2(self, k):
        # log2(2**k) = k exactly, so only ln 2's width remains
        assert ln_enclosure(2**k) == Enclosure.exact(k).mul_pos(ln2_enclosure(32))


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
