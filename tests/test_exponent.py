import decimal
import math
from decimal import Decimal as D
from fractions import Fraction as F
from unittest import mock

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from piercelab import arith, exponent, rules
from piercelab.arith import (
    INFINITY,
    DomainError,
    Enclosure,
    integer_root,
    log2_bounds,
    log2_enclosure,
)
from piercelab.exponent import (
    Verdict,
    classify_divergence,
    estimate_exponent,
    estimate_point_exponent,
    exponent_window,
    growth_ratio,
    reciprocal_power_sum,
)
from piercelab.constructions import divergent_tail_rule
from piercelab.dimension import sample_digit_statistics
from piercelab.pierce import DigitStatus
from piercelab.rules import (
    BitPerturbedRule,
    LinearRule,
    PowerFloorRule,
)
from piercelab.space import PierceSeq, SIGMA_ZERO

SQUARES = PowerFloorRule((1,), F(1, 2))  # 1, 4, 9, 16, ...
POWERS_OF_TWO = PierceSeq.finite(tuple(2**k for k in range(1, 2**12 + 1)))


class TestGrowthRatio:
    def test_infinite_tail_is_zero(self):
        assert growth_ratio(SIGMA_ZERO, 5).is_exact
        assert growth_ratio(SIGMA_ZERO, 5).lo == 0

    def test_identity_sequence(self):
        enc = growth_ratio(PierceSeq.infinite(LinearRule(0)), 7)
        assert F(1) in enc  # log 7 / log 7

    def test_squares_exact_half(self):
        enc = growth_ratio(PierceSeq.infinite(SQUARES), 8)
        assert F(1, 2) in enc  # log 8 / log 64
        assert enc.width <= F(1, 1 << 30)

    def test_index_domain(self):
        with pytest.raises(DomainError):
            growth_ratio(SIGMA_ZERO, 1)

    @given(st.integers(2, 500))
    @settings(max_examples=40)
    def test_range(self, n):
        for seq in (
            PierceSeq.infinite(SQUARES),
            PierceSeq.infinite(PowerFloorRule((2,), 0)),
            PierceSeq.finite(tuple(range(2, 40, 3))),
        ):
            enc = growth_ratio(seq, n)
            assert 0 <= enc.lo and enc.hi <= 1


class TestWindows:
    def test_window_grows_monotonically(self):
        sups = [exponent_window(POWERS_OF_TWO, 2, hi).hi for hi in (4, 8, 16, 64)]
        assert all(a <= b for a, b in zip(sups, sups[1:]))

    def test_sigma_zero(self):
        est = estimate_exponent(SIGMA_ZERO, 100)
        assert est.sup.is_exact and est.sup.lo == 0
        assert not est.certified

    def test_geometric_rule_decays(self):
        est = estimate_exponent(POWERS_OF_TWO, 2**10)
        assert est.sup.hi <= F(16, 100)
        # decreasing trend across window sizes; the true exponent is 0
        sups = [estimate_exponent(POWERS_OF_TWO, 2**e).sup.hi for e in (8, 10, 12)]
        assert sups[0] > sups[1] > sups[2]

    def test_squares_window_pins_half(self):
        est = estimate_exponent(PierceSeq.infinite(SQUARES), 10**3)
        assert F(1, 2) in est.sup
        assert est.sup.width <= F(1, 1000)

    def test_window_bounds_recorded(self):
        est = estimate_exponent(PierceSeq.infinite(SQUARES), 1000)
        assert (est.window_lo, est.window_hi) == (500, 1000)


def reference_ratio(seq, n):
    """growth_ratio written out on Fraction enclosures of both logs."""
    num = log2_enclosure(n)
    if seq.is_finite:
        d = seq.term(n)
        if d is INFINITY:
            return Enclosure.exact(0)
        den = log2_enclosure(d)
    else:
        ((d_lo, d_hi, d_scale),) = seq.rule.log2_term_run(n, n)
        den = Enclosure(F(d_lo, d_scale), F(d_hi, d_scale))
    lo = max(num.lo / den.hi, F(0))
    hi = min(num.hi / max(den.lo, num.lo), F(1))
    return Enclosure(lo, hi)


def reference_window(seq, lo, hi):
    """Pointwise maxima over lo..hi; indices past finite digits give exact 0."""
    ratios = [reference_ratio(seq, n) for n in range(max(lo, 2), hi + 1)]
    return Enclosure(
        max((r.lo for r in ratios), default=F(0)),
        max((r.hi for r in ratios), default=F(0)),
    )


class ZeroLowerLogIdentity(LinearRule):
    """k -> k with log bounds [0, hi]: only d_n >= n keeps the ratio finite."""

    def log2_term_run(self, lo, hi):
        return [(0, up, den) for _, up, den in super().log2_term_run(lo, hi)]


class DoubledScaleLogIdentity(LinearRule):
    """k -> k with log bounds over 2 * LOG2_SCALE: the window must rescale them."""

    def log2_term_run(self, lo, hi):
        return [(2 * a, 2 * b, 2 * den) for a, b, den in super().log2_term_run(lo, hi)]


# (seq, lo, hi, where exponent_window starts reading a monotone rule tail:
# "hi", down from the window's end, "tail", up from the tail's first index,
# "all", from the window's end without a stop, or None, every index in order)
REFERENCE_SCANS = [
    # prefix digits, then materialised floors of small bases
    (PierceSeq.infinite(PowerFloorRule((2, 5, 11), F(1, 2))), 2, 300, "hi"),
    # bases from 2**18 up: the 3/b slack bound, nothing materialised
    (PierceSeq.infinite(PowerFloorRule((2**18,), F(2, 3))), 2, 300, None),
    # p == 1: exact scaling, with q == 1 and with q == k (the tower from index 3 on)
    (PierceSeq.infinite(PowerFloorRule((3,), F(1))), 2, 300, "hi"),
    (PierceSeq.infinite(PowerFloorRule((2,), 0)), 2, 200, None),
    (PierceSeq.infinite(LinearRule(3)), 2, 300, "hi"),
    # d_n = n: the upper bound is clamped at 1, also when the log bounds are loose
    (PierceSeq.infinite(LinearRule(0)), 2, 100, None),
    (PierceSeq.infinite(ZeroLowerLogIdentity()), 2, 100, None),
    (PierceSeq.infinite(DoubledScaleLogIdentity()), 2, 100, None),
    # past the pattern the bases are 2k - 1: a monotone tail
    (PierceSeq.infinite(BitPerturbedRule(F(0), (0, 1, 1, 0, 1))), 2, 200, "tail"),
    (PierceSeq.infinite(BitPerturbedRule(F(2, 3), (0, 1, 1, 0, 1, 0, 1))), 2, 300, "hi"),
    (PierceSeq.infinite(BitPerturbedRule(F(1, 2), (1, 1, 0, 1))), 2, 300, "hi"),  # p == 1
    # windows that run past the finite digits, partly and wholly
    (PierceSeq.finite(tuple(k**3 for k in range(1, 40))), 10, 100, None),
    (PierceSeq.finite((2, 5, 11)), 5, 20, None),
]
REFERENCE_CASES = [scan[:3] for scan in REFERENCE_SCANS]

# log2 16 = 4 is a whole bit below its bit length, 5: only the
# coarse bound 4 keeps index 3 (ratio 0.396) against index 2's 0.356
POWER_OF_TWO_CASE = (PierceSeq.finite((1, 7, 16)), 2, 3)

# the scan order's edges, after the cases above
TAIL_SCANS = [
    (PierceSeq.infinite(PowerFloorRule((), F(1, 3))), 2, 300, "hi"),
    # b_k = k: no monotone bound for constant q
    (PierceSeq.infinite(PowerFloorRule((1,), F(1, 2))), 2, 300, None),
    (PierceSeq.infinite(PowerFloorRule((2,), 0)), 3, 200, "tail"),
    (PierceSeq.infinite(PowerFloorRule((1, 2), 0)), 2, 200, "tail"),
    # a window inside the prefix
    (PierceSeq.infinite(PowerFloorRule((2, 5, 11, 20, 30), F(1, 2))), 2, 4, None),
    # bases near 2**32 at p = 1: the ratio's trend lies below the logs' resolution
    (PierceSeq.infinite(LinearRule(3)), 2**32 - 8, 2**32 - 1, "all"),
    (PierceSeq.infinite(BitPerturbedRule(F(3, 4), (0, 1, 1, 0, 1, 0, 1))), 2, 300, "hi"),
    # p > 1: floors below 2**18 carry the slack; c = 0 and bases reaching 2**18 in order
    (PierceSeq.infinite(PowerFloorRule((3, 7), F(3, 4))), 2, 300, "hi"),
    (PierceSeq.infinite(PowerFloorRule((2,), F(3, 4))), 500, 1000, "hi"),
    (PierceSeq.infinite(PowerFloorRule((1,), F(3, 4))), 2, 300, None),
    (PierceSeq.infinite(PowerFloorRule((3, 7), F(3, 4))), 2**18 - 100, 2**18, None),
    # bases past 2**32 at p = 1: c = 2**32 stops short; c = 1 fails S*c >= 2*(k + c)
    (PierceSeq.infinite(LinearRule(2**32)), 2**32, 2**32 + 300, "hi"),
    (PierceSeq.infinite(LinearRule(1)), 2**32 + 10, 2**32 + 40, "all"),
    # bit-perturbed tails at each alpha of the lambda command's mix; p > 1 windows whose
    # bases pass 2**18, the bases 2k - 1 and then k + c, are read in order
    (PierceSeq.infinite(BitPerturbedRule(F(0), (1, 0, 1, 1, 0, 0, 1, 1))), 2, 300, "tail"),
    (PierceSeq.infinite(BitPerturbedRule(F(1, 2), (1, 0, 1, 1, 0, 0, 1, 1, 1))), 150, 600, "hi"),
    (PierceSeq.infinite(BitPerturbedRule(F(3, 4), (0, 1, 1, 1, 0, 1, 0, 1))), 300, 900, "hi"),
    (PierceSeq.infinite(BitPerturbedRule(F(1), (1, 1, 0, 0, 1, 0, 1, 1))), 2, 400, "hi"),
    (PierceSeq.infinite(BitPerturbedRule(F(3, 4), (1, 0, 1))), 2**17 - 100, 2**17 + 100, None),
    (PierceSeq.infinite(PowerFloorRule((3, 7), F(3, 4))), 2**18 - 3000, 2**18 + 300, None),
]
TAIL_CASES = [scan[:3] for scan in TAIL_SCANS]

CHUNKED_SCANS = (
    REFERENCE_SCANS
    + [(PierceSeq.finite(tuple(3 * k * k + 1 for k in range(1, 60))), 2, 70, None),
       (*POWER_OF_TWO_CASE, None)]
    + TAIL_SCANS
)


class TestReferenceWindow:
    @pytest.mark.parametrize("seq, lo, hi", REFERENCE_CASES + [POWER_OF_TWO_CASE] + TAIL_CASES)
    def test_window_equals_reference(self, seq, lo, hi):
        assert exponent_window(seq, lo, hi) == reference_window(seq, lo, hi)

    @pytest.mark.parametrize(
        "seq, lo, hi, end",
        CHUNKED_SCANS,
        ids=[f"seq{i}-{lo}-{hi}" for i, (_, lo, hi, _) in enumerate(CHUNKED_SCANS)],
    )
    def test_chunked_window_equals_reference(self, seq, lo, hi, end, monkeypatch):
        # Chunks of 7 put chunk seams inside every window, the finite
        # prefix's end included.
        monkeypatch.setattr(exponent, "_WINDOW_CHUNK", 7)
        batches = []
        ends = exponent._log2_ends

        def recording_ends(ns):
            batches.append((isinstance(ns, range), list(ns)))
            return ends(ns)

        monkeypatch.setattr(exponent, "_log2_ends", recording_ends)
        assert exponent_window(seq, lo, hi) == reference_window(seq, lo, hi)
        top = min(hi, seq.depth) if seq.is_finite else hi
        window = list(range(max(lo, 2), top + 1))
        if end is None:  # the index batches are ranges, the digit ones are not
            assert [n for is_range, ns in batches if is_range for n in ns] == window
            return
        # the prefix in order, then one contiguous run of the tail from the
        # end that holds its maximum, stopped short of the other end
        m, a, c, alpha = seq.rule._monotone_tail()
        head = [n for n in window if n <= m]
        indices = []
        while len(indices) < len(head):
            indices += batches.pop(0)[1]
        assert indices == head
        # each tail run reads its indices and their bases a*n + c in one batch, in order,
        # and at p > 1 then the logs of some of its floors
        tail = []
        while batches:
            ns = batches.pop(0)[1]
            run = next(ns[:n] for n in range(1, len(ns) + 1)
                       if ns == sorted({*ns[:n], *(a * k + c for k in ns[:n])}))
            assert run == list(range(run[0], run[-1] + 1))
            if alpha.numerator > 1:
                assert set(batches.pop(0)[1]) <= set(seq.rule.terms_run(run[0], run[-1]))
            tail += run
        assert sorted(tail) == list(range(min(tail), max(tail) + 1))
        assert (min(tail) == window[len(head)]) if end == "tail" else (max(tail) == hi)
        assert (len(tail) == len(window) - len(head)) if end == "all" else (
            len(tail) < len(window) - len(head))

    @pytest.mark.parametrize("seq, lo, hi", REFERENCE_CASES + [POWER_OF_TWO_CASE] + TAIL_CASES)
    def test_growth_ratio_equals_reference(self, seq, lo, hi):
        for n in range(max(lo, 2), hi + 1):
            assert growth_ratio(seq, n) == reference_ratio(seq, n)


def per_index_window(prefix, lo, hi):
    """A finite window scanned index by index on log2_bounds, with the clamp at 1."""
    lows, highs = [F(0)], [F(0)]
    for n in range(max(lo, 2), min(hi, len(prefix)) + 1):
        n_lo, n_hi = log2_bounds(n)
        d_lo, d_hi = log2_bounds(prefix[n - 1])
        lows.append(F(n_lo, d_hi))
        highs.append(F(1) if d_lo <= n_hi else F(n_hi, d_lo))
    return Enclosure(max(lows), max(highs))


@st.composite
def finite_prefixes(draw):
    """Strictly increasing digits mixing clamps, exact ties, powers of two and jumps."""
    digits, last = [], 0
    steps = st.tuples(st.sampled_from(["clamp", "square", "power", "jump", "scale"]),
                      st.integers(0, 2**40))
    for n, (kind, r) in enumerate(draw(st.lists(steps, min_size=1, max_size=40)), start=1):
        d = {
            "clamp": last + 1,  # d_n near n: the upper ratio is clamped at 1
            "square": n * n,  # ratio 1/2 exactly at every power-of-two n: ties
            "power": 1 << last.bit_length(),  # log2 d a whole bit below its bit length
            "jump": last + 1 + r,
            "scale": last * (2 + r % 7),  # steep growth, as in sampled points
        }[kind]
        last = max(d, last + 1)
        digits.append(last)
    return tuple(digits)


class TestPrunedWindow:
    @given(finite_prefixes(), st.integers(1, 45), st.integers(0, 45), st.integers(1, 9))
    @settings(max_examples=300, deadline=None)
    def test_equals_the_per_index_scan(self, prefix, lo, length, chunk):
        # Chunks of at most 9 put seams inside most windows: later chunks
        # prune against the lower maximum of earlier ones.
        with mock.patch.object(exponent, "_WINDOW_CHUNK", chunk):
            got = exponent_window(PierceSeq.finite(prefix), lo, lo + length)
        assert got == per_index_window(prefix, lo, lo + length)

    def test_most_sampled_digits_skip_the_logs(self, monkeypatch):
        logged = []
        ends = exponent._log2_ends

        def recording_ends(ns):  # the index batches are ranges, the digit ones are not
            if not isinstance(ns, range):
                logged.extend(ns)
            return ends(ns)

        monkeypatch.setattr(exponent, "_log2_ends", recording_ends)
        report = sample_digit_statistics(4096, 20, 20260809)
        window = sum(s.depth - max(2, -(-s.depth // 2)) + 1 for s in report.samples)
        assert window > 500 and 5 * len(logged) < window


@st.composite
def monotone_windows(draw):
    """(rule, lo, hi) over tails of floor((k + c)**(q/p)) and (k + c)**k, c = 0 and c >= 1,
    p = 1..7: windows from small indices on, and across the 2**18 seam of the bases."""
    kind = draw(st.sampled_from(["prefix", "identity-prefix", "linear"]))
    if kind == "linear":
        rule = LinearRule(draw(st.integers(0, 10)))
    else:
        if kind == "prefix":  # c = d_M - M >= 1, or 1 after an empty prefix
            prefix = draw(st.lists(st.integers(2, 300), max_size=5, unique=True))
        else:  # 1, 2, ..., M: c = 0
            prefix = range(1, draw(st.integers(1, 6)) + 1)
        alpha = draw(st.sampled_from([F(0), F(1)]) | st.integers(2, 9).map(lambda q: F(1, q))
                     | st.tuples(st.integers(2, 7), st.integers(1, 21)).map(
                         lambda t: F(t[0], t[0] + t[1])))
        rule = PowerFloorRule(tuple(sorted(prefix)), alpha)
    seam = (1 << 18) - rule._bases(0, 0)[0]
    hi = draw(st.integers(0, 10**6) | st.integers(0, len(rule.prefix) + 300)
              | st.integers(seam - 300, seam + 300))
    return rule, draw(st.integers(max(0, hi - 600), hi + 2)), hi


class TestMonotoneTails:
    @given(monotone_windows(), st.integers(1, 40))
    @example((PowerFloorRule((2,), F(4, 5)), 404, 474), 4096)
    @example((PowerFloorRule((), F(4, 5)), 14348, 14469), 4096)
    @example((PowerFloorRule((3, 7), F(7, 8)), 35879, 35978), 4096)
    @settings(max_examples=140, deadline=None)
    def test_equals_the_reference(self, window, chunk):
        # windows of at most 600 indices keep the per-index reference cheap
        rule, lo, hi = window
        seq = PierceSeq.infinite(rule)
        with mock.patch.object(exponent, "_WINDOW_CHUNK", chunk):
            assert exponent_window(seq, lo, hi) == reference_window(seq, lo, hi)

    @given(st.integers(2, 1 << 40) | st.integers((1 << 32) - 300, (1 << 32) + 300),
           st.integers(0, 100), st.integers(0, 64), st.integers(1, 3), st.integers(0, 1 << 40))
    @example(300, 0, 2, 2, 298)  # b = 2x - 1 from x = 2: only the end x = first refuses
    @example(5, 0, 2, 2, 3)  # ... and up to k = 5 neither end does
    @example(20, 0, 3, 3, 18)  # b = 3x - 2
    @settings(max_examples=200)
    def test_ceiling_exceeds_the_bound_function(self, k, c, q, a, gap):
        # H(x) = (S log2 x + 1)/(q S log2 b - q), b = a x + c >= x (c >= 1 - a), over [first, k]
        # at 50 digits; q = 0 is the tower, H(x) = (S log2 x + 1)/(x (S log2 b - 1)) past k
        c += 1 - a
        first, q_k = max(2, k - gap), q or k
        n_lo, d_lo = log2_bounds(k)[0], q_k * log2_bounds(a * k + c)[0]
        num, den = exponent._tail_ceiling(k, first, a, c, 1 if q else 0, q or 1, q_k, n_lo, d_lo)
        # at p = 1 (sigma = q), phi' >= 0 reads den*b >= num*x*q*a*(1 + 2q/S): checked at both
        # ends of [first, k] on the ceiling (n_lo + 2)/(d_lo - q); the tower needs no condition
        S = arith.LOG2_SCALE
        rises = all((d_lo - q) * (a * x + c) * S >= (n_lo + 2) * x * q * a * (S + 2 * q)
                    for x in (first, k))
        assert (den != 0) == (rises or not q)
        if den == 0:
            return
        with decimal.localcontext() as ctx:
            ctx.prec = 50
            scale, ln2 = D(S), D(2).ln()

            def h(x):
                log_b = scale * D(a * x + c).ln() / ln2
                return (scale * D(x).ln() / ln2 + 1) / (q * log_b - q if q else x * (log_b - 1))

            # the ceiling bounds every index the scan leaves unread
            unread = {first, (first + k) // 2, k - 1} if q else {k + 1, 2 * k} if k >= 3 else set()
            for x in unread | {k}:
                assert D(num) / D(den) > h(x)

    @given(st.integers(2, 7), st.integers(1, 21), st.integers(0, 300),
           st.integers(2, 3000), st.integers(0, 1 << 18), st.integers(1, 2))
    @example(3, 1, 1, 2, 998, 1)  # the slack of F = 4 makes H fall near 1000: refused
    @example(3, 1, 100, 2, 498, 1)  # a ceiling without the slack lies below H(k)
    @example(3, 1, 1, 19001, 999, 1)  # an exponent-scan block at c = 1
    @example(2, 1, 1, 200, 1800, 1)  # only the term of the slope s' refuses
    @example(3, 1, 0, 8, 292, 2)  # b = 2x - 1, the bit-perturbed tail at alpha = 3/4
    @settings(max_examples=200)
    def test_slack_ceiling_exceeds_h_where_h_increases(self, p, dq, c, first, span, a):
        # H(x) = (S log2 x + 1)/(r S log2 b - s(x)), b = a x + c >= x (c >= 1 - a), r = q/p,
        # at 50 digits, with the falling slack s(x) = 1 + S/((u - 1) ln 2), u = b**r; the
        # window's sigma comes from the floor F of the first base and the frontier's sigma_k
        # from F_k
        q, c = p + dq, c + 1 - a
        assume(math.gcd(p, q) == 1)
        k = min(first + span, ((1 << 18) - 1 - c) // a)
        S = arith.LOG2_SCALE
        with decimal.localcontext() as ctx:
            ctx.prec = 50
            scale, ln2, r = D(S), D(2).ln(), D(q) / D(p)

            def slack(floor):
                return 1 + int((scale / ((floor - 1) * ln2)).to_integral_value(decimal.ROUND_CEILING))

            sigma, sigma_k = (slack(integer_root((a * x + c) ** q, p)) for x in (first, k))
            n_lo, d_lo = log2_bounds(k)[0], q * log2_bounds(a * k + c)[0] // p
            num, den = exponent._tail_ceiling(k, first, a, c, p, q, sigma, n_lo, d_lo, sigma_k)
            # refused exactly where phi' >= 0, den*b >= num*x*r*a*(1 + 2 sigma/S), fails at
            # an end of [first, k], on the ceiling (n_lo + 2)/(d_lo - sigma_k)
            rises = all(p * (d_lo - sigma_k) * (a * x + c) * S
                        >= (n_lo + 2) * x * q * a * (S + 2 * sigma) for x in (first, k))
            assert (den != 0) == rises
            if den == 0:
                return

            def h(x):
                u = (D(a * x + c).ln() * r).exp()
                falling = 1 + scale / ((u - 1) * ln2)
                return (scale * D(x).ln() / ln2 + 1) / (r * scale * D(a * x + c).ln() / ln2 - falling)

            for x in {first, (first + k) // 2, k}:
                assert D(num) / D(den) > h(x)

    @given(st.integers(2, 7), st.integers(1, 21), st.integers(1, 300), st.integers(2, 1 << 18))
    @settings(max_examples=200)
    def test_falling_slack_exceeds_every_floor_loss(self, p, dq, c, x):
        # s(x) = 1 + S/((u - 1) ln 2), u = (x + c)**r, at 50 digits: at least S r log2(x + c)
        # less the floor's lower log end, and at most 1 + ceil(K/(F - 1)) of its floor F
        q = p + dq
        assume(math.gcd(p, q) == 1 and x + c < 1 << 18)
        floor = integer_root((x + c) ** q, p)
        K = arith._log2_constants(arith.LOG2_SCALE_BITS - 1)[1]
        with decimal.localcontext() as ctx:
            ctx.prec = 50
            scale, ln2, r = D(arith.LOG2_SCALE), D(2).ln(), D(q) / D(p)
            u = (D(x + c).ln() * r).exp()
            falling = 1 + scale / ((u - 1) * ln2)
            assert r * scale * D(x + c).ln() / ln2 - log2_bounds(floor)[0] <= falling
            assert falling <= 1 - (-K // (floor - 1))

    @pytest.mark.parametrize("prefix, alpha, lo, hi", [
        ((2,), F(3, 4), 2, 300),
        ((3, 7), F(5, 7), 40, 1500),
        ((), F(2, 3), 19001, 20000),
    ])
    def test_slack_covers_every_floor_of_the_window(self, prefix, alpha, lo, hi, monkeypatch):
        # sigma >= S r log2(x + c) - d_lo(x) for every tail index x of the window; at each
        # frontier k, d_lo(k) <= S r log2(k + c) and sigma_k >= s(k), the falling slack
        # that bounds the loss of every x >= k
        sigmas, frontiers = set(), []
        ceiling = exponent._tail_ceiling

        def recording_ceiling(k, first, a, c, p, q, sigma, n_lo, d_lo, sigma_k):
            sigmas.add(sigma)
            frontiers.append((k, d_lo, sigma_k))
            return ceiling(k, first, a, c, p, q, sigma, n_lo, d_lo, sigma_k)

        monkeypatch.setattr(exponent, "_tail_ceiling", recording_ceiling)
        rule = PowerFloorRule(prefix, alpha)
        exponent_window(PierceSeq.infinite(rule), lo, hi)
        (sigma,) = sigmas
        c, r = rule._bases(0, 0)[0], D(alpha.denominator) / D(alpha.numerator)
        assert frontiers
        with decimal.localcontext() as ctx:
            ctx.prec = 50
            scale, ln2 = D(arith.LOG2_SCALE), D(2).ln()
            for x in range(max(lo, len(prefix) + 1), hi + 1):
                lost = r * scale * D(x + c).ln() / ln2 - log2_bounds(rule.term(x))[0]
                assert lost <= sigma
            for k, d_lo, sigma_k in frontiers:
                assert d_lo <= r * scale * D(k + c).ln() / ln2
                assert sigma_k >= 1 + scale / (((D(k + c).ln() * r).exp() - 1) * ln2)

    @pytest.mark.parametrize("alpha, b", [
        (F(4, 5), 257756),  # the bracket's bottom lies 1 unit below p*d_lo
        (F(3, 4), 253927),  # p*d_hi = q*B_hi + 2
        (F(3, 4), 20000),
        (F(5, 7), 1500),
        (F(3, 4), 727),  # the bracket's bottom is p*d_lo
    ])
    def test_brackets_hold_every_floor(self, alpha, b, monkeypatch):
        # q*B_lo - p + 1 - ceil(K*R/F**p) <= p*d_lo, R = b**q - F**p, and p*d_hi <=
        # q*B_hi + p for every floor F of a p > 1 tail run, b = k + 1 the base of the
        # window's last index k
        p, q = alpha.numerator, alpha.denominator
        brackets = []
        unpruned = exponent._unpruned

        def recording_unpruned(lows, highs, values, tops, bottoms, a, b):
            brackets.extend(zip(values, bottoms, tops))
            return unpruned(lows, highs, values, tops, bottoms, a, b)

        monkeypatch.setattr(exponent, "_unpruned", recording_unpruned)
        seq = PierceSeq.infinite(PowerFloorRule((2,), alpha))
        assert exponent_window(seq, b - 1000, b - 1) == reference_window(seq, b - 1000, b - 1)
        assert integer_root(b**q, p) in {floor for floor, _, _ in brackets}
        for floor, bottom, top in brackets:
            d_lo, d_hi = log2_bounds(floor)
            assert bottom <= p * d_lo and p * d_hi <= top

    @pytest.mark.parametrize("prefix", [(3, 7), (2,)])
    def test_three_quarter_windows_read_few_logs(self, prefix, monkeypatch):
        # the exponent-scan blocks of alpha = 3/4, c = 5 and c = 1: per window, the
        # logs of indices and bases (at most hi + c), and of floors (above hi + c)
        limits = {
            (3, 7): {(19001, 20000): (36, 10), (1001, 2000): (16, 10)},
            (2,): {(19001, 20000): (62, 10), (1001, 2000): (28, 11)},
        }[prefix]
        seq = PierceSeq.infinite(PowerFloorRule(prefix, F(3, 4)))
        read = []
        ends = arith._log2_ends

        def counting_ends(ns):
            read.extend(ns)
            return ends(ns)

        for (lo, hi), (index_logs, floor_logs) in limits.items():
            expected = reference_window(seq, lo, hi)
            read.clear()
            with monkeypatch.context() as patch:
                for module in (exponent, rules):
                    patch.setattr(module, "_log2_ends", counting_ends)
                assert exponent_window(seq, lo, hi) == expected
            small = sum(n <= hi + seq.rule._bases(0, 0)[0] for n in read)
            assert small <= index_logs and len(read) - small <= floor_logs

    @pytest.mark.parametrize(
        "rule, top",  # top: the 1000 indices at the end that holds the maximum
        [
            (PowerFloorRule((2,), F(1, 2)), (999_001, 10**6)),
            (PowerFloorRule((2,), 0), (5 * 10**5, 500_999)),
            (BitPerturbedRule(F(1, 2), (1, 0, 1)), (999_001, 10**6)),
        ],
    )
    def test_half_million_indices_read_few_logs(self, rule, top, monkeypatch):
        seq = PierceSeq.infinite(rule)
        expected = reference_window(seq, *top)
        read = []
        ends = arith._log2_ends

        def counting_ends(ns):
            read.append(len(ns))
            return ends(ns)

        for module in (exponent, rules):
            monkeypatch.setattr(module, "_log2_ends", counting_ends)
        assert exponent_window(seq, 5 * 10**5, 10**6) == expected
        assert sum(read) <= 1024

    @pytest.mark.parametrize("alpha", [F(0), F(1, 4), F(1, 2), F(3, 4), F(1)])
    def test_bit_perturbed_windows_read_few_logs(self, alpha, monkeypatch):
        # past an 8-bit pattern the bases 2k - 1 rise twice as fast as the indices: each
        # window stops within its first runs, the indices' logs and their bases' together;
        # at alpha = 3/4 from 9 on the slack of the small floors keeps the scan going
        seq = PierceSeq.infinite(BitPerturbedRule(alpha, (1, 0, 1, 1, 0, 0, 1, 1)))
        read = []
        ends = arith._log2_ends

        def counting_ends(ns):
            read.extend(ns)
            return ends(ns)

        for module in (exponent, rules):
            monkeypatch.setattr(module, "_log2_ends", counting_ends)
        for lo, hi in [(9, 300), (500, 1000), (1000, 2000)]:
            with monkeypatch.context() as patch:
                patch.setattr(exponent, "_log2_ends", ends)
                patch.setattr(rules, "_log2_ends", ends)
                expected = reference_window(seq, lo, hi)
            read.clear()
            assert exponent_window(seq, lo, hi) == expected
            assert len(read) <= (300 if alpha == F(3, 4) and lo == 9 else 32)


@st.composite
def tail_windows(draw):
    """(rule, lo, hi) over monotone tails at c = 1..40, the first run's 8 indices
    below and above c: alpha in {2/3, 3/4, 5/7, 4/5}, 1/q, the tower, linear rules;
    windows of 1-8 indices among them, and windows that end where the bases reach 2**18."""
    c = draw(st.integers(1, 40))
    alpha = draw(st.sampled_from([F(2, 3), F(3, 4), F(5, 7), F(4, 5), F(0)])
                 | st.integers(1, 9).map(lambda q: F(1, q)))
    rule = draw(st.sampled_from([PowerFloorRule((c + 1,), alpha), LinearRule(c)]))
    seam = (1 << 18) - c
    hi = draw(st.integers(2, 400) | st.integers(2, 2 * 10**5) | st.integers(seam - 300, seam + 2))
    return rule, max(0, hi - draw(st.integers(0, 7) | st.integers(0, 500))), hi


class TestTailWindows:
    @given(tail_windows())
    @settings(max_examples=150, deadline=None)
    def test_equals_the_reference(self, window):
        rule, lo, hi = window
        seq = PierceSeq.infinite(rule)
        assert exponent_window(seq, lo, hi) == reference_window(seq, lo, hi)


@st.composite
def bit_perturbed_windows(draw):
    """(rule, lo, hi): bit-perturbed rules of patterns up to 16 bits, windows of at most 400
    indices from the pattern on, far past it, and across 2**17, where the bases 2k - 1 pass
    2**18."""
    alpha = draw(st.sampled_from([F(0), F(1, 4), F(1, 3), F(1, 2), F(2, 3), F(3, 4), F(1)]))
    rule = BitPerturbedRule(alpha, draw(st.lists(st.integers(0, 1), max_size=16)))
    hi = draw(st.integers(2, 500) | st.integers(2, 10**5) | st.integers(2**17 - 300, 2**17 + 300))
    return rule, max(0, hi - draw(st.integers(0, 8) | st.integers(0, 400))), hi


class TestBitPerturbedWindows:
    @given(bit_perturbed_windows(), st.integers(1, 40))
    @settings(max_examples=150, deadline=None)
    def test_equals_the_reference(self, window, chunk):
        rule, lo, hi = window
        seq = PierceSeq.infinite(rule)
        with mock.patch.object(exponent, "_WINDOW_CHUNK", chunk):
            assert exponent_window(seq, lo, hi) == reference_window(seq, lo, hi)


class TestLogCache:
    def test_capped_cache_keeps_the_window(self, monkeypatch):
        # b_k = k: no monotone bound, so every index of the window is read
        seq = PierceSeq.infinite(PowerFloorRule((1,), F(1, 2)))
        monkeypatch.setattr(arith, "_LOG2_CACHE", {})
        expected = exponent_window(seq, 50, 400)
        sizes = []

        class RecordingCache(dict):
            def __setitem__(self, key, value):
                super().__setitem__(key, value)
                sizes.append(len(self))

        monkeypatch.setattr(arith, "_LOG2_CACHE", RecordingCache())
        monkeypatch.setattr(arith, "_LOG2_CACHE_CAP", 16)
        assert exponent_window(seq, 50, 400) == expected
        assert len(sizes) > 16 and max(sizes) <= 16


class TestPointEstimates:
    def test_rational_point(self):
        est = estimate_point_exponent(Enclosure.exact(F(7, 10)), 64)
        assert (est.window_lo, est.window_hi) == (2, 3)
        # sup is attained at psi_2 = log 2 / log 3 = 0.6309...
        assert abs(float(est.sup.midpoint) - math.log(2) / math.log(3)) < 1e-6
        assert est.certified and est.certificate == 0
        assert est.status is DigitStatus.TERMINATED
        assert est.certified_depth == 3

    def test_zero_point(self):
        est = estimate_point_exponent(Enclosure.exact(F(0)), 10)
        assert est.certified and est.certificate == 0
        assert est.sup.lo == est.sup.hi == 0

    def test_ambiguous_interval_not_certified(self):
        est = estimate_point_exponent(Enclosure(F(2, 5), F(9, 20)), 10)
        assert not est.certified
        assert est.status is DigitStatus.AMBIGUOUS
        assert est.certified_depth == 1

    def test_exhausted_point_still_certified_rational(self):
        # the enclosure is a single rational, so exponent 0 is analytic
        # even though only 2 of the 3 digits were extracted
        est = estimate_point_exponent(Enclosure.exact(F(7, 10)), 2)
        assert est.status is DigitStatus.EXHAUSTED
        assert est.certified and est.certificate == 0


class TestCertificates:
    def test_families(self):
        assert PowerFloorRule((2,), F(1, 2)).certificate == F(1, 2)
        assert PowerFloorRule((2,), 0).certificate == 0
        assert BitPerturbedRule(F(1), (1, 0, 1)).certificate == 1
        assert LinearRule(3).certificate == 1

    def test_window_approaches_certificate(self):
        # modest window already lands within 0.05 for the square family
        rule = PowerFloorRule((2,), F(1, 2))
        est = estimate_exponent(PierceSeq.infinite(rule), 4000)
        assert abs(est.sup_value - rule.certificate) < F(5, 100)


class TestClassifyDivergence:
    def test_boundary_cases(self):
        assert classify_divergence(SQUARES, F(1, 2)) is Verdict.DIVERGENT
        assert classify_divergence(SQUARES, F(3, 4)) is Verdict.CONVERGENT
        assert classify_divergence(PowerFloorRule((), 0), F(1, 2)) is Verdict.CONVERGENT
        assert classify_divergence(LinearRule(0), F(1)) is Verdict.DIVERGENT

    def test_domain(self):
        with pytest.raises(DomainError):
            classify_divergence(SQUARES, F(0))
        with pytest.raises(DomainError):
            classify_divergence(SQUARES, F(3, 2))

    @given(
        st.fractions(min_value=F(1, 8), max_value=1, max_denominator=8),
        st.fractions(min_value=F(1, 8), max_value=1, max_denominator=8),
    )
    def test_consistent_with_certificate(self, alpha, s):
        rule = PowerFloorRule((), alpha)
        verdict = classify_divergence(rule, s)
        if s < alpha:
            assert verdict is Verdict.DIVERGENT
        elif s > alpha:
            assert verdict is Verdict.CONVERGENT


class TestPowerSums:
    def test_sigma_zero(self):
        partial = reciprocal_power_sum(SIGMA_ZERO, F(1, 2), 50)
        assert partial.sum.is_exact and partial.sum.lo == 0
        assert partial.verdict is Verdict.CONVERGENT

    def test_finite_exact(self):
        partial = reciprocal_power_sum(PierceSeq.finite((1, 3, 10)), F(1), 3)
        assert partial.sum.is_exact and partial.sum.lo == F(43, 30)
        assert partial.verdict is Verdict.CONVERGENT

    def test_squares_give_harmonic(self):
        partial = reciprocal_power_sum(PierceSeq.infinite(SQUARES), F(1, 2), 100)
        harmonic = sum(F(1, k) for k in range(1, 101))
        assert partial.sum.is_exact and partial.sum.lo == harmonic
        assert abs(float(harmonic) - 5.187) < 1e-3
        assert partial.verdict is Verdict.DIVERGENT

    def test_tower_tail_closes_early(self):
        partial = reciprocal_power_sum(PierceSeq.infinite(PowerFloorRule((), 0)), F(1, 2), 10**6)
        assert partial.sum.hi < 2
        assert partial.sum.width < F(1, 1 << 40)

    def test_finite_tail_bound_counts_only_the_prefix_digits(self):
        # the tail bound closes at 2**100 with the one digit left, not with
        # every index up to n_terms: asking for more terms than the prefix
        # holds must not widen the sum
        seq = PierceSeq.finite((2, 2**100))
        short = reciprocal_power_sum(seq, F(1), 2)
        long = reciprocal_power_sum(seq, F(1), 10**6)
        assert long.sum == short.sum == Enclosure(F(1, 2), F(1, 2) + F(1, 1 << 72))
        assert long.n_terms == 10**6

    def test_irrational_terms_enclosed(self):
        # digits 2, 3, 4, ...: sum of 1/sqrt(d) has irrational terms
        partial = reciprocal_power_sum(PierceSeq.infinite(LinearRule(1)), F(1, 2), 50)
        approx = sum(1 / math.sqrt(k + 1) for k in range(1, 51))
        # the float oracle carries ~1e-13 of its own noise; the enclosure is tighter
        assert abs(float(partial.sum.midpoint) - approx) < 1e-12
        assert partial.sum.width < F(1, 1 << 32)

    @given(st.integers(1, 60), st.integers(0, 40))
    @settings(max_examples=30)
    def test_lower_bound_monotone_in_terms(self, n, extra):
        seq = PierceSeq.infinite(LinearRule(2))
        a = reciprocal_power_sum(seq, F(1, 2), n)
        b = reciprocal_power_sum(seq, F(1, 2), n + extra)
        assert a.sum.lo <= b.sum.lo


def reference_power_sum(seq, s, n_terms, bits=64):
    """reciprocal_power_sum restated term by term in Fractions.

    Each term is bounded by 1/r for a perfect power r**q = d**p, else by
    2**shift / (r+1) and 2**shift / r with r = floor(2**shift * d**(p/q)).
    Once the upper sum's denominator passes 256 bits, both ends round
    outward to multiples of 2**-shift, as does each later term; a term
    below 2**-tiny closes the sum with that bound for each one left.
    """
    p, q = s.numerator, s.denominator
    shift, tiny = bits + 32, bits + 8
    unit = F(1, 1 << shift)
    lo = hi = F(0)
    scaled = False
    for k in range(1, n_terms + 1):
        d = seq.term(k)
        if d.bit_length() * p > tiny * q + p:
            hi += F(n_terms - k + 1, 1 << tiny)
            break
        r = arith.integer_root(d**p, q)
        if r**q == d**p:
            t_lo = t_hi = F(1, r)
        else:
            r = arith.integer_root(d**p << q * shift, q)
            t_lo, t_hi = F(1 << shift, r + 1), F(1 << shift, r)
        if scaled:
            t_lo, t_hi = math.floor(t_lo / unit) * unit, math.ceil(t_hi / unit) * unit
        lo, hi = lo + t_lo, hi + t_hi
        if not scaled and hi.denominator.bit_length() > 256:
            scaled = True
            lo, hi = math.floor(lo / unit) * unit, math.ceil(hi / unit) * unit
    return Enclosure(lo, hi)


ACCEPTANCE_S = (F(1, 4), F(1, 2), F(3, 4), F(1))


@pytest.mark.parametrize(
    "rule, s, n_terms, bits",
    [
        # the acceptance rules: perfect powers at s = alpha, irrational terms
        # off it; 3 terms stay exact, 300 take every sum past 256 bits
        (divergent_tail_rule((1, 2, 3, 4, 5), alpha, j), s, n_terms, 64)
        for alpha in ACCEPTANCE_S for s in ACCEPTANCE_S for j in (1, 5) for n_terms in (3, 300)
    ] + [
        # closed by the tail bound: after the switch to integers, and before it
        (PowerFloorRule((), 0), F(1), 10**6, 64),
        (PowerFloorRule((), 0), F(1), 10**6, 16),
        (PowerFloorRule((), F(2, 31)), F(1, 2), 10**6, 64),
        (LinearRule(1), F(1, 2), 1, 64),
    ] + [
        # terms exact from their operands: the tower's n**k at s = p/q where q | k
        (PowerFloorRule((), 0), s, 40, 64) for s in (F(1, 2), F(1, 4), F(3, 4))
    ] + [
        # every term n**4 exact at s = 1/2, and no n**3
        (PowerFloorRule((), F(1, 4)), F(1, 2), 300, 64),
        (PowerFloorRule((), F(1, 3)), F(1, 2), 300, 64),
        (LinearRule(3), F(1, 2), 300, 64),
        (BitPerturbedRule(F(1, 2), (1, 0, 1, 1)), F(1, 2), 300, 64),
        # prefix digits through one scaled root: 4, 9 and 16 are exact at s = 1/2
        (PierceSeq.finite((4, 9, 16, 27)), F(1, 2), 4, 64),
        (PowerFloorRule((4, 9, 16, 27), F(1, 2)), F(1, 2), 300, 64),
        # the switch to integers, and the tail cut, at other resolutions
        (PowerFloorRule((), F(1, 3)), F(1, 2), 300, 0),
        (PowerFloorRule((), F(1, 3)), F(1, 2), 300, 200),
        (PowerFloorRule((), 0), F(3, 4), 300, 200),
    ],
)
def test_power_sum_equals_the_per_term_reference(rule, s, n_terms, bits):
    seq = rule if isinstance(rule, PierceSeq) else PierceSeq.infinite(rule)
    partial = reciprocal_power_sum(seq, s, n_terms, bits)
    assert partial.sum == reference_power_sum(seq, s, n_terms, bits)
