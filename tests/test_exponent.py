import math
from fractions import Fraction as F
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from piercelab import arith, exponent
from piercelab.arith import (
    INFINITY,
    DomainError,
    Enclosure,
    UncertifiedRuleError,
    log2_bounds,
    log2_enclosure,
)
from piercelab.exponent import (
    Verdict,
    certified_exponent,
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
    DigitRule,
    ExplicitRule,
    LinearRule,
    PowerFloorRule,
    TowerRule,
)
from piercelab.space import PierceSeq, SIGMA_ZERO

SQUARES = PowerFloorRule((1,), F(1, 2))  # 1, 4, 9, 16, ...
POWERS_OF_TWO = ExplicitRule(lambda k: 2**k, name="2^k")


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
            PierceSeq.infinite(TowerRule((2,))),
            PierceSeq.finite(tuple(range(2, 40, 3))),
        ):
            enc = growth_ratio(seq, n)
            assert 0 <= enc.lo and enc.hi <= 1


class TestWindows:
    def test_window_grows_monotonically(self):
        seq = PierceSeq.infinite(POWERS_OF_TWO)
        sups = [exponent_window(seq, 2, hi).hi for hi in (4, 8, 16, 64)]
        assert all(a <= b for a, b in zip(sups, sups[1:]))

    def test_sigma_zero(self):
        est = estimate_exponent(SIGMA_ZERO, 100)
        assert est.sup.is_exact and est.sup.lo == 0
        assert not est.certified

    def test_geometric_rule_decays(self):
        seq = PierceSeq.infinite(POWERS_OF_TWO)
        est = estimate_exponent(seq, 2**10)
        assert est.sup.hi <= F(16, 100)
        # decreasing trend across window sizes; the true exponent is 0
        sups = [estimate_exponent(seq, 2**e).sup.hi for e in (8, 10, 12)]
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


class ZeroLowerLogIdentity(DigitRule):
    """k -> k with log bounds [0, hi]: only d_n >= n keeps the ratio finite."""

    def term(self, k):
        return k

    def log2_term_run(self, lo, hi):
        return [(0, up, den) for _, up, den in super().log2_term_run(lo, hi)]


class DoubledScaleLogIdentity(DigitRule):
    """k -> k with log bounds over 2 * LOG2_SCALE: the window must rescale them."""

    def term(self, k):
        return k

    def log2_term_run(self, lo, hi):
        return [(2 * a, 2 * b, 2 * den) for a, b, den in super().log2_term_run(lo, hi)]


REFERENCE_CASES = [
    # prefix digits, then materialised floors of small bases
    (PierceSeq.infinite(PowerFloorRule((2, 5, 11), F(1, 2))), 2, 300),
    # bases from 2**18 up: the 3/b slack bound, nothing materialised
    (PierceSeq.infinite(PowerFloorRule((2**18,), F(2, 3))), 2, 300),
    # p == 1: exact scaling, with q == 1 and with q == k
    (PierceSeq.infinite(PowerFloorRule((3,), F(1))), 2, 300),
    (PierceSeq.infinite(TowerRule((2,))), 2, 200),
    (PierceSeq.infinite(LinearRule(3)), 2, 300),
    # d_n = n: the upper bound is clamped at 1, also when the log bounds are loose
    (PierceSeq.infinite(LinearRule(0)), 2, 100),
    (PierceSeq.infinite(ZeroLowerLogIdentity()), 2, 100),
    (PierceSeq.infinite(DoubledScaleLogIdentity()), 2, 100),
    (PierceSeq.infinite(BitPerturbedRule(F(0), (0, 1, 1, 0, 1))), 2, 200),
    (PierceSeq.infinite(BitPerturbedRule(F(2, 3), (0, 1, 1, 0, 1, 0, 1))), 2, 300),
    (PierceSeq.infinite(ExplicitRule(lambda k: k * k + k, name="k^2+k")), 2, 300),
    # windows that run past the finite digits, partly and wholly
    (PierceSeq.finite(tuple(k**3 for k in range(1, 40))), 10, 100),
    (PierceSeq.finite((2, 5, 11)), 5, 20),
]

# log2 16 = 4 is a whole bit below its bit length, 5: only the
# coarse bound 4 keeps index 3 (ratio 0.396) against index 2's 0.356
POWER_OF_TWO_CASE = (PierceSeq.finite((1, 7, 16)), 2, 3)


class TestReferenceWindow:
    @pytest.mark.parametrize("seq, lo, hi", REFERENCE_CASES + [POWER_OF_TWO_CASE])
    def test_window_equals_reference(self, seq, lo, hi):
        assert exponent_window(seq, lo, hi) == reference_window(seq, lo, hi)

    @pytest.mark.parametrize(
        "seq, lo, hi",
        REFERENCE_CASES
        + [(PierceSeq.finite(tuple(3 * k * k + 1 for k in range(1, 60))), 2, 70), POWER_OF_TWO_CASE],
    )
    def test_chunked_window_equals_reference(self, seq, lo, hi, monkeypatch):
        # Chunks of 7 put chunk seams inside every window, the finite
        # prefix's end included.
        monkeypatch.setattr(exponent, "_WINDOW_CHUNK", 7)
        indices = []
        ends = exponent._log2_ends

        def recording_ends(ns):  # the index batches are ranges, the digit ones are not
            if isinstance(ns, range):
                indices.extend(ns)
            return ends(ns)

        monkeypatch.setattr(exponent, "_log2_ends", recording_ends)
        assert exponent_window(seq, lo, hi) == reference_window(seq, lo, hi)
        top = min(hi, seq.depth) if seq.is_finite else hi
        assert indices == list(range(max(lo, 2), top + 1))

    @pytest.mark.parametrize("seq, lo, hi", REFERENCE_CASES + [POWER_OF_TWO_CASE])
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


class TestLogCache:
    def test_capped_cache_keeps_the_window(self, monkeypatch):
        seq = PierceSeq.infinite(PowerFloorRule((2,), F(1, 2)))
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
        assert certified_exponent(PowerFloorRule((2,), F(1, 2))) == F(1, 2)
        assert certified_exponent(TowerRule((2,))) == 0
        assert certified_exponent(BitPerturbedRule(F(1), (1, 0, 1))) == 1
        assert certified_exponent(LinearRule(3)) == 1

    def test_uncertified_refused(self):
        with pytest.raises(UncertifiedRuleError):
            certified_exponent(POWERS_OF_TWO)

    def test_window_approaches_certificate(self):
        # modest window already lands within 0.05 for the square family
        rule = PowerFloorRule((2,), F(1, 2))
        est = estimate_exponent(PierceSeq.infinite(rule), 4000)
        assert abs(est.sup_value - certified_exponent(rule)) < F(5, 100)


class TestClassifyDivergence:
    def test_boundary_cases(self):
        assert classify_divergence(SQUARES, F(1, 2)) is Verdict.DIVERGENT
        assert classify_divergence(SQUARES, F(3, 4)) is Verdict.CONVERGENT
        assert classify_divergence(TowerRule(()), F(1, 2)) is Verdict.CONVERGENT
        assert classify_divergence(LinearRule(0), F(1)) is Verdict.DIVERGENT
        assert classify_divergence(POWERS_OF_TWO, F(1, 2)) is Verdict.UNKNOWN

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
        partial = reciprocal_power_sum(PierceSeq.infinite(TowerRule(())), F(1, 2), 10**6)
        assert partial.sum.hi < 2
        assert partial.sum.width < F(1, 1 << 40)

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

    def test_decaying_rule_rejected_past_spot_check(self):
        # strict increase is what makes the early tail bound sound; a
        # rule that decays beyond the construction spot-check must raise
        sneaky = ExplicitRule(lambda k: k if k <= 20 else 20, name="plateau")
        with pytest.raises(DomainError):
            reciprocal_power_sum(PierceSeq.infinite(sneaky), F(1, 2), 50)


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
        (TowerRule(()), F(1), 10**6, 64),
        (TowerRule(()), F(1), 10**6, 16),
        (PowerFloorRule((), F(2, 31)), F(1, 2), 10**6, 64),
        (LinearRule(1), F(1, 2), 1, 64),
    ],
)
def test_power_sum_equals_the_per_term_reference(rule, s, n_terms, bits):
    seq = PierceSeq.infinite(rule)
    partial = reciprocal_power_sum(seq, s, n_terms, bits)
    assert partial.sum == reference_power_sum(seq, s, n_terms, bits)
