import math
from fractions import Fraction as F

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from piercelab.arith import DomainError, Enclosure, GuardExceededError, pow_enclosure
from piercelab.dimension import (
    CoverParams,
    CoverVerdict,
    binomial_tuple_bound,
    covering_sum,
    enumerate_digit_tuples,
    grid_witness_sweep,
    refined_dimension_bound,
    sample_digit_statistics,
)
from piercelab.pierce import DigitStatus

# beta+eps = 1 and alpha-eps = 1/2: the small exponent pair (1, 2)
UNIT_PAIR = dict(alpha=F(3, 5), beta=F(9, 10), epsilon=F(1, 10))


class TestCoverParams:
    def test_validation(self):
        with pytest.raises(DomainError):
            CoverParams(N=1, alpha=F(3, 4), beta=F(1, 2), epsilon=F(1, 10), s=F(1), k_max=5)
        with pytest.raises(DomainError):
            CoverParams(N=1, alpha=F(1, 2), beta=F(1, 2), epsilon=F(1, 2), s=F(1), k_max=5)
        with pytest.raises(DomainError):
            CoverParams(N=6, alpha=F(1, 2), beta=F(1, 2), epsilon=F(1, 10), s=F(1), k_max=5)

    def test_derived_exponents(self):
        p = CoverParams(N=2, s=F(1), k_max=10, **UNIT_PAIR)
        assert p.lower_exponent == 1
        assert p.upper_exponent == 2
        assert p.threshold == 1  # (beta+eps) * (2 - 1)


class TestEnumeration:
    def test_spec_count_six(self):
        p = CoverParams(N=2, s=F(1), k_max=10, **UNIT_PAIR)
        res = enumerate_digit_tuples(p, 2, include_listing=True)
        assert res.count == 6
        assert res.tuples == (
            (1, 2), (1, 3), (2, 3), (1, 4), (2, 4), (3, 4),
        ) or sorted(res.tuples) == sorted(
            [(1, 2), (1, 3), (2, 3), (1, 4), (2, 4), (3, 4)]
        )

    def test_spec_bound_84(self):
        p = CoverParams(N=1, s=F(1), k_max=10, **UNIT_PAIR)
        assert binomial_tuple_bound(p, 3) == math.comb(9, 3) == 84
        res = enumerate_digit_tuples(p, 3)
        assert res.count <= 84

    def test_bound_zero_when_cap_below_k(self):
        assert math.comb(2, 3) == 0  # the binomial convention the bound relies on

    @given(
        st.sampled_from([F(7, 10), F(4, 5), F(9, 10)]),
        st.sampled_from([F(9, 10), F(1)]),
        st.integers(1, 3),
        st.integers(2, 6),
    )
    @settings(max_examples=30, deadline=None)
    def test_dfs_listing_matches_dp_and_bound(self, alpha, beta, n0, k):
        if alpha > beta:
            alpha, beta = beta, alpha
        p = CoverParams(N=min(n0, k), alpha=alpha, beta=beta, epsilon=F(1, 10), s=F(1), k_max=10)
        res = enumerate_digit_tuples(p, k, include_listing=True)
        assert len(res.tuples) == res.count
        assert res.count <= binomial_tuple_bound(p, k)
        for t in res.tuples[:50]:
            assert all(a < b for a, b in zip(t, t[1:]))

    def test_guard(self):
        p = CoverParams(N=1, alpha=F(1, 5), beta=F(1, 5), epsilon=F(1, 10), s=F(1), k_max=40)
        with pytest.raises(GuardExceededError):
            enumerate_digit_tuples(p, 12)


class TestCoveringSum:
    def test_vanishing_above_threshold(self):
        p = CoverParams(N=1, alpha=F(1, 2), beta=F(1, 2), epsilon=F(1, 10), s=F(3), k_max=120)
        report = covering_sum(p)
        assert report.verdict is CoverVerdict.RATIO_VANISHING
        assert report.ratios[-1].hi < F(1, 10**4)

    def test_small_epsilon_example(self):
        p = CoverParams(N=1, alpha=F(1), beta=F(1), epsilon=F(1, 100), s=F(1), k_max=60)
        report = covering_sum(p)
        assert report.verdict is CoverVerdict.RATIO_VANISHING

    def test_below_threshold_is_inconclusive(self):
        p = CoverParams(N=1, alpha=F(1, 2), beta=F(1, 2), epsilon=F(1, 10), s=F(1, 2), k_max=40)
        assert covering_sum(p).verdict is CoverVerdict.INCONCLUSIVE

    def test_slow_regime_is_inconclusive_even_above_threshold(self):
        # s=1 exceeds the threshold 9/10 but the ratios at desk scale
        # still sit near 5; an honest report cannot call this vanishing.
        p = CoverParams(N=1, alpha=F(1, 2), beta=F(1, 2), epsilon=F(1, 10), s=F(1), k_max=60)
        report = covering_sum(p)
        assert report.verdict is CoverVerdict.INCONCLUSIVE
        assert report.ratios[-1].lo > 1

    def test_ratio_matches_closed_form(self):
        p = CoverParams(N=1, alpha=F(1, 2), beta=F(1, 2), epsilon=F(1, 10), s=F(3), k_max=30)
        report = covering_sum(p)
        g = p.upper_exponent
        drop = g - p.s * p.lower_exponent - 1
        for i, k in enumerate(report.ks[:-1]):
            closed = (
                pow_enclosure(k + 1, k * g, 128)
                .div_pos(pow_enclosure(k, k * g, 128))
                .mul_pos(pow_enclosure(k + 1, drop, 128))
            )
            r = report.ratios[i]
            assert r.lo <= closed.hi and closed.lo <= r.hi

    def test_partial_sums_monotone(self):
        p = CoverParams(N=1, alpha=F(1, 2), beta=F(1, 2), epsilon=F(1, 10), s=F(3), k_max=25)
        report = covering_sum(p)
        los = [s.lo for s in report.partial_sums]
        assert all(a <= b for a, b in zip(los, los[1:]))

    def test_kmax_guard(self):
        p = CoverParams(N=1, alpha=F(1, 2), beta=F(1, 2), epsilon=F(1, 10), s=F(3), k_max=513)
        with pytest.raises(GuardExceededError):
            covering_sum(p)


def reference_ledger(params, bits):
    """The covering ledger from exact rational enclosures.

    pow_enclosure terms divided by div_pos, exact running sums, and every
    reported enclosure floored/ceiled to 2**-bits; the verdict is read off
    the exact ratios.
    """
    scale = 1 << bits

    def outward(lo, hi):
        return Enclosure(F(math.floor(lo * scale), scale), F(math.ceil(hi * scale), scale))

    g = params.upper_exponent
    exp_fact = params.s * params.lower_exponent + 1
    terms = [
        pow_enclosure(k, k * g, bits).div_pos(pow_enclosure(math.factorial(k), exp_fact, bits))
        for k in range(params.N, params.k_max + 1)
    ]
    ratios = [b.div_pos(a) for a, b in zip(terms, terms[1:])]
    sums, lo, hi = [], F(0), F(0)
    for t in terms:
        lo, hi = lo + t.lo, hi + t.hi
        sums.append(outward(lo, hi))
    verdict = CoverVerdict.INCONCLUSIVE
    if params.s > params.threshold and ratios:
        tail = ratios[-max(1, len(ratios) // 4):]
        if all(r.hi < 1 for r in tail) and all(b.hi <= a.lo for a, b in zip(tail, tail[1:])):
            verdict = CoverVerdict.RATIO_VANISHING
    return (
        tuple(outward(t.lo, t.hi) for t in terms),
        tuple(outward(r.lo, r.hi) for r in ratios),
        tuple(sums),
        verdict,
    )


LEDGER_POINTS = [
    # the three acceptance points, then two below or near the threshold
    dict(alpha=F(1, 2), beta=F(1, 2), epsilon=F(1, 10), s=F(3)),
    dict(alpha=F(1), beta=F(1), epsilon=F(1, 5), s=F(4)),
    dict(alpha=F(3, 5), beta=F(4, 5), epsilon=F(1, 10), s=F(9, 2)),
    dict(alpha=F(1, 2), beta=F(1, 2), epsilon=F(1, 10), s=F(1, 2)),
    dict(alpha=F(1, 2), beta=F(1, 2), epsilon=F(1, 10), s=F(1)),
]


class TestReferenceLedger:
    @pytest.mark.parametrize("point", LEDGER_POINTS)
    @pytest.mark.parametrize("N", [1, 3])
    @pytest.mark.parametrize("bits", [64, 96])
    def test_ledger_equals_reference(self, point, N, bits):
        params = CoverParams(N=N, k_max=60, **point)
        report = covering_sum(params, bits)
        got = (report.terms, report.ratios, report.partial_sums, report.verdict)
        assert got == reference_ledger(params, bits)


class TestRefinedBound:
    def test_degenerate_band(self):
        for n in (1, 7, 50):
            assert refined_dimension_bound(F(1, 2), F(1, 2), n) == F(1, 2)

    def test_single_piece(self):
        assert refined_dimension_bound(F(1, 2), F(1), 1) == 1

    def test_hundred_pieces(self):
        assert refined_dimension_bound(F(1, 2), F(1), 100) == F(101, 200)

    @given(st.integers(1, 200), st.integers(1, 200))
    @settings(max_examples=40)
    def test_refinement_identity_and_monotone(self, n, m):
        alpha, beta = F(1, 2), F(1)
        bound = refined_dimension_bound(alpha, beta, n)
        assert bound - (1 - alpha) == (beta - alpha) / n * (1 / alpha - 1)
        if n <= m:
            assert refined_dimension_bound(alpha, beta, m) <= bound


class TestSampling:
    def test_determinism(self):
        a = sample_digit_statistics(256, 4, seed=11)
        b = sample_digit_statistics(256, 4, seed=11)
        assert a == b
        c = sample_digit_statistics(256, 4, seed=12)
        assert c != a

    def test_small_run_structure(self):
        report = sample_digit_statistics(256, 3, seed=5)
        assert report.count == 3 and len(report.samples) == 3
        for rec in report.samples:
            assert rec.status in (DigitStatus.AMBIGUOUS, DigitStatus.TERMINATED)
            assert rec.depth >= 1
            assert 0 <= rec.window.lo <= rec.window.hi <= 1
        assert report.median_depth > 0

    def test_bits_floor(self):
        with pytest.raises(DomainError):
            sample_digit_statistics(128, 2, seed=1)


class TestGridSweep:
    def test_depth_four_half(self):
        report = grid_witness_sweep(F(1, 2), 4)
        assert report.all_witnessed and len(report.cells) == 16
        for cell in report.cells:
            assert cell.cell.contains_interval(cell.witness.enclosure)
            assert cell.witness.certificate == F(1, 2)

    def test_depth_one_tower(self):
        report = grid_witness_sweep(F(0), 1)
        assert report.all_witnessed and len(report.cells) == 2
        assert all(c.witness.rule.describe()["family"] == "tower" for c in report.cells)

    def test_depth_guard(self):
        with pytest.raises(GuardExceededError):
            grid_witness_sweep(F(1, 2), 13)

    @pytest.mark.parametrize("depth", [0, -1])
    def test_depth_below_one_is_a_domain_error(self, depth):
        with pytest.raises(DomainError, match="at least 1"):
            grid_witness_sweep(F(1, 2), depth)
