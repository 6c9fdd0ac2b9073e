import io
import math
import re
from fractions import Fraction as F

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from piercelab import arith, dimension
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
from piercelab.cli import run
from piercelab.pierce import DigitStatus
from piercelab.space import DEFAULT_PRECISION_BITS

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

    @pytest.mark.parametrize(
        "alpha, beta, message",
        [
            (F(2), F(3), "value 2 lies outside [0, 1]"),
            (F(1, 2), F(3), "value 3 lies outside [0, 1]"),
            (F(0), F(1, 2), "value 0 lies outside (0, 1]"),
            (F(3, 4), F(1, 2), "need alpha <= beta"),
        ],
    )
    def test_exponent_band_messages(self, alpha, beta, message):
        with pytest.raises(DomainError, match=re.escape(message)):
            CoverParams(N=1, alpha=alpha, beta=beta, epsilon=F(1, 10), s=F(1), k_max=5)

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

    @pytest.mark.parametrize("point", LEDGER_POINTS)
    @pytest.mark.parametrize("N", [1, 3])
    @pytest.mark.parametrize("bits", [0, 8, 64])
    @pytest.mark.parametrize("extra", [1, 8])
    def test_narrow_ledger_widens_to_the_reference(self, point, N, bits, extra, monkeypatch):
        # At w = bits + 1 or bits + 8 the first rungs leave roundings
        # undecided; the ledger widens until each is decided.
        monkeypatch.setattr(dimension, "_LEDGER_BITS", extra)
        widths, ledger = [], dimension._ledger

        def spy(params, bits, w):
            widths.append(w)
            return ledger(params, bits, w)

        monkeypatch.setattr(dimension, "_ledger", spy)
        params = CoverParams(N=N, k_max=60, **point)
        report = covering_sum(params, bits)
        got = (report.terms, report.ratios, report.partial_sums, report.verdict)
        assert got == reference_ledger(params, bits)
        assert widths[0] == bits + extra and len(widths) > 1
        assert widths == [widths[0] * 4**i for i in range(len(widths))]


def test_readme_cover_roots_at_working_precision(monkeypatch):
    # The README's cover command runs the ledger once, and each radicand
    # it roots, of k**(k*g) (up to 3800 bits) and (k!)**u (up to 7500), is
    # cut to about degree * (w + 2) bits, w = bits + 128: the gain over
    # exact roots.
    roots, widths = [], []
    root, ledger = arith.integer_root, dimension._ledger

    def root_spy(m, p):
        roots.append((m.bit_length(), p))
        return root(m, p)

    def ledger_spy(params, bits, w):
        widths.append(w)
        return ledger(params, bits, w)

    monkeypatch.setattr(arith, "integer_root", root_spy)
    monkeypatch.setattr(dimension, "_ledger", ledger_spy)
    argv = "cover --alpha 1/2 --beta 1/2 --eps 1/10 --s 3 --kmax 200".split()
    assert run(argv, io.StringIO(), io.StringIO()) == 0
    w = DEFAULT_PRECISION_BITS + dimension._LEDGER_BITS
    assert widths == [w]
    degrees = [(bits, p) for bits, p in roots if p > 1]
    assert len(degrees) >= 100 and max(bits / p for bits, p in degrees) <= w + 64


class TestRefinedBound:
    def test_degenerate_band(self):
        for n in (1, 7, 50):
            assert refined_dimension_bound(F(1, 2), F(1, 2), n) == F(1, 2)

    def test_single_piece(self):
        assert refined_dimension_bound(F(1, 2), F(1), 1) == 1

    def test_hundred_pieces(self):
        assert refined_dimension_bound(F(1, 2), F(1), 100) == F(101, 200)

    @pytest.mark.parametrize(
        "alpha, beta", [(F(2), F(3)), (F(1, 2), F(3)), (F(0), F(1, 2)), (F(3, 4), F(1, 2))]
    )
    def test_exponents_outside_the_band_are_refused(self, alpha, beta):
        # past 1 the formula gives bounds outside [0, 1], such as -9/8 for (2, 3, 4)
        with pytest.raises(DomainError):
            refined_dimension_bound(alpha, beta, 4)

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
