import math
from fractions import Fraction as F

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from piercelab.arith import DomainError, Enclosure
from piercelab.constructions import (
    divergent_tail_rule,
    prescribed_exponent_rule,
    witness_in_interval,
)
from piercelab.exponent import (
    Verdict,
    classify_divergence,
    estimate_point_exponent,
    reciprocal_power_sum,
)
from piercelab.pierce import safe_digits
from piercelab.rules import BitPerturbedRule, PowerFloorRule
from piercelab.space import PierceSeq, fundamental_interval, locate_cylinder


def inv_e_bracket(terms: int) -> tuple[F, F]:
    """Exact alternating-series bracket of 1/e (independent oracle)."""
    s = F(0)
    for m in range(terms + 1):
        s += F((-1) ** m, math.factorial(m))
    nxt = s + F((-1) ** (terms + 1), math.factorial(terms + 1))
    return (min(s, nxt), max(s, nxt))


class TestPrescribedExponentRule:
    def test_power_floor_half(self):
        rule = prescribed_exponent_rule((2,), F(1, 2))
        assert rule.terms(4) == (2, 9, 16, 25)

    def test_tower(self):
        rule = prescribed_exponent_rule((2,), F(0))
        assert rule.terms(4) == (2, 9, 64, 625)

    def test_identity_continuation(self):
        rule = prescribed_exponent_rule((2,), F(1))
        assert rule.terms(4) == (2, 3, 4, 5)

    def test_empty_prefix_extension(self):
        assert prescribed_exponent_rule((), F(1, 2)).terms(3) == (4, 9, 16)
        assert prescribed_exponent_rule((), F(0)).terms(3) == (2, 9, 64)

    def test_alpha_domain(self):
        with pytest.raises(DomainError):
            prescribed_exponent_rule((2,), F(3, 2))
        with pytest.raises(DomainError):
            prescribed_exponent_rule((2,), F(-1, 2))

    @given(
        st.fractions(min_value=F(1, 6), max_value=1, max_denominator=6),
        st.lists(st.integers(1, 30), min_size=0, max_size=4, unique=True),
    )
    @settings(max_examples=40)
    def test_certificate_and_increase(self, alpha, raw):
        prefix = tuple(sorted(raw))
        rule = prescribed_exponent_rule(prefix, alpha)
        assert rule.certificate == alpha
        ts = rule.terms(40)
        assert all(a < b for a, b in zip(ts, ts[1:]))


class TestBitPerturbedFamily:
    def test_examples(self):
        assert BitPerturbedRule(F(1), (0, 0, 0, 0)).terms(4) == (1, 3, 5, 7)
        assert BitPerturbedRule(F(1), (1, 1, 1, 1)).terms(4) == (2, 4, 6, 8)
        assert BitPerturbedRule(F(1, 2), (1, 0)).terms(2) == (4, 9)

    def test_zero_alpha_variant(self):
        rule = BitPerturbedRule(F(0), (1, 0))
        assert rule.terms(3) == (2, 9, 125)  # (1+1)^1, (0+3)^2, (0+5)^3
        assert rule.certificate == 0

    def test_injective_in_patterns(self):
        patterns = [tuple((m >> j) & 1 for j in range(8)) for m in range(256)]
        sequences = {BitPerturbedRule(F(1, 2), p).terms(8) for p in patterns}
        assert len(sequences) == 256

    def test_bad_bits(self):
        with pytest.raises(DomainError):
            BitPerturbedRule(F(1, 2), (0, 2))


class TestDivergentTail:
    def test_examples(self):
        rule = divergent_tail_rule((1, 2, 3), F(1), 3)
        assert rule.terms(5) == (1, 2, 3, 4, 5)
        rule = divergent_tail_rule((2, 9, 16), F(1, 2), 2)
        assert rule.terms(4) == (2, 9, 100, 121)

    def test_keep_bound(self):
        with pytest.raises(DomainError):
            divergent_tail_rule((1, 2), F(1), 3)

    def test_diverges_at_its_exponent(self):
        for s in (F(1, 4), F(1, 2), F(1)):
            rule = divergent_tail_rule((1, 2, 3, 4, 5), s, 2)
            assert classify_divergence(rule, s) is Verdict.DIVERGENT

    def test_partial_sums_exceed_small_bound(self):
        s = F(1, 2)
        rule = divergent_tail_rule((2, 9, 16), s, 2)
        # tail terms t satisfy t**s <= 9 + i: harmonic comparison bound for sum > 3
        n_bound = 10 * (math.ceil(math.e**3) + 1)
        partial = reciprocal_power_sum(PierceSeq.infinite(rule), s, n_bound)
        assert partial.sum.lo > 3


@pytest.mark.parametrize(
    "consume",
    [
        lambda: safe_digits(Enclosure.exact(F(3, 2)), 5),
        lambda: estimate_point_exponent(Enclosure(F(-1, 2), F(1, 3)), 5),
        lambda: locate_cylinder(Enclosure(F(1, 2), F(3, 2))),
        lambda: witness_in_interval(Enclosure(F(-1, 2), F(3, 2)), F(1, 2)),
    ],
    ids=["safe_digits", "estimate_point_exponent", "locate_cylinder", "witness_in_interval"],
)
def test_points_outside_the_unit_interval_are_refused(consume):
    # every reader of points of [0, 1] checks its interval, whatever built it
    with pytest.raises(DomainError, match=r"not within \[0, 1\]"):
        consume()


class TestWitnesses:
    def test_unit_interval_half(self):
        w = witness_in_interval(Enclosure(F(0), F(1)), F(1, 2), 64)
        assert w.certificate == F(1, 2)
        assert w.rule.describe()["prefix"] == [2]
        cell = fundamental_interval((2,))
        assert cell.left <= w.enclosure.lo and w.enclosure.hi <= cell.right

    def test_identity_witness_hits_inv_e(self):
        w = witness_in_interval(Enclosure(F(1, 3), F(1, 2)), F(1), 64)
        lo, hi = inv_e_bracket(25)
        assert w.enclosure.lo <= hi and lo <= w.enclosure.hi
        assert w.enclosure.width <= F(1, 1 << 64)

    def test_tower_witness(self):
        w = witness_in_interval(Enclosure(F(0), F(1)), F(0), 32)
        assert w.certificate == 0
        assert w.rule.describe()["family"] == "tower"

    @given(
        st.fractions(min_value=0, max_value=F(9, 10), max_denominator=256),
        st.fractions(min_value=F(1, 64), max_value=F(1, 10), max_denominator=256),
        st.sampled_from([F(0), F(1, 3), F(1, 2), F(1)]),
    )
    @settings(max_examples=40, deadline=None)
    def test_containment(self, lo, width, alpha):
        hi = min(lo + width, F(1))
        interval = Enclosure(lo, hi)
        w = witness_in_interval(interval, alpha, 48)
        assert interval.contains_interval(w.enclosure)
        assert w.certificate == alpha

    def test_degenerate_interval(self):
        with pytest.raises(DomainError):
            witness_in_interval(Enclosure.exact(F(1, 2)), F(1, 2))


class TestIntermediateValueWitness:
    """witness_in_interval's enclosure lies strictly inside (x, y): its ends are
    partial sums of depth at least prefix + 2, which never meet a cell end."""

    def test_half_on_unit(self):
        w = witness_in_interval(Enclosure(F(0), F(1)), F(1, 2))
        assert w.certificate == F(1, 2)
        assert 0 < w.enclosure.lo and w.enclosure.hi < 1

    def test_tower_strictly_inside(self):
        w = witness_in_interval(Enclosure(F(1, 3), F(1, 2)), F(0))
        assert F(1, 3) < w.enclosure.lo and w.enclosure.hi < F(1, 2)
        assert w.rule.describe()["family"] == "tower"

    def test_endpoint_exponents_accepted(self):
        for c in (F(0), F(1)):
            w = witness_in_interval(Enclosure(F(1, 5), F(2, 5)), c)
            assert F(1, 5) < w.enclosure.lo and w.enclosure.hi < F(2, 5)

    def test_huge_digit_cells_stay_strictly_inside(self):
        # With digits this large the width target is met immediately, so
        # the enclosure endpoints are as shallow as permitted; the
        # depth-(prefix+1) sum for the identity continuation equals the
        # cell endpoint exactly and must be excluded from the bracket.
        for shift in (70, 256):
            d = (1 << shift) + 3
            x, y = F(1, d + 1), F(1, d)
            for c in (F(1), F(1, 2), F(0)):
                w = witness_in_interval(Enclosure(x, y), c, 64)
                assert x < w.enclosure.lo and w.enclosure.hi < y
