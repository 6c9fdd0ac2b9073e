import itertools
import math
from fractions import Fraction as F

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from piercelab.arith import INFINITY, DomainError, Enclosure
from piercelab.pierce import digits_rational
from piercelab.rules import ExplicitRule, LinearRule, PowerFloorRule
from piercelab.space import (
    PierceSeq,
    SIGMA_ZERO,
    bump_last,
    cylinder_contains,
    dual_representation,
    expansion_value,
    fundamental_interval,
    locate_cylinder,
    seq_distance,
)

unit_fractions = st.fractions(min_value=0, max_value=1, max_denominator=10**6)

prefixes = st.lists(st.integers(1, 60), min_size=1, max_size=6, unique=True).map(
    lambda xs: tuple(sorted(xs))
)


def e_minus_one_bracket(terms: int) -> tuple[F, F]:
    """Exact bracket of 1 - 1/e from the factorial series (independent oracle)."""
    s = F(0)
    sign = 1
    for k in range(1, terms + 1):
        s += F(sign, math.factorial(k))
        sign = -sign
    nxt = s + F(sign, math.factorial(terms + 1))
    return (min(s, nxt), max(s, nxt))


class TestExpansionValue:
    def test_sigma_zero(self):
        assert expansion_value(SIGMA_ZERO) == 0

    def test_finite_exact(self):
        assert expansion_value(PierceSeq.finite((1, 3, 10))) == F(7, 10)

    def test_infinite_linear_brackets_one_minus_inv_e(self):
        enc = expansion_value(PierceSeq.infinite(LinearRule(0)), 20)
        lo, hi = e_minus_one_bracket(25)
        assert enc.width <= F(1, 1 << 20)
        # both intervals contain 1 - 1/e, hence overlap
        assert enc.lo <= hi and lo <= enc.hi

    def test_rule_strict_increase_enforced(self):
        with pytest.raises(DomainError):
            ExplicitRule(lambda k: 5, name="constant")
        # a rule that decays past the construction spot-check still fails at use
        sneaky = ExplicitRule(lambda k: k if k <= 20 else 20, name="plateau")
        with pytest.raises(DomainError):
            expansion_value(PierceSeq.infinite(sneaky), 64)

    @given(unit_fractions)
    def test_digit_map_section(self, x):
        assert expansion_value(PierceSeq.of_rational(x)) == x


class TestDualRepresentation:
    def test_examples(self):
        assert dual_representation(F(1, 2)) == ((2,), (1, 2))
        assert dual_representation(F(1, 3)) == ((3,), (2, 3))
        assert dual_representation(F(7, 10)) == ((1, 3, 10), (1, 3, 9, 10))

    def test_domain(self):
        for bad in (F(0), F(1)):
            with pytest.raises(DomainError):
                dual_representation(bad)

    @given(unit_fractions.filter(lambda x: 0 < x < 1))
    def test_both_evaluate_to_x(self, x):
        sigma, tau = dual_representation(x)
        assert sigma != tau
        assert expansion_value(PierceSeq.finite(sigma)) == x
        assert expansion_value(PierceSeq.finite(tau)) == x
        assert all(a < b for a, b in zip(tau, tau[1:]))


class TestFundamentalInterval:
    def test_examples(self):
        cell = fundamental_interval((2,))
        assert (cell.left, cell.right, cell.diameter) == (F(1, 3), F(1, 2), F(1, 6))
        cell = fundamental_interval((1,))
        assert (cell.left, cell.right, cell.diameter) == (F(1, 2), F(1), F(1, 2))
        cell = fundamental_interval((2, 3))
        assert (cell.left, cell.right, cell.diameter) == (F(1, 3), F(3, 8), F(1, 24))

    @given(prefixes)
    def test_diameter_closed_form(self, prefix):
        cell = fundamental_interval(prefix)
        product = F(1)
        for d in prefix:
            product /= d
        assert cell.diameter == product / (prefix[-1] + 1)
        a = expansion_value(PierceSeq.finite(prefix))
        b = expansion_value(PierceSeq.finite(bump_last(prefix)))
        assert cell.diameter == abs(a - b)

    @given(prefixes, st.integers(1, 30))
    def test_nesting(self, prefix, step):
        child = prefix + (prefix[-1] + step,)
        outer = fundamental_interval(prefix)
        inner = fundamental_interval(child)
        assert outer.left <= inner.left and inner.right <= outer.right

    @given(
        st.lists(st.integers(1, 10), min_size=1, max_size=3, unique=True),
        st.integers(1, 40),
    )
    def test_partition_telescopes(self, raw, cutoff):
        # children up to a cutoff plus the exact tail tile the parent cell
        prefix = tuple(sorted(raw))
        cell = fundamental_interval(prefix)
        total = F(0)
        m_max = prefix[-1] + cutoff
        for m in range(prefix[-1] + 1, m_max + 1):
            total += fundamental_interval(prefix + (m,)).diameter
        product = F(1)
        for d in prefix:
            product /= d
        tail = product * F(1, m_max + 1)
        assert total + tail == cell.diameter


class TestTerms:
    def test_finite_prefix_is_padded_with_infinity(self):
        seq = PierceSeq.finite((2, 5))
        assert seq.terms(4) == (2, 5, INFINITY, INFINITY)
        assert seq.terms(1) == (2,)
        assert SIGMA_ZERO.terms(2) == (INFINITY, INFINITY)

    def test_rule_terms(self):
        squares = PowerFloorRule((1,), F(1, 2))
        assert PierceSeq.infinite(squares).terms(4) == squares.terms(4) == (1, 4, 9, 16)

    @pytest.mark.parametrize("n", [0, -1, -3])
    def test_no_terms_below_one(self, n):
        assert PierceSeq.finite((2, 5, 9)).terms(n) == ()
        assert PierceSeq.infinite(PowerFloorRule((2, 5, 9), F(1, 2))).terms(n) == ()


class TestCylinders:
    def test_examples(self):
        assert cylinder_contains((2,), PierceSeq.finite((2, 5)))
        assert not cylinder_contains((2,), SIGMA_ZERO)
        squares = PowerFloorRule((1,), F(1, 2))  # 1, 4, 9, 16, ...
        assert squares.terms(3) == (1, 4, 9)
        assert not cylinder_contains((1, 3), PierceSeq.infinite(squares))
        assert cylinder_contains((1, 4, 9), PierceSeq.infinite(squares))


class TestSeqDistance:
    def test_examples(self):
        assert seq_distance(SIGMA_ZERO, SIGMA_ZERO, 5) == 0
        assert seq_distance(SIGMA_ZERO, PierceSeq.finite((1,)), 1) == F(1, 2)
        assert seq_distance(PierceSeq.finite((2,)), PierceSeq.finite((3,)), 2) == F(1, 12)

    def test_metric_axioms_on_finite_set(self):
        points = [
            SIGMA_ZERO,
            PierceSeq.finite((1,)),
            PierceSeq.finite((2,)),
            PierceSeq.finite((1, 3)),
            PierceSeq.finite((2, 5, 9)),
            PierceSeq.infinite(LinearRule(0)),
        ]
        depth = 8
        for s, t in itertools.product(points, repeat=2):
            d_st = seq_distance(s, t, depth)
            assert d_st == seq_distance(t, s, depth)
            assert d_st >= 0
            if s is t:
                assert d_st == 0
        for s, t, u in itertools.product(points, repeat=3):
            assert seq_distance(s, u, depth) <= seq_distance(s, t, depth) + seq_distance(
                t, u, depth
            )


class TestLocateCylinder:
    def test_examples(self):
        assert locate_cylinder(Enclosure(F(0), F(1))) == (2,)
        assert locate_cylinder(Enclosure(F(1, 3), F(1, 2))) == (2,)
        found = locate_cylinder(Enclosure(F(2, 5), F(1, 2)))
        cell = fundamental_interval(found)
        assert F(2, 5) <= cell.left and cell.right <= F(1, 2)

    def test_degenerate(self):
        with pytest.raises(DomainError):
            locate_cylinder(Enclosure.exact(F(1, 2)))

    @given(
        st.fractions(min_value=0, max_value=F(99, 100), max_denominator=10**4),
        st.fractions(min_value=F(1, 10**4), max_value=F(1, 100), max_denominator=10**4),
    )
    @settings(max_examples=80)
    def test_containment(self, lo, width):
        hi = min(lo + width, F(1))
        prefix = locate_cylinder(Enclosure(lo, hi))
        cell = fundamental_interval(prefix)
        assert lo <= cell.left and cell.right <= hi
        # the shallowest fitting cell of the midpoint's chain, else a child of its last cell
        chain = digits_rational((lo + hi) / 2)
        cells = [fundamental_interval(chain[:depth]) for depth in range(1, len(chain) + 1)]
        fits = [c.prefix for c in cells if lo <= c.left and c.right <= hi]
        assert (prefix == fits[0]) if fits else (prefix[:-1] == chain)

    def test_midpoint_chain_consistency(self):
        iv = Enclosure(F(9, 10), F(1))
        prefix = locate_cylinder(iv)
        mid = iv.midpoint
        assert digits_rational(mid)[: len(prefix)] == prefix or prefix[:-1] == digits_rational(mid)

    def test_tiny_interval_centered_on_short_rational(self):
        # the midpoint's chain is exhausted immediately and the fitting
        # child digit is astronomically large; it must be jumped to, not
        # scanned for
        for width_bits, mid in ((60, F(1, 2)), (80, F(2, 3)), (77, F(7, 10))):
            w = F(1, 1 << width_bits)
            iv = Enclosure(mid - w, mid + w)
            prefix = locate_cylinder(iv)
            cell = fundamental_interval(prefix)
            assert iv.lo <= cell.left and cell.right <= iv.hi
            assert prefix[-1] > 1 << 40  # far beyond any feasible scan
