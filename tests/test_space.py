import itertools
import math
from fractions import Fraction as F

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from piercelab.arith import INFINITY, DomainError, Enclosure
from piercelab import space
from piercelab.pierce import alternating_sums, digits_rational, validate_prefix
from piercelab.rules import BitPerturbedRule, LinearRule, PowerFloorRule
from piercelab.space import (
    PierceSeq,
    SIGMA_ZERO,
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

    @given(st.lists(st.integers(1, 50), max_size=12), st.integers(2, 50))
    def test_digit_map_section(self, steps, last_step):
        # the converse of test_pierce's round trip: every greedy-admissible tuple
        # (increasing, its last digit at least the previous one + 2) is the
        # digit tuple of its own value
        digits = list(itertools.accumulate(steps))
        d = (*digits, (digits[-1] if digits else 0) + last_step)
        assert digits_rational(expansion_value(PierceSeq.finite(d))) == d


def pairwise_value(rule, bits: int, min_depth: int) -> Enclosure:
    """expansion_value's rule branch as it was: consecutive sums in pairs, sorted."""
    depth = max(min_depth + 1, 3, bits + 1)
    sums = alternating_sums(rule.terms_run(1, depth))
    for k, (prev, (s, p)) in enumerate(itertools.pairwise(sums), start=2):
        if k - 1 >= max(min_depth, 2) and p >= 1 << bits:
            return Enclosure(*sorted((F(*prev), F(s, p))))
    raise AssertionError("no bracket")


alphas = st.sampled_from([F(0), F(1, 7), F(1, 3), F(1, 2), F(2, 3), F(3, 4), F(1)])
# the four rule families; the tower is power-floor (and bit-perturbed) at alpha 0
digit_rules = st.one_of(
    st.builds(PowerFloorRule, st.lists(st.integers(1, 60), max_size=4, unique=True).map(
        lambda xs: tuple(sorted(xs))), alphas),
    st.builds(PowerFloorRule, st.just(()), st.just(F(0))),
    st.builds(LinearRule, st.integers(0, 50)),
    st.builds(BitPerturbedRule, alphas, st.lists(st.integers(0, 1), max_size=8).map(tuple)),
)


class TestRuleExpansion:
    @given(digit_rules, st.sampled_from([0, 1, 64, 300]), st.integers(0, 12))
    @settings(max_examples=200, deadline=None)
    def test_equals_the_pairwise_form(self, rule, bits, min_depth):
        seq = PierceSeq.infinite(rule)
        assert expansion_value(seq, bits, min_depth) == pairwise_value(rule, bits, min_depth)


def reference_value(digits) -> F:
    """sum_k (-1)^(k+1) / (d_1 ... d_k), term by term in Fraction."""
    total, product = F(0), 1
    for k, d in enumerate(digits):
        product *= d
        total += F((-1) ** k, product)
    return total


def reference_digits(x: F) -> tuple[int, ...]:
    """The greedy digits from the definition: d = floor(1/x), x -> 1 - d*x, until 0."""
    digits = []
    while x:
        digits.append(math.floor(1 / x))
        x = 1 - digits[-1] * x
    return tuple(digits)


wide_prefixes = st.lists(st.integers(1, 1 << 64), min_size=1, max_size=40, unique=True).map(
    lambda xs: tuple(sorted(xs))
)
open_points = st.one_of(
    unit_fractions.filter(lambda x: 0 < x < 1),
    st.integers(2, 1 << 128).flatmap(lambda q: st.integers(1, q - 1).map(lambda p: F(p, q))),
)


class TestReferenceEvaluation:
    """The integer loops of space against Fraction sums from the definition."""

    @given(st.one_of(prefixes, wide_prefixes, st.just(())))
    def test_expansion_value(self, prefix):
        assert expansion_value(PierceSeq.finite(prefix)) == reference_value(prefix)

    @given(open_points)
    def test_dual_representation(self, x):
        sigma = reference_digits(x)
        assert dual_representation(x) == (sigma, sigma[:-1] + (sigma[-1] - 1, sigma[-1]))

    @given(st.one_of(prefixes, wide_prefixes))
    def test_fundamental_interval_endpoints(self, prefix):
        own = reference_value(prefix)
        bumped = reference_value(prefix[:-1] + (prefix[-1] + 1,))
        cell = fundamental_interval(prefix)
        assert (cell.left, cell.right) == (min(own, bumped), max(own, bumped))
        assert cell.diameter == abs(own - bumped)
        assert cell.prefix == prefix

    def test_dual_representation_refusals(self):
        for bad in (F(0), F(1), 0, 1, 2, F(-1, 2), F(3, 2), "-1/2", 1.5):
            with pytest.raises(DomainError) as caught:
                dual_representation(bad)
            assert str(caught.value) == "dual representation requires x strictly inside (0, 1)"
        assert dual_representation("7/10") == ((1, 3, 10), (1, 3, 9, 10))
        assert dual_representation(0.5) == ((2,), (1, 2))


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

    @given(st.integers(2, 1 << 128).flatmap(lambda q: st.integers(1, q - 1).map(lambda p: F(p, q))))
    def test_tau_is_a_valid_prefix(self, x):
        # dual_representation does not validate tau; this is the proof's check.
        tau = dual_representation(x)[1]
        assert validate_prefix(tau) == tau


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
        b = expansion_value(PierceSeq.finite(prefix[:-1] + (prefix[-1] + 1,)))
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


def fraction_locate(lo, hi):
    """locate_cylinder's search restated on fundamental_interval's Fractions.

    The oracle of locate_cylinder's integer comparisons: the shallowest cell of
    the midpoint's digit chain inside [lo, hi], else the first of the two
    jumped-to children of its last cell.
    """
    mid = (lo + hi) / 2
    chain = digits_rational(mid)
    for depth in range(1, len(chain) + 1):
        cell = fundamental_interval(chain[:depth])
        if lo <= cell.left and cell.right <= hi:
            return cell.prefix
    gap = hi - mid if len(chain) % 2 == 0 else mid - lo
    first = max(chain[-1] + 1, -(-gap.denominator // (math.prod(chain) * gap.numerator)))
    for d in (first, first + 1):
        cell = fundamental_interval(chain + (d,))
        if lo <= cell.left and cell.right <= hi:
            return cell.prefix
    raise AssertionError("no child fits")


def ordered(pair):
    return tuple(sorted(pair))


rational_intervals = st.tuples(unit_fractions, unit_fractions).filter(
    lambda ab: ab[0] != ab[1]).map(ordered)
dyadic_intervals = st.integers(1, 160).flatmap(lambda bits: st.tuples(
    st.integers(0, 1 << bits), st.integers(0, 1 << bits)).filter(lambda ab: ab[0] != ab[1]).map(
    lambda ab: ordered((F(ab[0], 1 << bits), F(ab[1], 1 << bits)))))
# a short rational midpoint and a tiny width: the chain runs out and a child is jumped to
tiny_intervals = st.tuples(
    st.fractions(min_value=F(1, 50), max_value=F(49, 50), max_denominator=50),
    st.integers(20, 120),
).map(lambda mw: (mw[0] - F(1, 1 << mw[1]), mw[0] + F(1, 1 << mw[1])))
# exactly one cell: every endpoint comparison is an equality
cell_intervals = prefixes.map(fundamental_interval).map(lambda c: (c.left, c.right))


class TestLocateCylinder:
    @given(st.one_of(rational_intervals, dyadic_intervals, tiny_intervals, cell_intervals))
    @settings(max_examples=300, deadline=None)
    def test_integer_search_matches_fraction_search(self, ends):
        lo, hi = ends
        prefix = locate_cylinder(Enclosure(lo, hi))
        assert prefix == fraction_locate(lo, hi)
        cell = fundamental_interval(prefix)
        assert lo <= cell.left < cell.right <= hi

    @given(prefixes)
    def test_a_cell_locates_itself(self, prefix):
        cell = fundamental_interval(prefix)
        assert locate_cylinder(Enclosure(cell.left, cell.right)) == prefix

    def test_child_jump_builds_no_fundamental_interval(self, monkeypatch):
        calls = []
        monkeypatch.setattr(space, "fundamental_interval", lambda p: calls.append(p))
        w = F(1, 1 << 40)
        prefix = locate_cylinder(Enclosure(F(7, 10) - w, F(7, 10) + w))
        monkeypatch.undo()
        assert calls == []
        assert prefix[:-1] == digits_rational(F(7, 10))  # a child of the chain's last cell
        cell = fundamental_interval(prefix)
        assert F(7, 10) - w <= cell.left and cell.right <= F(7, 10) + w

    @given(st.fractions(min_value=F(1, 60), max_value=F(59, 60), max_denominator=60),
           st.integers(1, 12), st.integers(0, 100))
    @settings(max_examples=200, deadline=None)
    @example(F(1, 2), 3, 60)  # the chain (2,) runs out: a child of about 2**60 is jumped to
    @example(F(2, 3), 1, 1)
    def test_unreduced_midpoint_against_its_digits(self, mid, h, w):
        # [mid - r, mid + r] with r = h/(den(mid) 2**w): the integer search reads the
        # midpoint as (a + b)/2c, and here gcd(a + b, 2c) > 1
        r = F(h, mid.denominator << w)
        lo, hi = mid - r, mid + r
        assume(0 <= lo and hi <= 1)
        c = math.lcm(lo.denominator, hi.denominator)
        a, b = lo.numerator * (c // lo.denominator), hi.numerator * (c // hi.denominator)
        assume(math.gcd(a + b, 2 * c) > 1)
        prefix = locate_cylinder(Enclosure(lo, hi))

        def fits(p):
            cell = fundamental_interval(p)
            return lo <= cell.left and cell.right <= hi

        # the shallowest cell of the midpoint's chain inside [lo, hi], else the least
        # child digit of its last cell that fits: children near mid as the digit grows
        chain = digits_rational((lo + hi) / 2)
        assert fits(prefix)
        assert not any(fits(chain[:j]) for j in range(1, min(len(prefix), len(chain) + 1)))
        if len(prefix) <= len(chain):
            assert prefix == chain[:len(prefix)]
        else:
            assert prefix[:-1] == chain
            assert prefix[-1] - 1 == chain[-1] or not fits(chain + (prefix[-1] - 1,))

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
