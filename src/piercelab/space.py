"""The space of Pierce sequences and its evaluation map.

A Pierce sequence is either a strictly increasing finite prefix padded
with INFINITY (the all-infinite sequence being the empty prefix) or an
infinite strictly increasing sequence given by a symbolic rule.  The
evaluation map sums the alternating series of reciprocal digit
products; finite sequences evaluate exactly, infinite ones to a
rational enclosure bracketed by consecutive partial sums.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import pairwise
from typing import Optional, Union

from .arith import (
    DomainError,
    ExtNat,
    INFINITY,
    Enclosure,
    unit_interval,
    unit_reciprocal,
)
from .pierce import alternating_sums, checked_digits, digits_rational, validate_prefix
from .rules import DigitRule

__all__ = [
    "PierceSeq",
    "SIGMA_ZERO",
    "FundamentalInterval",
    "expansion_value",
    "dual_representation",
    "bump_last",
    "fundamental_interval",
    "cylinder_contains",
    "seq_distance",
    "locate_cylinder",
]

DEFAULT_PRECISION_BITS = 64


@dataclass(frozen=True)
class PierceSeq:
    """A point of the sequence space: finite prefix or infinite rule."""

    prefix: Optional[tuple[int, ...]] = None
    rule: Optional[DigitRule] = None

    def __post_init__(self):
        if (self.prefix is None) == (self.rule is None):
            raise DomainError("a Pierce sequence is either a finite prefix or a rule")
        if self.prefix is not None:
            object.__setattr__(self, "prefix", validate_prefix(self.prefix))

    @staticmethod
    def finite(digits) -> "PierceSeq":
        return PierceSeq(prefix=tuple(digits))

    @staticmethod
    def infinite(rule: DigitRule) -> "PierceSeq":
        return PierceSeq(rule=rule)

    @staticmethod
    def of_rational(x: Fraction) -> "PierceSeq":
        return PierceSeq.finite(digits_rational(x))

    @property
    def is_finite(self) -> bool:
        return self.prefix is not None

    @property
    def depth(self) -> Optional[int]:
        """Number of finite digits, or None for an infinite sequence."""
        return len(self.prefix) if self.prefix is not None else None

    def term(self, k: int) -> ExtNat:
        if k < 1:
            raise DomainError("digit indices are 1-based")
        if self.prefix is not None:
            return self.prefix[k - 1] if k <= len(self.prefix) else INFINITY
        return self.rule.term(k)

    def terms(self, n: int) -> tuple[ExtNat, ...]:
        """The first n digits (none for n <= 0), INFINITY past a finite prefix."""
        n = max(n, 0)
        if self.prefix is not None:
            return self.prefix[:n] + (INFINITY,) * (n - len(self.prefix))
        return self.rule.terms(n)


SIGMA_ZERO = PierceSeq.finite(())


def _exact_sum(digits) -> tuple[int, int]:
    """(S_n, P_n) of a finite digit sequence: value S_n / P_n, digit product P_n."""
    s, p = 0, 1
    for s, p in alternating_sums(digits):
        pass
    return s, p


def expansion_value(
    seq: PierceSeq,
    precision_bits: int = DEFAULT_PRECISION_BITS,
    min_depth: int = 2,
) -> Union[Fraction, Enclosure]:
    """Value of the alternating expansion of a Pierce sequence.

    Finite sequences evaluate to an exact rational (the empty prefix to
    0).  Infinite sequences yield an Enclosure of width at most
    2**-precision_bits whose endpoints are consecutive partial sums,
    each of depth >= min_depth; the true value always lies between
    consecutive partial sums because the terms strictly decrease.
    Partial sums of depth d can coincide with endpoints of the depth-
    (d-1) fundamental cell but never with shallower cell endpoints,
    which is what interval-localised callers rely on.
    """
    if seq.is_finite:
        return Fraction(*_exact_sum(seq.prefix))
    target = 1 << precision_bits
    # The loop returns by index `depth`: strictly increasing digits have
    # d_j >= j, so P_k >= k! >= 2**(k-1) >= target from k = precision_bits + 1,
    # and k - 1 >= max(min_depth, 2) from k = max(min_depth + 1, 3).  The
    # stream is lazy, so no digit past the last one read is built.
    depth = max(min_depth + 1, 3, precision_bits + 1)
    sums = alternating_sums(checked_digits(seq.rule.terms_run(1, depth)))
    for k, (prev, (s, p)) in enumerate(pairwise(sums), start=2):
        # prev is the depth-(k-1) sum: both bracket endpoints must
        # reach min_depth before an enclosure may be returned; the
        # bracket is exactly 1/P_k wide
        if k - 1 >= max(min_depth, 2) and p >= target:
            lo, hi = sorted((Fraction(*prev), Fraction(s, p)))
            return Enclosure(lo, hi)
    raise AssertionError(f"the expansion bracket did not close by digit {depth}")


def bump_last(prefix) -> tuple[int, ...]:
    """Replace the last digit d_n by d_n + 1 (the sibling prefix)."""
    prefix = validate_prefix(prefix)
    if not prefix:
        raise DomainError("cannot bump the empty prefix")
    return prefix[:-1] + (prefix[-1] + 1,)


def dual_representation(x: Fraction) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """The two sequence preimages of a rational x in (0, 1).

    Returns (sigma, tau) where sigma is the greedy digit sequence
    (d_1, ..., d_n) and tau = (d_1, ..., d_{n-1}, d_n - 1, d_n); both
    evaluate back to x exactly.
    """
    x = Fraction(x)
    if not (0 < x < 1):
        raise DomainError("dual representation requires x strictly inside (0, 1)")
    sigma = digits_rational(x)
    tau = sigma[:-1] + (sigma[-1] - 1, sigma[-1])
    validate_prefix(tau)
    return sigma, tau


@dataclass(frozen=True)
class FundamentalInterval:
    """The interval of all points sharing a digit prefix, with exact diameter."""

    prefix: tuple[int, ...]
    left: Fraction
    right: Fraction
    diameter: Fraction

    def as_interval(self) -> Enclosure:
        return Enclosure(self.left, self.right)


def _cell(s: int, p: int, d: int, n: int) -> tuple[Fraction, Fraction]:
    """(left, right) of the depth-n cell whose prefix sums to s/p and ends in d.

    The bumped prefix (last digit d + 1) has the value
    (s*(d+1) - (-1)^(n+1)) / (p*(d+1)): below s/p for odd n, above it for
    even n.
    """
    sign = 1 if n % 2 else -1
    value, bumped = Fraction(s, p), Fraction(s * (d + 1) - sign, p * (d + 1))
    return (bumped, value) if sign > 0 else (value, bumped)


def fundamental_interval(prefix) -> FundamentalInterval:
    """Exact endpoints and diameter of the cell of a non-empty prefix.

    The endpoints are the values of the prefix and of its last-digit
    bump, both from the prefix's last partial sum; the diameter equals
    (prod 1/d_j) / (d_n + 1), which is also asserted here as an internal
    cross-check.
    """
    prefix = validate_prefix(prefix)
    if not prefix:
        raise DomainError("the empty prefix has no fundamental interval")
    s, p = _exact_sum(prefix)
    left, right = _cell(s, p, prefix[-1], len(prefix))
    diameter = right - left
    assert diameter == Fraction(1, p * (prefix[-1] + 1))
    return FundamentalInterval(prefix, left, right, diameter)


def cylinder_contains(prefix, seq: PierceSeq) -> bool:
    """Whether the first len(prefix) digits of seq equal the prefix."""
    prefix = validate_prefix(prefix)
    return seq.terms(len(prefix)) == prefix


def seq_distance(s: PierceSeq, t: PierceSeq, depth: int) -> Fraction:
    """Truncated product-topology distance between two sequences.

    sum_{k<=depth} 2**-k * |i(s_k) - i(t_k)| with i(m) = 1/m, i(inf) = 0;
    a concrete compatible metric, truncated with error at most 2**-depth.
    """
    if depth < 1:
        raise DomainError("depth must be at least 1")
    total = Fraction(0)
    for k, (u, v) in enumerate(zip(s.terms(depth), t.terms(depth)), start=1):
        total += Fraction(1, 1 << k) * abs(unit_reciprocal(u) - unit_reciprocal(v))
    return total


def locate_cylinder(interval: Enclosure) -> tuple[int, ...]:
    """A digit prefix whose fundamental interval fits inside [lo, hi] within [0, 1].

    Descends the chain of cells containing the midpoint, returning the
    shallowest one that fits.  When the midpoint's (finite, rational)
    digit chain is exhausted first, the children of the final cell
    accumulate exactly at the midpoint with exact offsets 1/(P*m) (P the
    digit product), so the first admissible child index is computed
    directly rather than scanned.  Deterministic by construction.
    """
    lo, hi = unit_interval(interval)
    if lo >= hi:
        raise DomainError("locate_cylinder requires an interval with interior")
    mid = (lo + hi) / 2
    chain = digits_rational(mid)  # non-empty: mid > 0
    for depth, (d, (s, product)) in enumerate(zip(chain, alternating_sums(chain)), start=1):
        left, right = _cell(s, product, d, depth)
        if lo <= left and right <= hi:
            return chain[:depth]
    # mid equals the value of its full chain; children sit at
    # mid + (-1)^n / (P*m) and shrink toward mid, which is interior.
    side = 1 if len(chain) % 2 == 0 else -1
    gap = (hi - mid) if side > 0 else (mid - lo)
    first = max(chain[-1] + 1, -(-gap.denominator // (product * gap.numerator)))
    for d in (first, first + 1):
        candidate = chain + (d,)
        cell = fundamental_interval(candidate)
        if lo <= cell.left and cell.right <= hi:
            return candidate
    raise AssertionError("child-cell jump failed to land inside the interval")
