"""The space of Pierce sequences and its evaluation map.

A Pierce sequence is either a strictly increasing finite prefix padded
with INFINITY (the all-infinite sequence being the empty prefix) or an
infinite strictly increasing sequence given by a symbolic rule.  The
evaluation map sums the alternating series of reciprocal digit
products; finite sequences evaluate exactly, infinite ones to a
rational enclosure bracketed by consecutive partial sums.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Optional, Union

from .arith import (
    DomainError,
    ExtNat,
    INFINITY,
    Enclosure,
    _record,
    unit_interval,
    unit_reciprocal,
)
from .pierce import _digit_run, alternating_sums, digits_rational, validate_prefix
from .rules import DigitRule

__all__ = [
    "PierceSeq",
    "SIGMA_ZERO",
    "FundamentalInterval",
    "expansion_value",
    "dual_representation",
    "fundamental_interval",
    "cylinder_contains",
    "seq_distance",
    "locate_cylinder",
]

DEFAULT_PRECISION_BITS = 64


@_record
class PierceSeq:
    """A point of the sequence space: finite prefix or infinite rule."""

    prefix: Optional[tuple[int, ...]] = None
    rule: Optional[DigitRule] = None

    def __init__(self, prefix=None, rule=None):
        if (prefix is None) == (rule is None):
            raise DomainError("a Pierce sequence is either a finite prefix or a rule")
        object.__setattr__(self, "prefix", prefix if prefix is None else validate_prefix(prefix))
        object.__setattr__(self, "rule", rule)

    @staticmethod
    def finite(digits) -> "PierceSeq":
        return PierceSeq(digits)

    @staticmethod
    def infinite(rule: DigitRule) -> "PierceSeq":
        return PierceSeq(None, rule)

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
    s, p, sign = 0, 1, 1
    for d in digits:  # alternating_sums' step, without its generator
        s, p, sign = s * d + sign, p * d, -sign
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
    # and k - 1 >= max(min_depth, 2) from k = max(min_depth + 1, 3).  Rule
    # terms increase by the proof in the `DigitRule` docstring, and the
    # stream is lazy, so no digit past the last one read is built.
    depth = max(min_depth + 1, 3, precision_bits + 1)
    least = max(min_depth, 2) + 1
    s, p, sign = 0, 1, 1  # (S_{k-1}, P_{k-1}), stepped as in alternating_sums
    for k, d in enumerate(seq.rule.terms_run(1, depth), start=1):
        t, q = s * d + sign, p * d
        # both endpoints must reach min_depth before an enclosure may be
        # returned; the bracket is exactly 1/P_k wide, and S_k/P_k is its
        # upper end at odd k (sign 1)
        if k >= least and q >= target:
            lo, hi = ((s, p), (t, q)) if sign > 0 else ((t, q), (s, p))
            return Enclosure(Fraction(*lo), Fraction(*hi))
        s, p, sign = t, q, -sign
    raise AssertionError(f"the expansion bracket did not close by digit {depth}")


def dual_representation(x: Fraction) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """The two sequence preimages of a rational x in (0, 1).

    Returns (sigma, tau) where sigma is the greedy digit sequence
    (d_1, ..., d_n) and tau = (d_1, ..., d_{n-1}, d_n - 1, d_n); both
    evaluate back to x exactly.
    """
    x = Fraction(x)
    if not 0 < x.numerator < x.denominator:
        raise DomainError("dual representation requires x strictly inside (0, 1)")
    sigma = digits_rational(x)
    # Strictly increasing: the last greedy digit of a rational exceeds the
    # one before it by at least 2, and a one-digit x = 1/d_1 < 1 has d_1 >= 2.
    tau = sigma[:-1] + (sigma[-1] - 1, sigma[-1])
    return sigma, tau


@_record
class FundamentalInterval:
    """The interval of all points sharing a digit prefix, with exact diameter."""

    prefix: tuple[int, ...]
    left: Fraction
    right: Fraction
    diameter: Fraction


def _cell(s: int, p: int, d: int, n: int) -> tuple[int, int]:
    """(k, q): the depth-n cell whose prefix sums to s/p and ends in d is [k, k + 1] / q.

    q = p*(d+1).  The bumped prefix (last digit d + 1) has the value
    (s*(d+1) - (-1)^(n+1)) / q: below s/p for odd n, above it for even n,
    so k = s*(d+1) - 1 for odd n and s*(d+1) for even n.
    """
    return s * (d + 1) - (n & 1), p * (d + 1)


def fundamental_interval(prefix) -> FundamentalInterval:
    """Exact endpoints and diameter of the cell of a non-empty prefix.

    The endpoints are the values of the prefix and of its last-digit
    bump, both from the prefix's last partial sum; the diameter is their
    distance 1/q = (prod 1/d_j) / (d_n + 1).
    """
    prefix = validate_prefix(prefix)
    if not prefix:
        raise DomainError("the empty prefix has no fundamental interval")
    k, q = _cell(*_exact_sum(prefix), prefix[-1], len(prefix))
    return FundamentalInterval(prefix, Fraction(k, q), Fraction(k + 1, q), Fraction(1, q))


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
    shallowest one that fits; each cell [k, k + 1] / q (see _cell) is
    tested on integers against lo = a/c and hi = b/c, so no Fraction
    endpoint is built.  When the midpoint's (finite, rational) digit
    chain is exhausted first, the children of the final cell accumulate
    exactly at the midpoint with exact offsets 1/(P*m) (P the digit
    product), so the first admissible child index is computed directly
    rather than scanned.  Deterministic by construction.
    """
    lo, hi = unit_interval(interval)
    c = math.lcm(lo.denominator, hi.denominator)
    a, b = lo.numerator * (c // lo.denominator), hi.numerator * (c // hi.denominator)
    if a >= b:
        raise DomainError(f"interval [{lo}, {hi}] has no interior")
    # the digits of the midpoint (a + b) / 2c, unreduced: a common factor
    # of both leaves every quotient; non-empty, as a + b > 0
    chain = tuple(_digit_run(a + b, a + b, 2 * c, a + b)[0])
    for depth, (d, (s, product)) in enumerate(zip(chain, alternating_sums(chain)), start=1):
        k, q = _cell(s, product, d, depth)
        if a * q <= k * c and (k + 1) * c <= b * q:
            return chain[:depth]
    # mid = s/P equals the value of its full chain; children sit at
    # (s*m + (-1)^n) / (P*m) and shrink toward mid, which is interior.
    n = len(chain)
    first = max(chain[-1] + 1, -(-2 * c // (product * (b - a))))  # room (b - a)/2c by mid
    for d in (first, first + 1):
        k, q = _cell(s * d + (-1) ** n, product * d, d, n + 1)
        if a * q <= k * c and (k + 1) * c <= b * q:
            return chain + (d,)
    raise AssertionError("child-cell jump failed to land inside the interval")
