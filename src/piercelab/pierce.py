"""The Pierce digit algorithm and shift dynamics over exact rationals.

A single greedy step maps x to (d, t) with d = floor(1/x) and
t = 1 - d*x.  For x = p/q it keeps the denominator fixed:
T(p/q) = 1 - (q//p)*p/q = (q mod p)/q, so the digits of a rational are
d_k = q // p_k with p_{k+1} = q - d_k*p_k, computed on integers alone.
The numerators strictly decrease, so the strictly increasing digit
sequence of x terminates at 0 exactly when x is rational.  The interval
variant runs the same step on both endpoints over a common denominator
and only ever emits digits shared by every point of the enclosure.
Partial sums of the alternating series are likewise integer pairs
(S_k, P_k) with s_k = S_k / P_k and P_k = d_1 ... d_k.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from fractions import Fraction
from itertools import islice

from .arith import (
    DomainError,
    ExtNat,
    INFINITY,
    Enclosure,
    unit_interval,
    unit_rational,
)

__all__ = [
    "DigitStatus",
    "SafeDigits",
    "checked_digits",
    "validate_prefix",
    "digit_step",
    "digits_rational",
    "safe_digits",
    "alternating_sums",
    "partial_sums",
    "shift_orbit",
]


def checked_digits(digits):
    """Yield the digits, checking each is a positive integer above the last."""
    last = 0
    for k, d in enumerate(digits, start=1):
        if not isinstance(d, int) or d < 1:
            raise DomainError(f"digit {d!r} at index {k} is not a positive integer")
        if d <= last:
            raise DomainError(f"strict increase fails at index {k}: {last} -> {d}")
        last = d
        yield d


def validate_prefix(digits) -> tuple[int, ...]:
    """Check a finite digit prefix: positive integers, strictly increasing."""
    return tuple(checked_digits(digits))


def _orbit(x: Fraction):
    """Yield (d_k, p_k) for x = p_0/q, where T^k(x) = p_k/q; stops at 0."""
    p, q = x.numerator, x.denominator
    while p:
        d = q // p
        p = q - d * p
        yield d, p


def digit_step(x: Fraction) -> tuple[ExtNat, Fraction]:
    """One greedy step: (floor(1/x), 1 - floor(1/x)*x); (INFINITY, 0) at x = 0.

    The remainder is again in [0, 1] and, for x in (0, 1], has a strictly
    smaller numerator than x in lowest terms, which is why the iteration
    terminates on rationals.
    """
    x = unit_rational(x)
    d, p = next(_orbit(x), (INFINITY, 0))
    return d, Fraction(p, x.denominator)


def digits_rational(x: Fraction) -> tuple[int, ...]:
    """The full digit sequence of a rational x = p/q in [0, 1].

    Every remainder keeps the denominator q, so the digits are q // p_k
    with p_{k+1} = q mod p_k < p_k: no gcd is taken at any step, and the
    loop ends after at most p steps.
    """
    return tuple(d for d, _ in _orbit(unit_rational(x)))


class DigitStatus(Enum):
    EXHAUSTED = "exhausted"
    AMBIGUOUS = "ambiguous"
    TERMINATED = "terminated"


@dataclass(frozen=True)
class SafeDigits:
    """Digits certified to be shared by every point of an input enclosure."""

    prefix: tuple[int, ...]
    status: DigitStatus


def safe_digits(interval: Enclosure, max_n: int) -> SafeDigits:
    """Extract digits valid for the whole rational enclosure within [0, 1].

    The shift is affine decreasing on each digit cell, so the image of
    [lo, hi] under one step with digit d is exactly [1 - d*hi, 1 - d*lo];
    over a common denominator Q, with lo = a/Q and hi = b/Q, that is
    (a, b) -> (Q - d*b, Q - d*a).  A digit is emitted only while
    floor(1/x) agrees at both endpoints; the first disagreement yields
    AMBIGUOUS, reaching max_n yields EXHAUSTED, and a point orbit hitting
    0 yields TERMINATED.
    """
    lo, hi = unit_interval(interval)
    if max_n < 0:
        raise DomainError("max_n must be non-negative")
    q = math.lcm(lo.denominator, hi.denominator)
    a = lo.numerator * (q // lo.denominator)
    b = hi.numerator * (q // hi.denominator)
    digits: list[int] = []
    while True:
        if b == 0:
            return SafeDigits(tuple(digits), DigitStatus.TERMINATED)
        if len(digits) >= max_n:
            return SafeDigits(tuple(digits), DigitStatus.EXHAUSTED)
        # One big division per step.  With a <= b and d = q // b, d*a <=
        # d*b <= q, so rest = q - d*a >= 0 and q // a == d exactly when
        # rest < a; at a == 0 (digit INFINITY at lo) rest = q >= a, so that
        # case is AMBIGUOUS too.  rest is the next b.
        d = q // b
        rest = q - d * a
        if rest >= a:
            return SafeDigits(tuple(digits), DigitStatus.AMBIGUOUS)
        digits.append(d)
        a, b = q - d * b, rest


def alternating_sums(digits):
    """Yield the partial sums of the alternating series as integer pairs.

    For k = 1, 2, ... yields (S_k, P_k) with P_k = d_1 ... d_k and
    S_k / P_k = sum_{j<=k} (-1)^{j+1} / (d_1 ... d_j), advancing as
    (S, P) <- (S*d + 1, P*d) on odd steps and (S*d - 1, P*d) on even
    ones.  Consecutive sums differ by exactly 1/P_k.  The digits are not
    checked here.
    """
    s, p, sign = 0, 1, 1
    for d in digits:
        s, p, sign = s * d + sign, p * d, -sign
        yield s, p


def partial_sums(prefix) -> list[Fraction]:
    """Alternating partial sums s_k = sum_{j<=k} (-1)^{j+1} / (d_1 ... d_j).

    Consecutive sums bracket the expansion's value (alternating series
    with strictly decreasing terms).
    """
    prefix = validate_prefix(prefix)
    if not prefix:
        raise DomainError("partial sums of an empty prefix are undefined")
    return [Fraction(s, p) for s, p in alternating_sums(prefix)]


def shift_orbit(x: Fraction, n: int) -> list[Fraction]:
    """[T(x), T^2(x), ..., T^n(x)] exactly; 0 is a fixed point."""
    x = unit_rational(x)
    if n < 0:
        raise DomainError("orbit length must be non-negative")
    orbit = [Fraction(p, x.denominator) for _, p in islice(_orbit(x), n)]
    return orbit + [Fraction(0)] * (n - len(orbit))
