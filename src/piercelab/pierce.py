"""The Pierce digit algorithm and shift dynamics over exact rationals.

A single greedy step maps x to (d, t) with d = floor(1/x) and
t = 1 - d*x.  For x = p/q it keeps the denominator fixed:
T(p/q) = 1 - (q//p)*p/q = (q mod p)/q, so the digits of a rational are
d_k = q // p_k with p_{k+1} = q - d_k*p_k, computed on integers alone.
The numerators strictly decrease, so the strictly increasing digit
sequence of x terminates at 0 exactly when x is rational.  One plain
loop, _digit_run, steps both ends of [a/q, b/q] and emits only the
digits every point of it shares; digits_rational, digit_step and
shift_orbit run it on a point, a == b.  A step multiplies the gap b - a
by d, so a point stays a point, and its next upper end is the remainder
of the divmod(q, b) that gave d.
Partial sums of the alternating series are likewise integer pairs
(S_k, P_k) with s_k = S_k / P_k and P_k = d_1 ... d_k.
"""

from __future__ import annotations

import math
from enum import Enum
from fractions import Fraction

from .arith import (
    DomainError,
    ExtNat,
    INFINITY,
    Enclosure,
    _record,
    unit_interval,
    unit_rational,
)

__all__ = [
    "DigitStatus",
    "SafeDigits",
    "validate_prefix",
    "digit_step",
    "digits_rational",
    "safe_digits",
    "alternating_sums",
    "shift_orbit",
]


def validate_prefix(digits) -> tuple[int, ...]:
    """Check a finite digit prefix: positive integers, strictly increasing."""
    d = tuple(digits)
    last = 0
    for k, x in enumerate(d, start=1):
        if not isinstance(x, int) or x < 1:
            raise DomainError(f"digit {x!r} at index {k} is not a positive integer")
        if x <= last:
            raise DomainError(f"strict increase fails at index {k}: {last} -> {x}")
        last = x
    return d


def digit_step(x: Fraction) -> tuple[ExtNat, Fraction]:
    """One greedy step: (floor(1/x), 1 - floor(1/x)*x); (INFINITY, 0) at x = 0.

    The remainder is again in [0, 1] and, for x in (0, 1], has a strictly
    smaller numerator than x in lowest terms, which is why the iteration
    terminates on rationals.
    """
    x = unit_rational(x)
    digits, rests, _ = _digit_run(x.numerator, x.numerator, x.denominator, 1)
    return (digits[0], Fraction(rests[0], x.denominator)) if digits else (INFINITY, Fraction(0))


def digits_rational(x: Fraction) -> tuple[int, ...]:
    """The full digit sequence of a rational x = p/q in [0, 1].

    Every remainder keeps the denominator q, so the digits are q // p_k
    with p_{k+1} = q mod p_k < p_k: no gcd is taken at any step, and the
    digit loop ends after at most p steps.
    """
    x = unit_rational(x)
    return tuple(_digit_run(x.numerator, x.numerator, x.denominator, x.numerator)[0])


class DigitStatus(Enum):
    EXHAUSTED = "exhausted"
    AMBIGUOUS = "ambiguous"
    TERMINATED = "terminated"


@_record
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
    digits, _, status = _digit_run(lo.numerator * (q // lo.denominator),
                                   hi.numerator * (q // hi.denominator), q, max_n)
    return SafeDigits(tuple(digits), status)


def _digit_run(a: int, b: int, q: int, n: int) -> tuple[list[int], list[int], DigitStatus]:
    """(digits, lower numerators after each step, status) of [a/q, b/q], 0 <= a <= b <= q.

    The digits, at most n, are those every point of the interval shares.
    With d = q // b the ends step to (q mod b, q - d*a); as d*a <= q,
    q // a == d exactly when q - d*a < a, and at a == 0 (digit INFINITY
    at lo) q - d*a = q >= a, so that case is AMBIGUOUS too.
    """
    digits, lows = [], []
    while b:
        if not n:
            return digits, lows, DigitStatus.EXHAUSTED
        d, r = divmod(q, b)
        if a == b:  # a point stays a point
            b = r
        else:
            b = q - d * a
            if b >= a:
                return digits, lows, DigitStatus.AMBIGUOUS
        a = r
        digits.append(d)
        lows.append(r)
        n -= 1
    return digits, lows, DigitStatus.TERMINATED


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


def shift_orbit(x: Fraction, n: int) -> list[Fraction]:
    """[T(x), T^2(x), ..., T^n(x)] exactly from the digit loop, padded with its fixed point 0."""
    x = unit_rational(x)
    if n < 0:
        raise DomainError("orbit length must be non-negative")
    p, q = x.numerator, x.denominator
    orbit = [Fraction(r, q) for r in _digit_run(p, p, q, n)[1]]
    return orbit + [Fraction(0)] * (n - len(orbit))
