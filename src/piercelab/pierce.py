"""The Pierce digit algorithm and shift dynamics over exact rationals.

A single greedy step maps x to (d, t) with d = floor(1/x) and
t = 1 - d*x.  For x = p/q it keeps the denominator fixed:
T(p/q) = 1 - (q//p)*p/q = (q mod p)/q, so the digits of a rational are
d_k = q // p_k with p_{k+1} = q - d_k*p_k, computed on integers alone.
One plain loop, _orbit, runs these steps and lists the digits and
numerators; digits_rational, digit_step and shift_orbit all read them.
The numerators strictly decrease, so the strictly increasing digit
sequence of x terminates at 0 exactly when x is rational.  The interval
variant runs the same step on both endpoints over a common denominator
and only ever emits digits shared by every point of the enclosure.
Partial sums of the alternating series are likewise integer pairs
(S_k, P_k) with s_k = S_k / P_k and P_k = d_1 ... d_k.
"""

from __future__ import annotations

import math
from enum import Enum
from fractions import Fraction
from operator import lt

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
    if set(map(type, d)) <= {int} and all(map(lt, (0, *d), d)):  # plain ints rising from 1
        return d
    # int subclasses, or a refusal that names the first digit at fault
    last = 0
    for k, x in enumerate(d, start=1):
        if not isinstance(x, int) or x < 1:
            raise DomainError(f"digit {x!r} at index {k} is not a positive integer")
        if x <= last:
            raise DomainError(f"strict increase fails at index {k}: {last} -> {x}")
        last = x
    return d


def _orbit(x: Fraction, n: int) -> tuple[list[int], list[int]]:
    """([d_1..d_k], [p_1..p_k]) with T^j(x) = p_j/q for x = p_0/q: k = n, or less at p_k = 0."""
    p, q = x.numerator, x.denominator
    digits, rests = [], []
    while p and n:
        d, p = divmod(q, p)
        digits.append(d)
        rests.append(p)
        n -= 1
    return digits, rests


def digit_step(x: Fraction) -> tuple[ExtNat, Fraction]:
    """One greedy step: (floor(1/x), 1 - floor(1/x)*x); (INFINITY, 0) at x = 0.

    The remainder is again in [0, 1] and, for x in (0, 1], has a strictly
    smaller numerator than x in lowest terms, which is why the iteration
    terminates on rationals.
    """
    x = unit_rational(x)
    digits, rests = _orbit(x, 1)
    return (digits[0], Fraction(rests[0], x.denominator)) if digits else (INFINITY, Fraction(0))


def digits_rational(x: Fraction) -> tuple[int, ...]:
    """The full digit sequence of a rational x = p/q in [0, 1].

    Every remainder keeps the denominator q, so the digits are q // p_k
    with p_{k+1} = q mod p_k < p_k: no gcd is taken at any step, and the
    one orbit loop ends after at most p steps.
    """
    x = unit_rational(x)
    return tuple(_orbit(x, x.numerator)[0])


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
    return _safe_run(lo.numerator * (q // lo.denominator), hi.numerator * (q // hi.denominator),
                     q, max_n)


def _safe_run(a: int, b: int, q: int, max_n: int) -> SafeDigits:
    """safe_digits of [a/q, b/q] for integers 0 <= a <= b <= q, q >= 1, and max_n >= 0."""
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


def shift_orbit(x: Fraction, n: int) -> list[Fraction]:
    """[T(x), T^2(x), ..., T^n(x)] exactly from the orbit loop, padded with its fixed point 0."""
    x = unit_rational(x)
    if n < 0:
        raise DomainError("orbit length must be non-negative")
    orbit = [Fraction(p, x.denominator) for p in _orbit(x, n)[1]]
    return orbit + [Fraction(0)] * (n - len(orbit))
