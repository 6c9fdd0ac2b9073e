"""Exact numeric substrate shared by the whole package.

Provides arbitrary-precision rationals (``fractions.Fraction`` under the
alias ``BigRational``), extended naturals with a single ``INFINITY``
sentinel, rational enclosures and their check against [0, 1], and
integer-only kernels for floors of reciprocals, roots, and binary
logarithms.  Everything here is exact: no floating point is used
anywhere, and every enclosure is certified by integer comparisons.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from itertools import compress, repeat
from operator import is_
from typing import Union

__all__ = [
    "BigRational",
    "DomainError",
    "GuardExceededError",
    "UncertifiedRuleError",
    "INFINITY",
    "ExtNat",
    "unit_reciprocal",
    "unit_rational",
    "unit_interval",
    "floor_reciprocal",
    "integer_root",
    "floor_root_power",
    "ceil_root_power",
    "Enclosure",
    "LOG2_SCALE",
    "log2_bounds",
    "log2_enclosure",
    "ln2_enclosure",
    "ln_enclosure",
    "pow_enclosure",
]

BigRational = Fraction


def rational_str(x: Fraction) -> str:
    """Canonical exact string "p/q" (always with the denominator).

    Raises GuardExceededError past Python's int-to-str digit limit.
    """
    x = Fraction(x)
    try:
        return f"{x.numerator}/{x.denominator}"
    except ValueError as exc:
        raise GuardExceededError(f"rational too long to print: {exc}") from exc


class DomainError(ValueError):
    """An argument lies outside an operation's mathematical domain."""


class GuardExceededError(RuntimeError):
    """A desk-scale guard (enumeration size, depth, ...) would be exceeded."""


class UncertifiedRuleError(DomainError):
    """A certified quantity was requested for a rule with no analytic certificate."""


class _InfinityType:
    """The extended-natural infinity.

    Participates in arithmetic only through the conventions used by the
    digit machinery: reciprocal powers of INFINITY are 0 and INFINITY
    compares above every integer.  Any other mixed operation is a
    programming error and raises.
    """

    _instance = None

    def __new__(cls):
        if cls._instance is None:
            cls._instance = super().__new__(cls)
        return cls._instance

    def __repr__(self) -> str:
        return "INFINITY"

    def __eq__(self, other) -> bool:
        return other is self

    def __hash__(self) -> int:
        return hash("piercelab.arith.INFINITY")

    def __lt__(self, other) -> bool:
        if isinstance(other, int) or other is self:
            return False
        return NotImplemented

    def __le__(self, other) -> bool:
        return other is self

    def __gt__(self, other) -> bool:
        if isinstance(other, int):
            return True
        if other is self:
            return False
        return NotImplemented

    def __ge__(self, other) -> bool:
        if isinstance(other, int) or other is self:
            return True
        return NotImplemented


INFINITY = _InfinityType()

ExtNat = Union[int, _InfinityType]


def unit_reciprocal(d: ExtNat) -> Fraction:
    """1/d for a finite digit, 0 for INFINITY (the c/inf = 0 convention)."""
    if d is INFINITY:
        return Fraction(0)
    if not isinstance(d, int) or d < 1:
        raise DomainError(f"digit must be a positive integer or INFINITY, got {d!r}")
    return Fraction(1, d)


def unit_rational(x) -> Fraction:
    """x as a Fraction, checked to lie in [0, 1]."""
    x = Fraction(x)
    if not (0 <= x <= 1):
        raise DomainError(f"value {x} lies outside [0, 1]")
    return x


def unit_interval(e: Enclosure) -> tuple[Fraction, Fraction]:
    """The endpoints of e as Fractions, checked to lie within [0, 1]."""
    lo, hi = Fraction(e.lo), Fraction(e.hi)
    if not (0 <= lo and hi <= 1):
        raise DomainError(f"interval [{lo}, {hi}] is not within [0, 1]")
    return lo, hi


def floor_reciprocal(x: Fraction) -> ExtNat:
    """floor(1/x) for x in (0, 1]; INFINITY for x = 0.

    This is the greedy digit map: for x = p/q in lowest terms the result
    is the exact integer quotient q // p.
    """
    x = unit_rational(x)
    if x == 0:
        return INFINITY
    return x.denominator // x.numerator


def integer_root(m: int, p: int) -> int:
    """floor(m ** (1/p)) for m >= 0, p >= 1, by integer Newton iteration.

    Roots wider than 128 bits start from the root of the top half at
    doubling precision, so Newton begins with half the bits right.
    """
    if p < 1:
        raise DomainError("root degree must be >= 1")
    if m < 0:
        raise DomainError("radicand must be non-negative")
    if p == 1 or m in (0, 1):
        return m
    if p == 2:
        return math.isqrt(m)
    if m.bit_length() <= p:
        # m < 2**p means the root is 1 (m >= 2 here).
        return 1
    bits = -(-m.bit_length() // p)
    if bits <= 128:
        return _newton_root(m, p, 1 << bits)  # 2**ceil(bits/p) >= m**(1/p)
    # floor(m**(1/p) / 2**s) is the root of m >> p*s, so one more,
    # shifted back, is above m**(1/p).
    s = bits // 2
    return _newton_root(m, p, integer_root(m >> p * s, p) + 1 << s)


def _newton_root(m: int, p: int, x: int) -> int:
    """floor(m ** (1/p)) for p >= 2 by Newton from any x >= floor(m ** (1/p)).

    By the AM-GM inequality every iterate stays >= floor(m ** (1/p)), and
    it decreases strictly while above it, so the first one that does not
    decrease is the floor.
    """
    while True:
        y = ((p - 1) * x + m // x ** (p - 1)) // p
        if y >= x:
            return x
        x = y


def floor_root_power(n: int, p: int, q: int) -> int:
    """Exact floor(n ** (q/p)) for naturals n, p, q >= 1.

    Computed as the integer p-th root of n**q; no floating point.
    """
    if n < 1 or p < 1 or q < 1:
        raise DomainError("floor_root_power requires n, p, q >= 1")
    return integer_root(n**q, p)


def ceil_root_power(n: int, p: int, q: int) -> int:
    """Exact ceil(n ** (q/p)) for naturals n, p, q >= 1."""
    r = floor_root_power(n, p, q)
    if r**p == n**q:
        return r
    return r + 1


@dataclass(frozen=True)
class Enclosure:
    """A closed rational interval [lo, hi] certified to contain a real value."""

    lo: Fraction
    hi: Fraction

    def __post_init__(self):
        if self.lo > self.hi:
            raise DomainError(f"interval [{self.lo}, {self.hi}] has its endpoints out of order")

    @classmethod
    def exact(cls, value) -> "Enclosure":
        v = Fraction(value)
        return cls(v, v)

    @property
    def width(self) -> Fraction:
        return self.hi - self.lo

    @property
    def midpoint(self) -> Fraction:
        return (self.lo + self.hi) / 2

    @property
    def is_exact(self) -> bool:
        return self.lo == self.hi

    def __contains__(self, value) -> bool:
        return self.lo <= Fraction(value) <= self.hi

    def contains_interval(self, other: "Enclosure") -> bool:
        return self.lo <= other.lo and other.hi <= self.hi

    def mul_pos(self, other: "Enclosure") -> "Enclosure":
        """Interval product; both operands must be non-negative."""
        if self.lo < 0 or other.lo < 0:
            raise DomainError("mul_pos expects non-negative enclosures")
        return Enclosure(self.lo * other.lo, self.hi * other.hi)

    def div_pos(self, other: "Enclosure") -> "Enclosure":
        """Interval quotient; the divisor must be strictly positive."""
        if other.lo <= 0:
            raise DomainError("div_pos expects a strictly positive divisor")
        if self.lo < 0:
            raise DomainError("div_pos expects a non-negative dividend")
        return Enclosure(self.lo / other.hi, self.hi / other.lo)


# The one scale of certified binary logs: lo <= LOG2_SCALE * log2(n) <= hi.
LOG2_SCALE_BITS = 33
LOG2_SCALE = 1 << LOG2_SCALE_BITS

_LOG2_CACHE: dict[int, int] = {}  # n -> floor(LOG2_SCALE * log2(n))
_LOG2_CACHE_CAP = 1 << 17  # entries; the cache only memoises, so it is cleared when full


def log2_bounds(n: int) -> tuple[int, int]:
    """Integers lo <= LOG2_SCALE*log2(n) <= hi.

    hi == lo for powers of two, else lo + 1.  lo is the unique floor of
    LOG2_SCALE*log2(n), kept once both ends of an atanh series from the
    power of two below n agree on it: a one-index batch of _log2_ends.
    """
    if not isinstance(n, int) or n < 1:
        raise DomainError("log2 requires a positive integer")
    (lo,), (hi,) = _log2_ends((n,))
    return lo, hi


# Guard bits of a log run below the output scale.  A step widens the
# accumulator by a few units, so thousands of steps fit between anchors.
_RUN_GUARD_BITS = 24


def _log2_step(acc_lo: int, acc_hi: int, n: int, m: int, c_lo: int, c_hi: int):
    """Move integers acc_lo <= floor(2**w * log2 n) <= acc_hi to the same for m.

    Needs n <= m < 2n and c_lo <= C <= c_hi for C = 2**w * 2/ln 2.
    Adds (2/ln 2) atanh(y), y = (m - n)/(m + n) < 1/3, as odd powers of
    y over j while C*y**j > 1, floored below and ceiled above.  The terms
    left out sum to at most 1/(1 - y**2) <= 9/8 units; with 2**w * log2 n
    below acc_hi + 1, 2 units added above keep the floor for m.
    """
    t = m + n
    d = m - n
    d2, t2 = d * d, t * t
    u_lo, u_hi = c_lo * d // t, -(-c_hi * d // t)
    j = 1
    while u_hi > 1:
        acc_lo += u_lo // j
        acc_hi -= -u_hi // j
        u_lo, u_hi = u_lo * d2 // t2, -(-u_hi * d2 // t2)
        j += 2
    return acc_lo, acc_hi + 2


def _log2_constants(w: int) -> tuple[int, int]:
    """Integers c_lo <= 2**w * 2/ln 2 <= c_hi for _log2_step."""
    ln2 = ln2_enclosure(w + 8)
    return ((2 << w) * ln2.hi.denominator // ln2.hi.numerator,
            -(-(2 << w) * ln2.lo.denominator // ln2.lo.numerator))


def _log2_anchored(m: int, w: int, c_lo: int, c_hi: int) -> tuple[int, int]:
    """Integers lo <= floor(2**w * log2 m) <= hi: one _log2_step from 2**e <= m.

    Past w + 8 bits the step goes to m >> s and adds s; the bits cut off
    move log2 m by less than 2**-(w+8)/ln 2, under the one unit added
    above.  m < 2**(e+s+1) caps hi, which decides m just below a power of two.
    """
    s = max(m.bit_length() - w - 8, 0)
    m >>= s
    e = m.bit_length() - 1
    lo, hi = _log2_step((e + s) << w, (e + s) << w, 1 << e, m, c_lo, c_hi)
    return lo, min(hi + (s > 0), ((e + s + 1) << w) - 1)


def _log2_floor(n: int) -> int:
    """floor(LOG2_SCALE * log2(n)): anchors at 2g, 4g, ... guard bits until both ends agree.

    g = _RUN_GUARD_BITS; _log2_lows calls it where an anchor at g disagreed.
    """
    g = 2 * _RUN_GUARD_BITS
    while True:
        w = LOG2_SCALE_BITS + g
        lo, hi = _log2_anchored(n, w, *_log2_constants(w))
        if lo >> g == hi >> g:
            return lo >> g
        g *= 2


def _log2_lows(ns) -> list[int]:
    """[log2_bounds(n)[0] for n in ns], for an increasing run ns.

    The one reader and writer of `_LOG2_CACHE`: all hits are looked up
    first, then only the misses are walked.  A miss at m steps an
    integer bracket [acc_lo, acc_hi] of floor(2**w * log2) from the last
    miss prev, w = LOG2_SCALE_BITS + g, by _log2_step.  Where both ends
    agree on `>> g` that is the unique floor of LOG2_SCALE * log2 m.
    The first miss, a gap past prev/16 and a disagreeing step anchor
    the bracket at the power of two below m instead; an anchor that
    still disagrees leaves that floor to _log2_floor.  The step
    constants are built once per batch, and only when it has a miss.
    """
    lows = list(map(_LOG2_CACHE.get, ns))
    if None not in lows:
        return lows
    g = _RUN_GUARD_BITS
    w = LOG2_SCALE_BITS + g
    c_lo, c_hi = _log2_constants(w)
    prev = acc_lo = acc_hi = 0
    for i, m in compress(enumerate(ns), map(is_, lows, repeat(None))):
        near = 0 < 16 * (m - prev) <= prev
        if near:
            acc_lo, acc_hi = _log2_step(acc_lo, acc_hi, prev, m, c_lo, c_hi)
        if not near or acc_lo >> g != acc_hi >> g:
            acc_lo, acc_hi = _log2_anchored(m, w, c_lo, c_hi)
        lo = acc_lo >> g
        if lo != acc_hi >> g:
            lo = _log2_floor(m)
        prev = m
        if len(_LOG2_CACHE) >= _LOG2_CACHE_CAP:
            _LOG2_CACHE.clear()
        _LOG2_CACHE[m] = lows[i] = lo
    return lows


def _log2_ends(ns) -> tuple[list[int], list[int]]:
    """The lower and the upper ends of log2_bounds(n) for an increasing run ns.

    The one place the upper end is written: lo at powers of two, else lo + 1.
    """
    lows = _log2_lows(ns)
    return lows, [lo + (n & (n - 1) != 0) for n, lo in zip(ns, lows)]


def log2_enclosure(n: int) -> Enclosure:
    """Certified enclosure of log2(n), width 1/LOG2_SCALE; exact for powers of two."""
    lo, hi = log2_bounds(n)
    return Enclosure(Fraction(lo, LOG2_SCALE), Fraction(hi, LOG2_SCALE))


_LN2_CACHE: dict[int, Enclosure] = {}


def ln2_enclosure(frac_bits: int = 64) -> Enclosure:
    """Certified enclosure of ln 2 from the exact series sum 1/(k 2^k)."""
    hit = _LN2_CACHE.get(frac_bits)
    if hit is not None:
        return hit
    terms = frac_bits + 8
    # Over the common denominator lcm(1..terms) * 2**terms: one gcd, not one per term.
    lcm = math.lcm(*range(1, terms + 1))
    s = Fraction(sum(lcm // k << terms - k for k in range(1, terms + 1)), lcm << terms)
    # Tail sum_{k>K} 1/(k 2^k) < 2^-K / (K+1).
    tail = Fraction(1, (terms + 1) << terms)
    enc = Enclosure(s, s + tail)
    _LN2_CACHE[frac_bits] = enc
    return enc


def ln_enclosure(n: int) -> Enclosure:
    """Certified enclosure of the natural logarithm of a positive integer."""
    if n == 1:
        return Enclosure.exact(0)
    return log2_enclosure(n).mul_pos(ln2_enclosure(32))


def _scaled_root(m: int, v: int, t: int) -> tuple[int, bool]:
    """(floor(2**t * m**(1/v)), whether that root is exact) for m >= 0, v >= 1.

    The one scaled root of the package: m**(1/v) lies in [r, r+1] / 2**t.
    """
    r = integer_root(m << (v * t), v)
    return r, r & ((1 << t) - 1) == 0 and (r >> t) ** v == m


def pow_enclosure(base: int, exponent: Fraction, frac_bits: int = 64) -> Enclosure:
    """Certified enclosure of base**exponent for integer base >= 1.

    An exponent u/v >= 0 is the scaled root of base**u at 2**frac_bits;
    a negative one goes through the reciprocal.
    """
    if base < 1:
        raise DomainError("pow_enclosure requires base >= 1")
    exponent = Fraction(exponent)
    if exponent < 0:
        pos = pow_enclosure(base, -exponent, frac_bits)
        return Enclosure(1 / pos.hi, 1 / pos.lo)
    r, exact = _scaled_root(base**exponent.numerator, exponent.denominator, frac_bits)
    scale = 1 << frac_bits
    return Enclosure(Fraction(r, scale), Fraction(r + (not exact), scale))
