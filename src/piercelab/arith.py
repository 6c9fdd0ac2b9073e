"""Exact numeric substrate shared by the whole package.

Provides extended naturals with a single ``INFINITY`` sentinel, rational
enclosures and their check against [0, 1], and integer-only kernels for
floors of reciprocals, roots, and binary logarithms.  Everything here is
exact: every enclosure is certified by integer comparisons, and the one
float, where `integer_root` starts a narrow odd root, only sets where
integer steps to the exact floor begin.
"""

from __future__ import annotations

import math
from fractions import Fraction
from functools import cache, total_ordering
from itertools import compress, repeat
from operator import attrgetter, is_
from typing import Union

__all__ = [
    "DomainError",
    "GuardExceededError",
    "INFINITY",
    "ExtNat",
    "unit_reciprocal",
    "unit_rational",
    "unit_interval",
    "floor_reciprocal",
    "integer_root",
    "Enclosure",
    "LOG2_SCALE",
    "log2_bounds",
    "log2_enclosure",
    "ln2_enclosure",
    "ln_enclosure",
    "pow_enclosure",
]


MAX_DIGITS = 4300  # no integer of more decimal digits is printed or parsed
# The least integer of MAX_DIGITS + 1 digits.  Comparing with it converts
# nothing: CPython compares two ints by their size in machine digits, and
# compares digit by digit only at equal size.
TEN_TO_MAX_DIGITS = 10**MAX_DIGITS


def rational_str(x: Fraction) -> str:
    """Canonical exact string "p/q" (always with the denominator).

    Raises GuardExceededError past MAX_DIGITS digits.
    """
    x = x if type(x) is Fraction else Fraction(x)
    n, d = x.numerator, x.denominator
    try:  # a host process may set the interpreter's own limit lower
        if abs(n) >= TEN_TO_MAX_DIGITS or d >= TEN_TO_MAX_DIGITS:
            raise ValueError(f"more than {MAX_DIGITS} digits")
        return f"{n}/{d}"
    except ValueError as exc:
        raise GuardExceededError(f"rational too long to print: {exc}") from exc


class DomainError(ValueError):
    """An argument lies outside an operation's mathematical domain."""


class GuardExceededError(RuntimeError):
    """A desk-scale guard (enumeration size, depth, ...) would be exceeded."""


@total_ordering
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
    """x as a Fraction (a Fraction itself, not a copy), checked to lie in [0, 1]."""
    if type(x) is not Fraction:
        x = Fraction(x)
    if not 0 <= x.numerator <= x.denominator:
        raise DomainError(f"value {x} lies outside [0, 1]")
    return x


def unit_interval(e: Enclosure) -> tuple[Fraction, Fraction]:
    """The endpoints of e, checked to lie within [0, 1]."""
    lo, hi = e.lo, e.hi
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


# A double's 53-bit mantissa puts a float root below 2**48 within a few
# units of the floor, so the integer steps in integer_root stay few.
_FLOAT_ROOT_BITS = 48


def integer_root(m: int, p: int) -> int:
    """floor(m ** (1/p)) for m >= 0, p >= 1, certified on integers.

    An even degree halves through math.isqrt.  An odd root below 2**48
    starts from the float 2 ** (log2(m) / p), which unit steps down and
    then up make the floor: the float sets where they start, not where
    they stop.  A wider odd root starts from the root of the top half at
    doubling precision, so Newton begins with half the bits right and its
    step count does not grow with p.
    """
    if p < 1:
        raise DomainError("root degree must be >= 1")
    if m < 0:
        raise DomainError("radicand must be non-negative")
    if p == 1 or m in (0, 1):
        return m
    if p % 2 == 0:
        # Both sides are the largest r with r**p <= m: r**p <= m gives the
        # integer r**(p/2) <= sqrt(m), so r**(p/2) <= isqrt(m); (r+1)**p > m
        # gives (r+1)**(p/2) > sqrt(m) >= isqrt(m).
        return integer_root(math.isqrt(m), p // 2)
    if m.bit_length() <= p:
        # m < 2**p means the root is 1 (m >= 2 here).
        return 1
    if m.bit_length() <= _FLOAT_ROOT_BITS * p:
        x = int(2.0 ** (math.log2(m) / p))
        while x**p > m:
            x -= 1
        while (x + 1) ** p <= m:
            x += 1
        return x
    # With s half the root's bits, floor(m**(1/p) / 2**s) is the root of
    # m >> p*s, so one more, shifted back, is above m**(1/p).
    s = -(-m.bit_length() // p) // 2
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


def _frozen(self, name, value=None):
    raise AttributeError(f"cannot assign to or delete field {name!r}")


def _record(cls):
    """Make cls a frozen value type over its own annotated fields, in order.

    A class attribute named like a field is its default.  Installs, where
    the class writes none of its own, __init__ (which then calls any
    __post_init__; that may normalise a field by object.__setattr__),
    __eq__ and __hash__ over the fields, the repr Name(f=value, ...), and
    a __setattr__ and __delattr__ that raise AttributeError.
    """
    fields = tuple(cls.__dict__.get("__annotations__", {}))
    defaults = {f: cls.__dict__[f] for f in fields if f in cls.__dict__}
    n, post_init = len(fields), hasattr(cls, "__post_init__")

    def __init__(self, *args, **kwargs):
        if kwargs or len(args) != n:
            if len(args) > n or not kwargs.keys() <= set(fields[len(args):]):
                raise TypeError(f"{cls.__name__}() got unexpected arguments")
            values = {**defaults, **dict(zip(fields, args)), **kwargs}
            if len(values) < n:
                raise TypeError(f"{cls.__name__}() missing {sorted(set(fields) - values.keys())}")
            args = map(values.__getitem__, fields)
        self.__dict__.update(zip(fields, args))
        if post_init:
            self.__post_init__()

    key = attrgetter(*fields)

    def __eq__(self, other):
        return key(self) == key(other) if other.__class__ is self.__class__ else NotImplemented

    def __repr__(self):
        body = ", ".join(f"{f}={getattr(self, f)!r}" for f in fields)
        return f"{self.__class__.__qualname__}({body})"

    methods = {"__init__": __init__, "__eq__": __eq__, "__hash__": lambda self: hash(key(self)),
               "__repr__": __repr__, "__setattr__": _frozen, "__delattr__": _frozen}
    for name in methods.keys() - cls.__dict__.keys():
        setattr(cls, name, methods[name])
    return cls


@_record
class Enclosure:
    """A closed interval [lo, hi] of Fraction bounds certified to contain a real value."""

    lo: Fraction
    hi: Fraction

    def __init__(self, lo, hi):
        lo = lo if type(lo) is Fraction else Fraction(lo)
        hi = hi if type(hi) is Fraction else Fraction(hi)
        # Cross-multiplied (denominators are positive): cheaper than Fraction's comparison.
        if lo.numerator * hi.denominator > hi.numerator * lo.denominator:
            raise DomainError(f"interval [{lo}, {hi}] has its endpoints out of order")
        # Not self.__dict__: a materialised instance dict slows every later read.
        object.__setattr__(self, "lo", lo)
        object.__setattr__(self, "hi", hi)

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
        a, b, c, d = self.lo, other.lo, other.hi, self.hi  # a <= b and c <= d, cross-multiplied
        return (a.numerator * b.denominator <= b.numerator * a.denominator
                and c.numerator * d.denominator <= d.numerator * c.denominator)

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

    g = _RUN_GUARD_BITS; _log2_ends calls it where an anchor at g disagreed.
    """
    g = 2 * _RUN_GUARD_BITS
    while True:
        w = LOG2_SCALE_BITS + g
        lo, hi = _log2_anchored(n, w, *_log2_constants(w))
        if lo >> g == hi >> g:
            return lo >> g
        g *= 2


def _log2_ends(ns) -> tuple[list[int], list[int]]:
    """The lower and the upper ends of log2_bounds(n) for an increasing run ns.

    The one place the upper end is written (lo at powers of two, else
    lo + 1), and the one reader and writer of `_LOG2_CACHE`: all hits
    are looked up first, then only the misses are walked.  A miss at m
    steps an integer bracket [acc_lo, acc_hi] of floor(2**w * log2) from
    the last miss prev, w = LOG2_SCALE_BITS + g, by _log2_step.  Where both ends
    agree on `>> g` that is the unique floor of LOG2_SCALE * log2 m.
    The first miss, a gap past prev/16 and a disagreeing step anchor
    the bracket at the power of two below m instead; an anchor that
    still disagrees leaves that floor to _log2_floor.  The step
    constants are built once per batch, and only when it has a miss.
    """
    lows = list(map(_LOG2_CACHE.get, ns))
    if None in lows:
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
    return lows, [lo + (n & (n - 1) != 0) for n, lo in zip(ns, lows)]


def log2_enclosure(n: int) -> Enclosure:
    """Certified enclosure of log2(n), width 1/LOG2_SCALE; exact for powers of two."""
    lo, hi = log2_bounds(n)
    return Enclosure(Fraction(lo, LOG2_SCALE), Fraction(hi, LOG2_SCALE))


@cache
def ln2_enclosure(frac_bits: int = 64) -> Enclosure:
    """Certified enclosure of ln 2 from the exact series sum 1/(k 2^k)."""
    terms = frac_bits + 8
    # Over the common denominator lcm(1..terms) * 2**terms: one gcd, not one per term.
    lcm = math.lcm(*range(1, terms + 1))
    s = Fraction(sum(lcm // k << terms - k for k in range(1, terms + 1)), lcm << terms)
    # Tail sum_{k>K} 1/(k 2^k) < 2^-K / (K+1).
    tail = Fraction(1, (terms + 1) << terms)
    return Enclosure(s, s + tail)


def ln_enclosure(n: int) -> Enclosure:
    """Certified enclosure of the natural logarithm of a positive integer."""
    return log2_enclosure(n).mul_pos(ln2_enclosure(32))


def _scaled_root(m: int, v: int, t: int) -> tuple[int, bool]:
    """(floor(2**t * m**(1/v)), whether that root is exact) for m >= 0, v >= 1.

    The one scaled root of the package: m**(1/v) lies in [r, r+1] / 2**t.
    """
    r = integer_root(m << (v * t), v)
    return r, r & ((1 << t) - 1) == 0 and (r >> t) ** v == m


def _root_bracket(m: int, base: int, v: int, t: int, w: int) -> tuple[int, int, int, bool]:
    """(lo, hi, e, exact) with lo*2**e <= X = floor(2**t * m**(1/v)) <= hi*2**e.

    Needs m = base**n, n >= 1, gcd(n, v) = 1, t >= 0 and w >= 1; exact is
    _scaled_root's flag.  Where X has at most about w bits, lo = hi = X
    and e = 0.  Else lo > 2**w, hi = lo + 1, and hi*2**e >= X + 1 too.
    - Bracket: r = lo is the root of m' = floor(m * 2**(v*d)), d <= t (m
      cut to about v*(w + 2) bits where d < 0), so r**v <= m' <=
      m*2**(v*d) < m' + 1 <= (r+1)**v and r <= 2**d * m**(1/v) < r + 1;
      times 2**e, e = t - d, the integers r*2**e and (r+1)*2**e enclose
      X and its ceiling.
    - Exactness from the narrow base: m is a perfect v-th power exactly
      when base is, as v divides n*a, a prime's exponent in m, exactly
      when it divides a.  At v = 1 no root is taken: m' is its own, and exact.
    """
    d = min(t, w + 2 - m.bit_length() // v)
    m = m << v * d if d >= 0 else m >> -v * d
    r = integer_root(m, v) if v > 1 else m
    return r, r + (d < t), t - d, v == 1 or integer_root(base, v) ** v == base


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
