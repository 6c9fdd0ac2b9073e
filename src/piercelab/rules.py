"""Symbolic generators for infinite strictly increasing digit sequences.

The paper builds its sequences from four families: power-floor, tower
(power-floor at alpha = 0), linear and bit-perturbed.  Each defines its
k-th term analytically, knows a certified binary-log enclosure for that
term without necessarily materialising it (tower terms get
astronomically large), and carries its analytic convergence exponent
as `certificate`.  All four share one rule base, `DigitRule`: a checked
prefix, then floor(b_k**(q_k/p_k)) with q_k >= p_k, so they share one
term, one log enclosure and one divergence argument;
`exponent.classify_divergence` reads the verdict from `certificate`
alone.  The one range check of an exponent is `_check_alpha`.
Construction checks only the given prefix: the tail increases strictly
by proof (see `DigitRule`), so no tail digit is built until it is asked
for, and no reader checks it again.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import chain, repeat, starmap
from operator import add, attrgetter

from .arith import (
    LOG2_SCALE,
    DomainError,
    GuardExceededError,
    _log2_ends,
    _record,
    integer_root,
    log2_bounds,
    rational_str,
    unit_rational,
)
from .pierce import validate_prefix

__all__ = [
    "DigitRule",
    "PowerFloorRule",
    "LinearRule",
    "BitPerturbedRule",
]

# Bases below this bound take the exact-value path in log enclosures;
# above it the floor slack 3/b is already tighter than 2**-18.
_EXACT_LOG_BASE_BOUND = 1 << 18

# Digits are materialised only up to this many bits.
DIGIT_BITS_GUARD = 1 << 20


def _floor_power(b: int, p: int, q: int) -> int:
    """floor(b**(q/p)), refused when its bit length certainly exceeds the guard."""
    # The floor has floor(q/p * log2(b)) + 1 <= ceil(q/p * bit_length(b))
    # bits; only past the guard is the certified lower end of log2(b) needed.
    if q * b.bit_length() > p * DIGIT_BITS_GUARD:
        lo, _ = log2_bounds(b)  # lo <= LOG2_SCALE * log2(b)
        if q * lo >= p * DIGIT_BITS_GUARD * LOG2_SCALE:
            raise GuardExceededError(
                f"digit floor({b}**({q}/{p})) exceeds the digit guard of {DIGIT_BITS_GUARD} bits"
            )
    return integer_root(b**q, p)


def _check_alpha(alpha, allow_zero: bool) -> Fraction:
    """The one test of an exponent's range: [0, 1], or (0, 1] without allow_zero."""
    alpha = unit_rational(alpha)
    if not (alpha or allow_zero):
        raise DomainError(f"value {alpha} lies outside (0, 1]")
    return alpha


class DigitRule:
    """A checked prefix, then the tail floor(b_k**(q_k/p_k)) with q_k >= p_k.

    Subclasses provide `prefix`, `describe` and, unless b_k runs on from
    the last prefix digit, `_bases(lo, hi)`.  With certificate alpha > 0
    the tail is floor(b_k**(1/alpha)) with b_k <= c + 2k, so at s <= alpha
    every tail term satisfies term**s <= b_k: a shifted harmonic minorant,
    and the power sum diverges.  Above alpha it converges by a p-series
    bound.  Certificate 0 means the power q_k = k grows with k, so the
    terms dominate 2**k and every positive power sum converges.

    Construction checks only the prefix; the tail increases strictly.
    Its bases b_k >= 1 increase with k, and for q/p >= 1 the bound
    (b+1)**(q/p) >= b**(q/p) + 1 makes their floors differ by at least 1;
    tower powers b_k**k grow in base and exponent.  Each tail digit is at
    least its base, and at the seam the default bases start at d_last + 1
    (2 after an empty prefix); the families that override `_bases` have
    no prefix.
    """

    # The analytic convergence exponent; LinearRule shadows it with a class constant.
    certificate = property(attrgetter("alpha"))

    def term(self, k: int) -> int:
        """Exact k-th digit (1-indexed)."""
        return next(self.terms_run(k, k))

    def terms_run(self, lo: int, hi: int):
        """Iterator over term(k) for k = lo..hi, each digit built only when read."""
        return starmap(_floor_power, self._operands(lo, hi))

    def terms(self, n: int) -> tuple[int, ...]:
        return tuple(self.terms_run(1, n))

    def _bases(self, lo: int, hi: int):
        """The tail bases b_k for k = lo..hi."""
        shift = (self.prefix[-1] if self.prefix else 1) - len(self.prefix)
        return range(lo + shift, hi + shift + 1)

    def _monotone_tail(self) -> tuple[int, int, int, Fraction]:
        """(M, a, c, alpha): each term k > M is floor(b_k**(1/alpha)), b_k**k at 0, with the
        affine bases b_k = a*k + c >= k, a >= 1; here b_k = k + b_0."""
        return len(self.prefix), 1, self._bases(0, 0)[0], self.certificate

    def _operands(self, lo: int, hi: int):
        """Lazy (n, p, q) for k = lo..hi with term(k) = floor(n**(q/p)), n >= 2**18 if p > 1.

        The one place a term is written: prefix digits and the floors of
        small bases come as (d, 1, 1).
        """
        if lo < 1:
            raise DomainError("digit indices are 1-based")
        # max(hi, 0): a negative hi must not count from the prefix's end
        prefix = zip(self.prefix[lo - 1:max(hi, 0)], repeat(1), repeat(1))
        lo = max(lo, len(self.prefix) + 1)
        bases = self._bases(lo, hi)
        alpha = self.certificate
        if not alpha:  # b_k**k
            tail = zip(bases, repeat(1), range(lo, hi + 1))
        elif alpha.numerator == 1:  # b_k**q
            tail = zip(bases, repeat(1), repeat(alpha.denominator))
        else:  # the floors of small bases, each through the guard
            p, q = alpha.numerator, alpha.denominator
            tail = ((_floor_power(b, p, q), 1, 1) if b < _EXACT_LOG_BASE_BOUND else (b, p, q)
                    for b in bases)
        return chain(prefix, tail)

    def log2_term_run(self, lo: int, hi: int) -> list:
        """Integers with lo/den <= log2(term(k)) <= hi/den for k = lo..hi: one log batch."""
        # Scaling is exact when p == 1.  Otherwise n = b >= 2**18, and with
        # u = b**(q/p) >= b the floor loses at most -log2(1 - 1/u) <= 3/u <= 3/b bits.
        ops = list(self._operands(lo, hi))
        return [
            (q * a, q * b, LOG2_SCALE) if p == 1
            else (a * q * n - 3 * p * LOG2_SCALE, b * q * n, p * n * LOG2_SCALE)
            for (n, p, q), a, b in zip(ops, *_log2_ends([n for n, _, _ in ops]))
        ]


@_record
class PowerFloorRule(DigitRule):
    """Continue a prefix with floor((base+i)**(1/alpha)), alpha in [0, 1].

    An empty prefix is treated as base 1, so the tail starts at
    floor(2**(1/alpha)).  The generated sequence has convergence
    exponent exactly alpha.  alpha = 0 is the tower (base+i)**(M+i), M
    the prefix length: after the empty prefix 2**1, 3**2, 4**3, ...
    """

    prefix: tuple[int, ...]
    alpha: Fraction

    def __post_init__(self):
        object.__setattr__(self, "prefix", validate_prefix(self.prefix))
        object.__setattr__(self, "alpha", _check_alpha(self.alpha, allow_zero=True))

    def describe(self) -> dict:
        if not self.alpha:
            return {"family": "tower", "prefix": list(self.prefix)}
        return {
            "family": "power_floor",
            "prefix": list(self.prefix),
            "alpha": rational_str(self.alpha),
        }


@_record
class LinearRule(DigitRule):
    """The arithmetic rule k -> offset + k; convergence exponent 1."""

    offset: int = 0

    certificate = Fraction(1)
    prefix = ()

    def __post_init__(self):
        if not isinstance(self.offset, int) or self.offset < 0:
            raise DomainError("offset must be a non-negative integer")

    def _bases(self, lo: int, hi: int):
        return range(self.offset + lo, self.offset + hi + 1)

    def describe(self) -> dict:
        return {"family": "linear", "offset": self.offset}


@_record
class BitPerturbedRule(DigitRule):
    """Digits floor((eps_k + 2k - 1)**(1/alpha)) driven by a 0/1 pattern.

    Distinct bit patterns give distinct sequences, all with convergence
    exponent alpha.  alpha = 0 switches to the tower variant
    (eps_k + 2k - 1)**k.  A finite pattern is implicitly extended by
    zeros, so past it the bases are the affine 2k - 1, a monotone tail
    that `exponent.exponent_window` reads from its maximum's end.
    """

    alpha: Fraction
    bits: tuple[int, ...]

    prefix = ()

    def __post_init__(self):
        object.__setattr__(self, "alpha", _check_alpha(self.alpha, allow_zero=True))
        pattern = tuple(self.bits)
        if any(b not in (0, 1) for b in pattern):
            raise DomainError("perturbation pattern must consist of bits 0/1")
        object.__setattr__(self, "bits", pattern)

    def _monotone_tail(self) -> tuple[int, int, int, Fraction]:
        """Past the pattern eps_k = 0: b_k = 2k - 1."""
        return len(self.bits), 2, -1, self.alpha

    def _bases(self, lo: int, hi: int):
        return map(add, chain(self.bits[lo - 1:hi], repeat(0)), range(2 * lo - 1, 2 * hi, 2))

    def describe(self) -> dict:
        return {
            "family": "bit_perturbed",
            "alpha": rational_str(self.alpha),
            "bits": "".join(str(b) for b in self.bits),
        }

