"""Symbolic generators for infinite strictly increasing digit sequences.

Each family defines its k-th term analytically, knows a certified
binary-log enclosure for that term without necessarily materialising it
(tower terms get astronomically large), and carries its analytic
convergence-exponent certificate where one exists.  The four certified
families share one shape: a checked prefix, then floor(b_k**(q_k/p_k))
with q_k >= p_k, so they share one term, one log enclosure and one
divergence argument.  They verify their first gaps explicitly at
construction; beyond that the derivative bound (d/dx) x**(q/p) >= 1 for
q/p >= 1 guarantees strict increase.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import tee
from operator import itemgetter
from typing import Callable, Optional

from .arith import (
    DomainError,
    Enclosure,
    _log2_run,
    floor_root_power,
    log2_bounds,
    rational_str,
)
from .pierce import validate_prefix

__all__ = [
    "DigitRule",
    "PowerFloorRule",
    "TowerRule",
    "LinearRule",
    "BitPerturbedRule",
    "ExplicitRule",
]

# Bases below this bound take the exact-value path in log enclosures;
# above it the floor slack 3/b is already tighter than 2**-18.
_EXACT_LOG_BASE_BOUND = 1 << 18


def _check_alpha(alpha: Fraction, allow_zero: bool) -> Fraction:
    alpha = Fraction(alpha)
    low_ok = alpha > 0 or (allow_zero and alpha == 0)
    if not (low_ok and alpha <= 1):
        raise DomainError(f"exponent parameter {alpha} outside the admissible range")
    return alpha


class DigitRule:
    """Base interface: an analytic rule for a strictly increasing digit sequence."""

    #: analytic convergence exponent, or None when no certificate exists
    certificate: Optional[Fraction] = None

    def term(self, k: int) -> int:
        """Exact k-th digit (1-indexed)."""
        raise NotImplementedError

    def log2_term(self, k: int, bits: int = 32) -> Enclosure:
        """Certified enclosure of log2(term(k))."""
        lo, hi, den = self.log2_term_bounds(k, bits)
        return Enclosure(Fraction(lo, den), Fraction(hi, den))

    def log2_term_bounds(self, k: int, bits: int = 32) -> tuple[int, int, int]:
        """Integers with lo/den <= log2(term(k)) <= hi/den; materialises the term."""
        return (*log2_bounds(self.term(k), bits), 2 << bits)

    def log2_term_run(self, lo: int, hi: int, bits: int = 32):
        """Yield log2_term_bounds(k, bits) for k = lo..hi."""
        for k in range(lo, hi + 1):
            yield self.log2_term_bounds(k, bits)

    def power_sum_diverges(self, s: Fraction) -> Optional[bool]:
        """Whether sum 1/term(k)**s diverges; None when not certified."""
        return None

    def terms(self, n: int) -> tuple[int, ...]:
        return tuple(self.term(k) for k in range(1, n + 1))

    def describe(self) -> dict:
        raise NotImplementedError

    def check_strictly_increasing(self, depth: int) -> None:
        validate_prefix(self.terms(depth))

    def _require_index(self, k: int) -> None:
        if k < 1:
            raise DomainError("digit indices are 1-based")


class _FloorPowerRule(DigitRule):
    """A checked prefix, then the tail floor(b_k**(q_k/p_k)) with q_k >= p_k.

    Subclasses provide `prefix` and `_tail(k) -> (b_k, p_k, q_k)` for the
    indices past it.  With certificate alpha > 0 the tail is
    floor(b_k**(1/alpha)) with b_k <= c + 2k, so at s <= alpha every tail
    term satisfies term**s <= b_k: a shifted harmonic minorant, and the
    power sum diverges.  Above alpha it converges by a p-series bound.
    Certificate 0 means the power q_k grows with k, so the terms dominate
    2**k and every positive power sum converges.
    """

    def term(self, k: int) -> int:
        self._require_index(k)
        if k <= len(self.prefix):
            return self.prefix[k - 1]
        b, p, q = self._tail(k)
        return floor_root_power(b, p, q)

    def _log2_operand(self, k: int) -> tuple[int, int, int]:
        """(n, p, q) with term(k) = n**q when p == 1, else floor(n**(q/p)) for n >= 2**18."""
        if k <= len(self.prefix):
            return self.prefix[k - 1], 1, 1
        b, p, q = self._tail(k)
        if p != 1 and b < _EXACT_LOG_BASE_BOUND:
            return floor_root_power(b, p, q), 1, 1
        return b, p, q

    @staticmethod
    def _scale_log(n: int, p: int, q: int, lo: int, hi: int, scale: int):
        # Exact scaling when p = 1.  Otherwise n = b >= 2**18 (smaller bases
        # come materialised, with p = q = 1), and with u = b**(q/p) >= b the
        # floor loses at most -log2(1 - 1/u) <= 3/u <= 3/b bits.
        if p == 1:
            return q * lo, q * hi, scale
        return lo * q * n - 3 * p * scale, hi * q * n, p * n * scale

    def log2_term_bounds(self, k: int, bits: int = 32) -> tuple[int, int, int]:
        self._require_index(k)
        n, p, q = self._log2_operand(k)
        return self._scale_log(n, p, q, *log2_bounds(n, bits), 2 << bits)

    def log2_term_run(self, lo: int, hi: int, bits: int = 32):
        # One log run over the operands: prefix digits, then bases or floors.
        self._require_index(lo)
        scale = 2 << bits
        operands, ns = tee(map(self._log2_operand, range(lo, hi + 1)))
        for (n, p, q), (a, b) in zip(operands, _log2_run(map(itemgetter(0), ns), bits)):
            yield self._scale_log(n, p, q, a, b, scale)

    def power_sum_diverges(self, s: Fraction) -> Optional[bool]:
        return Fraction(s) <= self.certificate


@dataclass(frozen=True)
class PowerFloorRule(_FloorPowerRule):
    """Continue a prefix with floor((base+i)**(1/alpha)), alpha in (0, 1].

    An empty prefix is treated as base 1, so the tail starts at
    floor(2**(1/alpha)).  The generated sequence has convergence
    exponent exactly alpha.
    """

    prefix: tuple[int, ...]
    alpha: Fraction

    def __post_init__(self):
        object.__setattr__(self, "prefix", tuple(self.prefix))
        object.__setattr__(self, "alpha", _check_alpha(self.alpha, allow_zero=False))
        self.check_strictly_increasing(len(self.prefix) + 64)

    @property
    def certificate(self) -> Fraction:
        return self.alpha

    def _tail(self, k: int) -> tuple[int, int, int]:
        b = (self.prefix[-1] if self.prefix else 1) + k - len(self.prefix)
        return b, self.alpha.numerator, self.alpha.denominator

    def describe(self) -> dict:
        return {
            "family": "power_floor",
            "prefix": list(self.prefix),
            "alpha": rational_str(self.alpha),
        }


@dataclass(frozen=True)
class TowerRule(_FloorPowerRule):
    """Continue a prefix with (base+i)**(M+i); convergence exponent 0.

    M is the prefix length; the empty prefix uses base 1, so the tail
    runs 2**1, 3**2, 4**3, ...
    """

    prefix: tuple[int, ...]

    certificate = Fraction(0)

    def __post_init__(self):
        object.__setattr__(self, "prefix", tuple(self.prefix))
        self.check_strictly_increasing(len(self.prefix) + 8)

    def _tail(self, k: int) -> tuple[int, int, int]:
        # i = k - M, so the power M + i is k itself.
        return (self.prefix[-1] if self.prefix else 1) + k - len(self.prefix), 1, k

    def describe(self) -> dict:
        return {"family": "tower", "prefix": list(self.prefix)}


@dataclass(frozen=True)
class LinearRule(_FloorPowerRule):
    """The arithmetic rule k -> offset + k; convergence exponent 1."""

    offset: int = 0

    certificate = Fraction(1)
    prefix = ()

    def __post_init__(self):
        if not isinstance(self.offset, int) or self.offset < 0:
            raise DomainError("offset must be a non-negative integer")

    def _tail(self, k: int) -> tuple[int, int, int]:
        return self.offset + k, 1, 1

    def describe(self) -> dict:
        return {"family": "linear", "offset": self.offset}


@dataclass(frozen=True)
class BitPerturbedRule(_FloorPowerRule):
    """Digits floor((eps_k + 2k - 1)**(1/alpha)) driven by a 0/1 pattern.

    Distinct bit patterns give distinct sequences, all with convergence
    exponent alpha.  alpha = 0 switches to the tower variant
    (eps_k + 2k - 1)**k.  A finite pattern is implicitly extended by
    zeros.
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
        self.check_strictly_increasing(max(len(pattern), 16) + 8)

    @property
    def certificate(self) -> Fraction:
        return self.alpha

    def _tail(self, k: int) -> tuple[int, int, int]:
        b = (self.bits[k - 1] if k <= len(self.bits) else 0) + 2 * k - 1
        if self.alpha == 0:
            return b, 1, k
        return b, self.alpha.numerator, self.alpha.denominator

    def describe(self) -> dict:
        return {
            "family": "bit_perturbed",
            "alpha": rational_str(self.alpha),
            "bits": "".join(str(b) for b in self.bits),
        }


@dataclass(frozen=True)
class ExplicitRule(DigitRule):
    """An uncertified rule given by an arbitrary term function.

    Useful for experiments (k -> 2**k, ...); certified operations refuse
    it rather than guessing.
    """

    fn: Callable[[int], int]
    name: str = "explicit"

    certificate = None

    def __post_init__(self):
        self.check_strictly_increasing(16)

    def term(self, k: int) -> int:
        self._require_index(k)
        t = self.fn(k)
        if not isinstance(t, int) or t < 1:
            raise DomainError(f"rule produced non-digit {t!r} at index {k}")
        return t

    def describe(self) -> dict:
        return {"family": "explicit", "name": self.name}
