"""Convergence-exponent machinery: growth ratios, window estimates,
analytic certificates, and partial sums of reciprocal digit powers.

The exponent of a digit sequence is the limsup of log n / log d_n. A
finite window can only ever diagnose that limsup, never certify it, so
window scans return certified enclosures of the window maximum (computed
with exact log enclosures) and certificates come exclusively from the
analytic rule families.  Window scans look at the upper half
[ceil(n/2), n] of the index range: the limsup is a tail quantity and
early indices would otherwise dominate every diagnostic.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from fractions import Fraction
from itertools import compress, repeat
from typing import Optional

from .arith import (
    LOG2_SCALE,
    DomainError,
    Enclosure,
    UncertifiedRuleError,
    _log2_ends,
    _scaled_root,
    integer_root,
)
from .pierce import DigitStatus, checked_digits, safe_digits
from .rules import DigitRule
from .space import DEFAULT_PRECISION_BITS, PierceSeq

__all__ = [
    "Verdict",
    "ExponentEstimate",
    "PowerSumPartial",
    "growth_ratio",
    "exponent_window",
    "estimate_exponent",
    "estimate_point_exponent",
    "certified_exponent",
    "reciprocal_power_sum",
    "classify_divergence",
]

_ZERO = Fraction(0)


class Verdict(Enum):
    DIVERGENT = "divergent"
    CONVERGENT = "convergent"
    UNKNOWN = "unknown"


def growth_ratio(seq: PierceSeq, n: int) -> Enclosure:
    """Certified enclosure of log n / log d_n for n >= 2; exact 0 at d_n = INFINITY.

    Lies in [0, 1] because strictly increasing digits satisfy d_n >= n.
    """
    if n < 2:
        raise DomainError("growth ratios are defined for indices n >= 2")
    return exponent_window(seq, n, n)


# Indices per log batch: a window's logs are taken a chunk at a time, so
# the batches stay far below the log cache's cap and a long window
# never clears the entries it is about to read.
_WINDOW_CHUNK = 1 << 12


def _unpruned(lows: list, highs: list, digits, a: int, b: int) -> list:
    """The index log ends and digits of a finite chunk that can hold a window maximum.

    At S = LOG2_SCALE a digit of l bits has S*(l-1) <= d_lo <= d_hi <= S*l,
    from its bit length alone.  The best coarse lower ratio t/u = n_lo/(S*l),
    seeded with the running lower maximum a/b of earlier chunks, is at most
    the window's lower maximum.  An index whose coarse upper ratio
    n_hi/(S*(l-1)) lies strictly below t/u has both of its ratios below
    both window maxima, so it can be neither.  A clamped index
    (d_lo <= n_hi) has a coarse upper ratio of at least 1 >= t/u and is
    kept, and so is the index t/u came from.  Digits of a window are at
    least its indices >= 2, so l >= 2.
    """
    tops = [LOG2_SCALE * d.bit_length() for d in digits]
    t, u = a, b
    for n_lo, top in zip(lows, tops):
        if n_lo * u > t * top:
            t, u = n_lo, top
    keep = [n_hi * u >= t * (top - LOG2_SCALE) for n_hi, top in zip(highs, tops)]
    return [list(compress(xs, keep)) for xs in (lows, highs, digits)]


def exponent_window(seq: PierceSeq, lo: int, hi: int) -> Enclosure:
    """Certified enclosure of max growth_ratio over indices lo..hi.

    The pointwise maxima of the individual lower and upper bounds
    enclose the true window maximum.  An empty window (or one past the
    finite digits) gives exact 0, matching the all-INFINITY convention.
    Both logs come from batches along each chunk of the window, the
    indices and the digits being increasing.  Over a finite prefix only
    the digits that survive a bit-length prune (`_unpruned`) take
    certified logs.
    """
    lo = max(lo, 2)
    scale = LOG2_SCALE
    if seq.is_finite:
        hi = min(hi, seq.depth)
    # Running maxima a/b and c/d of the ratio's lower and upper bounds,
    # from n_lo/scale <= log2 n <= n_hi/scale and d_lo/d_scale <= log2 d_n
    # <= d_hi/d_scale.  Where log d_n's lower bound is at most log n's
    # upper bound, d_n >= n caps the ratio at n_hi/n_lo >= 1, so that
    # tightening is the clamp at 1.
    a, b, c, d = 0, 1, 0, 1
    for start in range(lo, hi + 1, _WINDOW_CHUNK):
        end = min(start + _WINDOW_CHUNK, hi + 1)
        if seq.is_finite:
            ends = _log2_ends(range(start, end))
            *ends, digits = _unpruned(*ends, seq.prefix[start - 1:end - 1], a, b)
            dens = zip(*_log2_ends(digits), repeat(scale))
        else:
            # Terms of an infinite rule are never INFINITY; asking the rule
            # for log bounds avoids materialising tower-sized digits.
            dens = seq.rule.log2_term_run(start, end - 1)
            ends = _log2_ends(range(start, end))
        for n_lo, n_hi, (d_lo, d_hi, d_scale) in zip(*ends, dens):
            if d_scale != scale:
                n_lo, n_hi = n_lo * d_scale, n_hi * d_scale
                d_lo, d_hi = d_lo * scale, d_hi * scale
            if n_lo * b > a * d_hi:
                a, b = n_lo, d_hi
            if d_lo <= n_hi:
                c = d = 1
            elif n_hi * d > c * d_lo:
                c, d = n_hi, d_lo
    return Enclosure(Fraction(a, b), Fraction(c, d))


@dataclass(frozen=True)
class ExponentEstimate:
    """Window diagnostic for the convergence exponent.

    `sup` encloses the exact maximum growth ratio over the window.
    `certified` is set only when an analytic certificate applies
    (terminated rational orbits); window data never certifies a limsup.
    """

    window_lo: int
    window_hi: int
    sup: Enclosure
    certified: bool
    certificate: Optional[Fraction]
    certified_depth: Optional[int] = None
    status: Optional[DigitStatus] = None

    def __post_init__(self):
        if self.certified and self.certificate is None:
            raise DomainError("a certified estimate must carry its certificate")

    @property
    def sup_value(self) -> Fraction:
        return self.sup.midpoint


def _half_window(n_eff: int) -> tuple[int, int]:
    return max(2, -(-n_eff // 2)), n_eff


def estimate_exponent(seq: PierceSeq, n_max: int) -> ExponentEstimate:
    """Scan the tail window [ceil(n_max/2), n_max] of a sequence."""
    if n_max < 2:
        raise DomainError("n_max must be at least 2")
    lo, hi = _half_window(n_max)
    sup = exponent_window(seq, lo, hi)
    return ExponentEstimate(lo, hi, sup, certified=False, certificate=None)


def estimate_point_exponent(x: Enclosure, n_max: int) -> ExponentEstimate:
    """Window diagnostic for a point given as a rational enclosure.

    Runs the safe digit extraction to at most n_max digits and scans the
    certified prefix only.  A terminated orbit proves the point rational,
    whose exponent is exactly 0 regardless of the window diagnostic, so
    that case is reported certified.
    """
    result = safe_digits(x, n_max)
    n_eff = len(result.prefix)
    seq = PierceSeq.finite(result.prefix)
    lo, hi = _half_window(n_eff)
    sup = exponent_window(seq, lo, hi) if n_eff >= 2 else Enclosure.exact(0)
    # A terminated orbit proves the point rational; so does a point
    # enclosure by construction.  Rationals have exponent exactly 0
    # whatever the window diagnostic says.
    rational = result.status is DigitStatus.TERMINATED or x.is_exact
    return ExponentEstimate(
        lo,
        hi,
        sup,
        certified=rational,
        certificate=Fraction(0) if rational else None,
        certified_depth=n_eff,
        status=result.status,
    )


def certified_exponent(rule: DigitRule) -> Fraction:
    """The analytic convergence exponent of a certified rule family."""
    cert = rule.certificate
    if cert is None:
        raise UncertifiedRuleError(
            f"rule {rule.describe()} carries no analytic exponent certificate"
        )
    return cert


def classify_divergence(rule: DigitRule, s: Fraction) -> Verdict:
    """Whether sum 1/d_k**s diverges along a rule, for s in (0, 1].

    Decided once for all certified families, which share the tail
    floor(b_k**(q_k/p_k)): up to and including a positive certified
    exponent the sum diverges by comparison with a shifted harmonic
    series, above it (and at every s for exponent 0) it converges by a
    p-series bound.  Uncertified rules yield UNKNOWN, never a guess.
    """
    s = Fraction(s)
    if not (0 < s <= 1):
        raise DomainError("the power exponent must lie in (0, 1]")
    diverges = rule.power_sum_diverges(s)
    if diverges is None:
        return Verdict.UNKNOWN
    return Verdict.DIVERGENT if diverges else Verdict.CONVERGENT


@dataclass(frozen=True)
class PowerSumPartial:
    """Partial sum of reciprocal s-th digit powers, as a certified enclosure."""

    s: Fraction
    n_terms: int
    sum: Enclosure
    verdict: Verdict


def _term_bounds(d: int, p: int, q: int, shift: int) -> tuple[int, int, int, int]:
    """Integers with a/b <= 1/d**(p/q) <= c/e; exact when d**p is a perfect q-th power."""
    v = d**p
    r = integer_root(v, q)
    if r**q == v:
        return 1, r, 1, r
    r, _ = _scaled_root(v, q, shift)
    return 1 << shift, r + 1, 1 << shift, r


def reciprocal_power_sum(
    seq: PierceSeq, s: Fraction, n_terms: int, bits: int = DEFAULT_PRECISION_BITS
) -> PowerSumPartial:
    """Enclosure of sum_{k<=n_terms} 1/d_k**s.

    Terms that are exact rationals (perfect powers, s with denominator 1)
    are accumulated exactly while denominators stay small; the
    accumulator then switches to outward-rounded dyadics so that very
    long slowly divergent sums stay cheap.  Once a term drops below the
    resolution the certified tail bound closes the sum early.
    """
    s = Fraction(s)
    if not (0 < s <= 1):
        raise DomainError("the power exponent must lie in (0, 1]")
    if n_terms < 0:
        raise DomainError("n_terms must be non-negative")
    p, q = s.numerator, s.denominator
    shift = bits + 32
    scale = 1 << shift
    tiny_bits = bits + 8
    exact_lo = _ZERO
    exact_hi = _ZERO
    int_mode = False
    ilo = ihi = 0
    # Strict increase of the digits is what makes the tail bound below
    # sound: a prefix is checked when its sequence is built, and rule
    # terms are checked here rather than trusted.
    if seq.is_finite:
        digits = seq.prefix[:n_terms]
    else:
        digits = checked_digits(seq.rule.terms_run(1, n_terms))
    for k, d in enumerate(digits, start=1):
        # Term below resolution: close with a certified tail bound
        # (terms decrease, so each of the remaining ones is no larger).
        if d.bit_length() * p > tiny_bits * q + p:
            remaining = n_terms - k + 1
            if int_mode:
                ihi += remaining << (shift - tiny_bits)
            else:
                exact_hi += Fraction(remaining, 1 << tiny_bits)
            break
        a, b, c, e = _term_bounds(d, p, q, shift)
        if int_mode:
            ilo += (a << shift) // b
            ihi += -((-c << shift) // e)
        else:
            exact_lo += Fraction(a, b)
            exact_hi += Fraction(c, e)
            if exact_hi.denominator.bit_length() > 256:
                int_mode = True
                ilo = (exact_lo.numerator << shift) // exact_lo.denominator
                ihi = -((-exact_hi.numerator << shift) // exact_hi.denominator)
    if int_mode:
        total = Enclosure(Fraction(ilo, scale), Fraction(ihi, scale))
    else:
        total = Enclosure(exact_lo, exact_hi)
    if seq.is_finite:
        verdict = Verdict.CONVERGENT  # finitely many finite digits: a finite sum
    else:
        verdict = classify_divergence(seq.rule, s)
    return PowerSumPartial(s, n_terms, total, verdict)
