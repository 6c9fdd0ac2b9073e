"""Convergence-exponent machinery: growth ratios, window estimates,
divergence verdicts, and partial sums of reciprocal digit powers.

The exponent of a digit sequence is the limsup of log n / log d_n. A
finite window can only ever diagnose that limsup, never certify it, so
window scans return certified enclosures of the window maximum (computed
with exact log enclosures).  Certificates come from analysis alone:
every rule carries its family's exponent as `DigitRule.certificate`,
which `classify_divergence` reads, and a rational point has exponent 0.
Window scans look at the upper half [ceil(n/2), n] of the index range:
the limsup is a tail quantity and early indices would otherwise
dominate every diagnostic.
"""

from __future__ import annotations

from enum import Enum
from fractions import Fraction
from itertools import chain, compress, repeat
from math import gcd
from typing import Optional

from . import rules
from .arith import (
    LOG2_SCALE,
    LOG2_SCALE_BITS,
    DomainError,
    Enclosure,
    _log2_constants,
    _log2_ends,
    _record,
    _scaled_root,
)
from .pierce import DigitStatus, safe_digits
from .rules import _EXACT_LOG_BASE_BOUND, DigitRule, _check_alpha
from .space import DEFAULT_PRECISION_BITS, PierceSeq

__all__ = [
    "Verdict",
    "ExponentEstimate",
    "PowerSumPartial",
    "growth_ratio",
    "exponent_window",
    "estimate_exponent",
    "estimate_point_exponent",
    "reciprocal_power_sum",
    "classify_divergence",
]


class Verdict(Enum):
    DIVERGENT = "divergent"
    CONVERGENT = "convergent"


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


def _unpruned(lows: list, highs: list, values, tops: list, bottoms: list, a: int, b: int) -> list:
    """The index log ends and values of a run that can hold a window maximum.

    Value j has bottoms[j] <= w*log2 v_j <= tops[j] at a scale w, against the
    index ends n_lo <= S*log2 n <= n_hi at S = LOG2_SCALE; a/b is the running
    lower maximum times S/w, as every ratio below.  The best coarse lower ratio
    t/u = n_lo/top, seeded with a/b, is at most the window's lower maximum.  An
    index whose coarse upper ratio n_hi/bottom lies strictly below t/u has both
    of its ratios below both window maxima, so it can be neither.  A clamped
    index (d_lo <= n_hi) has a coarse upper ratio of at least 1 >= t/u and is
    kept, and so is the index t/u came from.
    """
    t, u = a, b
    for n_lo, top in zip(lows, tops):
        if n_lo * u > t * top:
            t, u = n_lo, top
    keep = [n_hi * u >= t * bottom for n_hi, bottom in zip(highs, bottoms)]
    return [list(compress(xs, keep)) for xs in (lows, highs, values)]


def _tail_ceiling(k: int, first: int, a: int, c: int, p: int, q: int, sigma: int, n_lo: int,
                  d_lo: int, sigma_k: int = 0):
    """num/den above both ratio bounds of each unscanned index of a monotone tail, or 1/0.

    The tail is floor(b**r), b = a*x + c >= x, a >= 1, r = q/p (p = 0: the tower b**x); n_lo
    is the lower log end of k and d_lo <= r*B(k), B = S*log2 b at S = LOG2_SCALE:
    floor(q*B_lo/p), B_lo the base's lower log end (k*B_lo for the tower).  Both bounds of x
    are at most (A + 1)/(r*B - s) where positive, A = S*log2 x, with s(x) at least r*B less
    the term's lower log end: q at p = 1, x for the tower, and 1 + K/(u - 1) at p > 1, u =
    b**r, K >= S/ln 2 (F > u - 1 loses under K/(u - 1), its log end under 1).  sigma_k >=
    s(k) (sigma at p = 1) makes den*(A(k) + 1) <= num*(r*B(k) - s(k)).  At p >= 1 the
    unscanned x lie in [first, k) and phi = den*(A + 1) - num*(r*B - s) has phi(x) <= phi(k)
    <= 0, a bound num/den on x, if phi' >= 0 there: den*b >= num*x*(r*a + b*|s'|*ln 2/S),
    times x*b*ln 2/S.  With sigma >= s(first), s falling, b*|s'|*ln 2/S is at most
    2*r*a*sigma/S: it is r*a*(K/(u - 1))*(u/(u - 1))*ln 2/S, u >= 2.  So a*x*t + c*p*S*den
    >= 0, t = p*S*den - q*num*(S + 2*sigma), suffices: linear in x, it is checked at x =
    first and x = k.  A den <= 0 never stops a scan.  The tower (s = r = x) has (A + 1)/x
    falling from x = 3 (log2 3 > 1/ln 2) and B rising: the indices past k, with no condition.
    """
    num, den = n_lo + 2, d_lo - (sigma_k or sigma)
    if p:
        scaled = p * LOG2_SCALE * den
        t = scaled - q * num * (LOG2_SCALE + 2 * sigma)
        if (t < 0 or c < 0) and a * (first if t > 0 else k) * t + c * scaled < 0:
            return 1, 0
    return num, den


def _runs(first: int, last: int, size: int, down: bool = False):
    """Index runs over first..last of size, 2*size, ... up to _WINDOW_CHUNK; from last if down."""
    while first <= last:
        size = min(size, _WINDOW_CHUNK)
        if down:
            yield range(max(first, last - size + 1), last + 1)
            last -= size
        else:
            yield range(first, min(first + size, last + 1))
            first += size
        size *= 2


def exponent_window(seq: PierceSeq, lo: int, hi: int) -> Enclosure:
    """Certified enclosure of max growth_ratio over indices lo..hi.

    The pointwise maxima of the individual lower and upper bounds
    enclose the true window maximum.  An empty window (or one past the
    finite digits) gives exact 0, matching the all-INFINITY convention.
    Both logs come from batches along each chunk of the window, the
    indices and the digits being increasing.  Over a finite prefix only
    the digits that survive a bit-length prune (`_unpruned`) take
    certified logs.  A monotone rule tail is read from its maximum's end until
    `_tail_ceiling`, with the slack of any floors, bounds the rest below both maxima,
    each run of indices k in one log batch with its bases b = a*k + c, merged in order.
    Its term logs are q*B at p = 1 and k*B for the tower, B the log of b.  A floor F =
    floor(b**r) of p > 1 takes its own log only if `_unpruned` keeps it on the bracket
    [q*B_lo - p + 1 - ceil(K*R/F**p), q*B_hi + p] at scale p*S, R = b**q - F**p, K >=
    S/ln 2: p*S*log2 F = q*S*log2 b - S*log2(1 + R/F**p) >= q*B_lo - K*R/F**p, so its
    certified ends d_lo, d_hi at scale S have p*d_lo > p*S*log2 F - p >= q*B_lo - p -
    K*R/F**p >= bottom - 1, so the integer p*d_lo >= bottom, and p*d_hi <= p*S*log2 F +
    p <= q*B_hi + p (b = 253927, r = 4/3 needs the + p).
    """
    lo = max(lo, 2)
    scale = LOG2_SCALE
    if seq.is_finite:
        hi = min(hi, seq.depth)
    # The monotone tail past the prefix of length m (m = hi: none), bases slope*k + shift,
    # starts at `first` if the window reaches it and _tail_ceiling's conditions can hold
    # (p > 1: floors of bases from 2**18 up have logs on another scale, and floors that
    # can pass the digit guard keep the in-order scan and its first refusal).
    tail = None if seq.is_finite else seq.rule._monotone_tail()
    m, slope, shift, alpha = tail or (hi, 1, 0, 0)
    p, q = alpha.numerator, alpha.denominator
    first = max(lo, m + 1)
    sigma, sigma_k = q * p, 0  # q, or 0 for the tower, whose sigma is k
    if (first > hi or not (slope > 1 or shift > 0 if p else first >= 3)
            or p > 1 and (slope * hi + shift >= _EXACT_LOG_BASE_BOUND
                          or q * 18 > p * rules.DIGIT_BITS_GUARD)):
        first = hi + 1
    elif p > 1:  # sigma_F of the window's first floor, for _tail_ceiling's increase
        K = _log2_constants(LOG2_SCALE_BITS - 1)[1]
        sigma = 1 - (-K // (seq.rule.term(first) - 1))
    # Running maxima a/b and c/d of the ratio's lower and upper bounds,
    # from n_lo/scale <= log2 n <= n_hi/scale and d_lo/d_scale <= log2 d_n
    # <= d_hi/d_scale.  Where log d_n's lower bound is at most log n's
    # upper bound, d_n >= n caps the ratio at n_hi/n_lo >= 1, so that
    # tightening is the clamp at 1.
    a, b, c, d = 0, 1, 0, 1
    for run in chain(_runs(lo, first - 1, _WINDOW_CHUNK), _runs(first, hi, 8, p > 0)):
        start, end = run.start, run.stop
        n = end - start
        if start < first:
            ends = _log2_ends(run)
        else:  # the n indices, then the bases from `end` up
            bases = range(slope * start + shift, slope * end + shift, slope)
            if slope == 1 and shift <= n:  # one range, not a list: faster on warm windows
                lows, highs = _log2_ends(range(start, end + shift))
                base_lo, base_hi = lows[-n:], highs[-n:]
            else:  # o: the place of the first base
                o = bases[0] - start
                lows, highs = _log2_ends([*run, *bases[len(range(o, n, slope)):]])
                base_lo, base_hi = lows[o:n:slope] + lows[n:], highs[o:n:slope] + highs[n:]
            ends = lows[:n], highs[:n]
        if seq.is_finite:  # at scale 1: a digit of l bits has a log in [l - 1, l]
            values = seq.prefix[start - 1:end - 1]
            tops = list(map(int.bit_length, values))
            *ends, values = _unpruned(*ends, values, tops, [l - 1 for l in tops], a * scale, b)
        elif start < first:
            # Terms of an infinite rule are never INFINITY; asking the rule
            # for log bounds avoids materialising tower-sized digits.
            dens = seq.rule.log2_term_run(start, end - 1)
        elif p > 1:  # the floors' brackets at scale p*S
            values = [f for f, _, _ in seq.rule._operands(start, end - 1)]
            sigma_k = 1 - (-K // (values[0] - 1))
            tops = [q * y + p for y in base_hi]
            bottoms = [q * x - p + 1 + K + -K * b**q // f**p  # K - ceil(K*b**q/f**p)
                       for x, b, f in zip(base_lo, bases, values)]
            *ends, values = _unpruned(*ends, values, tops, bottoms, a, p * b)
        else:  # q*B, or k*B for the tower
            muls = repeat(q) if p else run
            dens = [(e * x, e * y, scale) for e, x, y in zip(muls, base_lo, base_hi)]
        if seq.is_finite or p > 1 and start >= first:
            dens = zip(*_log2_ends(values), repeat(scale))
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
        if start >= first:  # the unscanned indices lie past k, the run's end next to them
            k = start if p else end - 1
            i = k - start
            d_lo = q * base_lo[i] // p if p else k * base_lo[i]
            num, den = _tail_ceiling(k, first, slope, shift, p, q, sigma or k, lows[i], d_lo,
                                     sigma_k)
            if num * b < a * den:  # below a/b <= min(1, c/d) none clamps or moves a maximum
                break
    return Enclosure(Fraction(a, b), Fraction(c, d))


@_record
class ExponentEstimate:
    """Window diagnostic for the convergence exponent.

    `sup` encloses the exact maximum growth ratio over the window.
    `certificate` is set only when an analytic certificate applies
    (terminated rational orbits); window data never certifies a limsup.
    """

    window_lo: int
    window_hi: int
    sup: Enclosure
    certificate: Optional[Fraction] = None
    certified_depth: Optional[int] = None
    status: Optional[DigitStatus] = None

    @property
    def certified(self) -> bool:
        return self.certificate is not None

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
    return ExponentEstimate(lo, hi, sup)


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
    sup = exponent_window(seq, lo, hi)
    # A terminated orbit proves the point rational; so does a point
    # enclosure by construction.  Rationals have exponent exactly 0
    # whatever the window diagnostic says.
    rational = result.status is DigitStatus.TERMINATED or x.is_exact
    return ExponentEstimate(
        lo,
        hi,
        sup,
        certificate=Fraction(0) if rational else None,
        certified_depth=n_eff,
        status=result.status,
    )


def classify_divergence(rule: DigitRule, s: Fraction) -> Verdict:
    """Whether sum 1/d_k**s diverges along a rule, for s in (0, 1].

    Decided once for every rule, as each shares the tail
    floor(b_k**(q_k/p_k)) of `DigitRule` and carries its certificate:
    up to and including a positive certificate the sum diverges by
    comparison with a shifted harmonic series, above it (and at every s
    for certificate 0) it converges by a p-series bound.
    """
    s = _check_alpha(s, allow_zero=False)
    return Verdict.DIVERGENT if s <= rule.certificate else Verdict.CONVERGENT


@_record
class PowerSumPartial:
    """Partial sum of reciprocal s-th digit powers, as a certified enclosure."""

    s: Fraction
    n_terms: int
    sum: Enclosure
    verdict: Verdict


def _term_bounds(d: int, p: int, q: int, shift: int) -> tuple[int, int, int]:
    """Integers with a/b <= 1/d**(p/q) <= a/e, b == e where exact: one scaled root of d**p."""
    r, exact = _scaled_root(d**p, q, shift)
    return (1, r >> shift, r >> shift) if exact else (1 << shift, r + 1, r)


def _plus(x: tuple[int, int], a: int, b: int) -> tuple[int, int]:
    """The reduced pair of x[0]/x[1] + a/b."""
    num, den = x[0] * b + a * x[1], x[1] * b
    g = gcd(num, den)
    return num // g, den // g


def reciprocal_power_sum(
    seq: PierceSeq, s: Fraction, n_terms: int, bits: int = DEFAULT_PRECISION_BITS
) -> PowerSumPartial:
    """Enclosure of sum_{k<=n_terms} 1/d_k**s.

    A rule term is read from its operand (n, u, v), d = floor(n**(v/u)):
    at u = 1, d**(p/q) = n**(v*p/q) for s = p/q, a whole power of n
    exactly when q divides v (gcd(p, q) = 1), and then the term is
    1/n**(v//q*p).  Any other term is bounded by one scaled root, whose
    flag finds the perfect powers among them (`_term_bounds`).  Exact sums
    are integer pairs reduced by gcd: a reduced pair of a rational is
    unique, so each is the lowest-terms Fraction of the same sum, and its
    denominator passes 256 bits at the same term as that Fraction's.  The
    accumulator then switches to outward-rounded dyadics so that very
    long slowly divergent sums stay cheap.  Once a term drops below the
    resolution the certified tail bound closes the sum early.
    """
    s = _check_alpha(s, allow_zero=False)
    if n_terms < 0:
        raise DomainError("n_terms must be non-negative")
    p, q = s.numerator, s.denominator
    shift = bits + 32
    tiny_bits = bits + 8
    lo = hi = (0, 1)  # the exact sums' reduced (numerator, denominator)
    int_mode = False
    ilo = ihi = 0
    # Strict increase of the digits is what makes the tail bound below
    # sound: a prefix is checked when its sequence is built, and rule
    # terms increase by the proof in the `DigitRule` docstring.
    finite = seq.is_finite
    if finite:
        count = min(n_terms, seq.depth)
        operands = zip(seq.prefix[:count], repeat(1), repeat(1))
    else:
        count, operands, floor_power = n_terms, seq.rule._operands(1, n_terms), rules._floor_power
    for k, (n, u, v) in enumerate(operands, start=1):
        d = n if finite else floor_power(n, u, v)
        # Term below resolution: close with a certified tail bound
        # (terms decrease, so each of the remaining ones is no larger;
        # a finite prefix has only the digits it holds).
        if d.bit_length() * p > tiny_bits * q + p:
            if int_mode:
                ihi += count - k + 1 << shift - tiny_bits
            else:
                hi = (hi[0] << tiny_bits) + (count - k + 1) * hi[1], hi[1] << tiny_bits
            break
        if u == 1 and v % q == 0:
            a = 1
            b = e = n ** (v // q * p)
        else:
            a, b, e = _term_bounds(d, p, q, shift)
        if int_mode:
            ilo += (a << shift) // b
            ihi += -((-a << shift) // e)
            continue
        if b == e and lo == hi:  # an exact term on equal ends: one reduction serves both
            lo = hi = _plus(lo, a, b)
        else:
            lo, hi = _plus(lo, a, b), _plus(hi, a, e)
        if hi[1].bit_length() > 256:
            int_mode = True
            ilo = (lo[0] << shift) // lo[1]
            ihi = -((-hi[0] << shift) // hi[1])
    if int_mode:
        total = Enclosure(Fraction(ilo, 1 << shift), Fraction(ihi, 1 << shift))
    else:
        total = Enclosure(Fraction(*lo), Fraction(*hi))
    if finite:
        verdict = Verdict.CONVERGENT  # finitely many finite digits: a finite sum
    else:
        verdict = classify_divergence(seq.rule, s)
    return PowerSumPartial(s, n_terms, total, verdict)
