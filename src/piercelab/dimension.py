"""Desk-scale quantitative experiments.

Enumeration of constrained digit tuples against the binomial bound,
ratio tests for the covering series of the dimension upper bound,
partition refinement of that bound, seeded Monte Carlo sampling of
digit growth, and dyadic-grid witness sweeps.  Everything is exact or
carried as certified enclosures; Monte Carlo runs are reproducible to
the byte from their seed.
"""

from __future__ import annotations

import math
import random
from enum import Enum
from fractions import Fraction
from typing import Optional

from .arith import (
    DomainError,
    Enclosure,
    GuardExceededError,
    _record,
    _scaled_root,
    ceil_root_power,
    floor_root_power,
    ln_enclosure,
)
from .constructions import Witness, witness_in_interval
from .exponent import _half_window, exponent_window
from .pierce import DigitStatus, safe_digits
from .rules import _check_alpha
from .space import DEFAULT_PRECISION_BITS, PierceSeq

__all__ = [
    "CoverParams",
    "CoverVerdict",
    "CoverReport",
    "TupleEnumeration",
    "enumerate_digit_tuples",
    "binomial_tuple_bound",
    "covering_sum",
    "refined_dimension_bound",
    "SampleRecord",
    "McReport",
    "sample_digit_statistics",
    "GridCell",
    "GridReport",
    "grid_witness_sweep",
]

ENUMERATION_GUARD = 10**7
COVER_KMAX_GUARD = 512
GRID_DEPTH_GUARD = 12
# count * bits**2 of one sample run; a sample's time grows about as bits**2
# from 2**14 bits on, and no admitted run took over 2.4 s (near 5800 bits).
SAMPLE_WORK_GUARD = 1 << 37
RNG_ALGORITHM = "mt19937/sha512-per-sample-streams"


@_record
class CoverParams:
    """Parameters of the covering construction.

    `alpha <= beta` select the exponent band, `epsilon in (0, alpha)` the
    slack, `s` the covering power, and the digit constraints use the
    derived exponents 1/(alpha-epsilon) (upper) and 1/(beta+epsilon)
    (lower) from index N on.
    """

    N: int
    alpha: Fraction
    beta: Fraction
    epsilon: Fraction
    s: Fraction
    k_max: int

    def __post_init__(self):
        for name in ("alpha", "beta"):
            object.__setattr__(self, name, _check_alpha(getattr(self, name), allow_zero=False))
        for name in ("epsilon", "s"):
            object.__setattr__(self, name, Fraction(getattr(self, name)))
        if self.alpha > self.beta:
            raise DomainError("need alpha <= beta")
        if not (0 < self.epsilon < self.alpha):
            raise DomainError("need 0 < epsilon < alpha")
        if self.s <= 0:
            raise DomainError("the covering power s must be positive")
        if self.N < 1 or self.k_max < self.N:
            raise DomainError("need 1 <= N <= k_max")

    @property
    def upper_exponent(self) -> Fraction:
        """1/(alpha - epsilon), bounding the last digit from above."""
        return 1 / (self.alpha - self.epsilon)

    @property
    def lower_exponent(self) -> Fraction:
        """1/(beta + epsilon), bounding digits from below."""
        return 1 / (self.beta + self.epsilon)

    @property
    def threshold(self) -> Fraction:
        """The covering power above which the series terms vanish."""
        return (self.beta + self.epsilon) * (self.upper_exponent - 1)


def _last_digit_cap(params: CoverParams, k: int) -> int:
    g = params.upper_exponent
    return floor_root_power(k, g.denominator, g.numerator)


def _digit_floor(params: CoverParams, j: int) -> int:
    if j < params.N:
        return 1
    h = params.lower_exponent
    return ceil_root_power(j, h.denominator, h.numerator)


@_record
class TupleEnumeration:
    count: int
    tuples: Optional[tuple[tuple[int, ...], ...]] = None


def binomial_tuple_bound(params: CoverParams, k: int) -> int:
    """C(floor(k**(1/(alpha-eps))), k): counts all increasing tuples below the cap."""
    if k < params.N:
        raise DomainError("k must be at least N")
    return math.comb(_last_digit_cap(params, k), k)


def enumerate_digit_tuples(
    params: CoverParams, k: int, include_listing: bool = False
) -> TupleEnumeration:
    """Exact count of admissible strictly increasing k-tuples.

    A tuple (d_1 < ... < d_k) is admissible when d_j is at least
    j**(1/(beta+eps)) for N <= j <= k and d_k is at most
    k**(1/(alpha-eps)); indices below N are only constrained by strict
    increase.  Counting is a DP over (position, value); the optional
    listing is produced by the same recursion used as a test oracle.
    """
    bound = binomial_tuple_bound(params, k)  # refuses k < N
    if bound > ENUMERATION_GUARD:
        raise GuardExceededError(
            f"predicted count {bound} exceeds the enumeration guard {ENUMERATION_GUARD}"
        )
    cap = _last_digit_cap(params, k)
    floors = [_digit_floor(params, j) for j in range(1, k + 1)]
    if cap < k:
        return TupleEnumeration(0, tuple() if include_listing else None)

    # ways[v] = number of admissible prefixes of the current length ending at v
    ways = [0] * (cap + 1)
    for v in range(floors[0], cap + 1):
        ways[v] = 1
    for j in range(2, k + 1):
        prefix_total = 0
        nxt = [0] * (cap + 1)
        for v in range(1, cap + 1):
            if v >= floors[j - 1]:
                nxt[v] = prefix_total
            prefix_total += ways[v]
        ways = nxt
    count = sum(ways[floors[k - 1]:])

    listing = None
    if include_listing:
        out: list[tuple[int, ...]] = []

        def descend(j: int, last: int, acc: list[int]) -> None:
            if j > k:
                out.append(tuple(acc))
                return
            for v in range(max(last + 1, floors[j - 1]), cap - (k - j) + 1):
                acc.append(v)
                descend(j + 1, v, acc)
                acc.pop()

        descend(1, 0, [])
        listing = tuple(out)
        assert len(listing) == count
    return TupleEnumeration(count, listing)


class CoverVerdict(Enum):
    RATIO_VANISHING = "ratio_vanishing"
    INCONCLUSIVE = "inconclusive"


@_record
class CoverReport:
    """Ledger of the covering series: terms, ratios, partial sums, verdict."""

    params: CoverParams
    ks: tuple[int, ...]
    terms: tuple[Enclosure, ...]
    ratios: tuple[Enclosure, ...]
    partial_sums: tuple[Enclosure, ...]
    threshold: Fraction
    verdict: CoverVerdict


def _outward(quads, bits: int) -> tuple[Enclosure, ...]:
    """Quadruples (lo_num, lo_den, hi_num, hi_den) rounded outward to 2**-bits."""
    scale = 1 << bits
    return tuple(
        Enclosure(Fraction((a << bits) // b, scale), Fraction(-((-c << bits) // d), scale))
        for a, b, c, d in quads
    )


def covering_sum(params: CoverParams, bits: int = 96) -> CoverReport:
    """Evaluate the covering series a_k = k**(k*g) / (k!)**(s*h+1).

    Here g = 1/(alpha-eps) and h = 1/(beta+eps).  Terms and consecutive
    ratios are exact quotients of scaled integer roots, rounded outward
    once; partial sums add the term bounds at 32 guard bits.  The
    verdict is RATIO_VANISHING only when s exceeds the threshold
    (beta+eps)(g-1) and the ratios are certifiably below 1 and
    decreasing over the final quarter of the window; anything else is
    INCONCLUSIVE, because the construction proves nothing there.
    """
    if params.k_max > COVER_KMAX_GUARD:
        raise GuardExceededError(
            f"k_max {params.k_max} exceeds the exact-root guard {COVER_KMAX_GUARD}"
        )
    g = params.upper_exponent
    exp_fact = params.s * params.lower_exponent + 1
    ks = tuple(range(params.N, params.k_max + 1))
    # A term or ratio is a quadruple (lo_num, lo_den, hi_num, hi_den).  The
    # roots a of 2**bits * k**(k*g) and c of 2**bits * (k!)**exp_fact are
    # exact or one below the truth; the scales cancel.
    terms = []
    factorial = math.factorial(params.N - 1)
    for k in ks:
        factorial *= k
        e = math.gcd(k * g.numerator, g.denominator)
        a, a_exact = _scaled_root(k ** (k * g.numerator // e), g.denominator // e, bits)
        c, c_exact = _scaled_root(factorial**exp_fact.numerator, exp_fact.denominator, bits)
        terms.append((a, c + (not c_exact), a + (not a_exact), c))
    # a_{k+1}/a_k lies in [lo_{k+1}/hi_k, hi_{k+1}/lo_k]; every a >= 2**bits.
    ratios = [(a1 * d0, b1 * c0, c1 * b0, d1 * a0)
              for (a0, b0, c0, d0), (a1, b1, c1, d1) in zip(terms, terms[1:])]
    guard = bits + 32
    sums, lo, hi = [], 0, 0
    for a, b, c, d in terms:
        lo += (a << guard) // b
        hi -= (-c << guard) // d
        sums.append((lo, 1 << guard, hi, 1 << guard))

    verdict = CoverVerdict.INCONCLUSIVE
    if params.s > params.threshold and ratios:
        tail = ratios[-max(1, len(ratios) // 4):]
        below_one = all(c < d for _, _, c, d in tail)
        decreasing = all(
            c1 * b0 <= a0 * d1 for (a0, b0, _, _), (_, _, c1, d1) in zip(tail, tail[1:])
        )
        if below_one and decreasing:
            verdict = CoverVerdict.RATIO_VANISHING
    return CoverReport(
        params, ks, _outward(terms, bits), _outward(ratios, bits), _outward(sums, bits),
        params.threshold, verdict,
    )


def refined_dimension_bound(alpha: Fraction, beta: Fraction, n_parts: int) -> Fraction:
    """max over the refined partition of alpha_{j+1} * (1/alpha_j - 1).

    Splitting [alpha, beta] into n_parts equal pieces, the bound is
    attained at the first piece and decreases to 1 - alpha as the
    partition refines.
    """
    alpha, beta = _check_alpha(alpha, allow_zero=False), _check_alpha(beta, allow_zero=False)
    if alpha > beta:
        raise DomainError("need alpha <= beta")
    if n_parts < 1:
        raise DomainError("need at least one partition piece")
    delta = (beta - alpha) / n_parts
    levels = [alpha + j * delta for j in range(n_parts + 1)]
    best = max(levels[j + 1] * (1 / levels[j] - 1) for j in range(n_parts))
    assert best == (alpha + delta) * (1 / alpha - 1)
    return best


@_record
class SampleRecord:
    index: int
    depth: int
    status: DigitStatus
    log_ratio: Optional[Enclosure]
    window: Enclosure


@_record
class McReport:
    algorithm: str
    bits: int
    count: int
    seed: int
    samples: tuple[SampleRecord, ...]
    median_log_ratio: Fraction
    median_depth: Fraction


def _median(values: list[Fraction]) -> Fraction:
    ordered = sorted(values)
    n = len(ordered)
    if n == 0:
        return Fraction(0)
    if n % 2 == 1:
        return ordered[n // 2]
    return (ordered[n // 2 - 1] + ordered[n // 2]) / 2


def sample_digit_statistics(bits: int, count: int, seed: int) -> McReport:
    """Digit growth statistics over seeded uniform dyadic samples.

    Each sample is a width 2**-bits enclosure of a uniform dyadic
    rational; digits are extracted only as deep as the enclosure
    certifies them.  Per sample the report carries the certified depth
    n*, an enclosure of ln(d_{n*}) / n*, and the exponent-window
    diagnostic over the certified prefix.  Per-sample generator streams
    are derived from the seed, so reports are byte-reproducible.
    """
    if bits < 256:
        raise DomainError("need at least 256 sampling bits")
    if count < 1:
        raise DomainError("need at least one sample")
    if (work := count * bits * bits) > SAMPLE_WORK_GUARD:
        raise GuardExceededError(
            f"sample count*bits^2 {work} exceeds the guard {SAMPLE_WORK_GUARD}")
    denominator = 1 << bits
    records: list[SampleRecord] = []
    log_ratios: list[Fraction] = []
    depths: list[Fraction] = []
    for index in range(count):
        rng = random.Random(f"{seed}:{index}:piercelab-mc")
        p = rng.getrandbits(bits)
        enclosure = Enclosure(Fraction(p, denominator), Fraction(p + 1, denominator))
        sd = safe_digits(enclosure, max_n=10**6)
        depth = len(sd.prefix)
        seq = PierceSeq.finite(sd.prefix)
        window = exponent_window(seq, *_half_window(depth))
        if depth >= 1:
            log_ratio = ln_enclosure(sd.prefix[-1]).mul_pos(Enclosure.exact(Fraction(1, depth)))
            log_ratios.append(log_ratio.midpoint)
        else:
            log_ratio = None
        depths.append(Fraction(depth))
        records.append(SampleRecord(index, depth, sd.status, log_ratio, window))
    return McReport(
        algorithm=RNG_ALGORITHM,
        bits=bits,
        count=count,
        seed=seed,
        samples=tuple(records),
        median_log_ratio=_median(log_ratios),
        median_depth=_median(depths),
    )


@_record
class GridCell:
    index: int
    cell: Enclosure
    witness: Witness


@_record
class GridReport:
    alpha: Fraction
    depth: int
    cells: tuple[GridCell, ...]

    @property
    def all_witnessed(self) -> bool:
        return len(self.cells) == 1 << self.depth


def grid_witness_sweep(
    alpha: Fraction, depth: int, precision_bits: int = DEFAULT_PRECISION_BITS
) -> GridReport:
    """One certified-exponent witness inside every dyadic cell of the grid.

    Covers all 2**depth cells [m 2**-depth, (m+1) 2**-depth]; every cell
    report carries the exact witness enclosure.  A constructive density
    check: at resolution 2**-depth the witnessed set meets every box.
    """
    if depth < 1:
        raise DomainError("grid depth must be at least 1")
    if depth > GRID_DEPTH_GUARD:
        raise GuardExceededError(f"grid depth must lie in [1, {GRID_DEPTH_GUARD}]")
    alpha = Fraction(alpha)
    scale = 1 << depth
    cells: list[GridCell] = []
    for m in range(scale):
        cell = Enclosure(Fraction(m, scale), Fraction(m + 1, scale))
        witness = witness_in_interval(cell, alpha, precision_bits)
        cells.append(GridCell(m, cell, witness))
    return GridReport(alpha, depth, tuple(cells))
