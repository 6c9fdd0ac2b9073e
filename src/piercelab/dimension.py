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
    _root_bracket,
    _scaled_root,
    integer_root,
    ln_enclosure,
)
from .constructions import Witness, witness_in_interval
from .exponent import _half_window, exponent_window
from .pierce import DigitStatus, _safe_run
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
    return integer_root(k**g.numerator, g.denominator)


def _digit_floor(params: CoverParams, j: int) -> int:
    if j < params.N:
        return 1
    h = params.lower_exponent
    r, exact = _scaled_root(j**h.numerator, h.denominator, 0)
    return r + (not exact)


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


# Working bits of the covering ledger's roots past the printed bits.
_LEDGER_BITS = 128


def _quotient(n, d, sh: int, up: bool = False) -> Optional[int]:
    """floor(N * 2**sh / D), or the ceiling if up, for brackets N >= 0, D > 0; None if undecided."""
    sign, s = -1 if up else 1, sh + n[2] - d[2]
    lo, hi = (sign * n[0] << s, sign * n[1] << s) if s >= 0 else (sign * n[0], sign * n[1])
    d_lo, d_hi = (d[0], d[1]) if s >= 0 else (d[0] << -s, d[1] << -s)
    q = lo // d_hi
    return sign * q if q == hi // d_lo else None


def _times(x, y):
    return x[0] * y[0], x[1] * y[1], x[2] + y[2]


def covering_sum(params: CoverParams, bits: int = 96) -> CoverReport:
    """Evaluate the covering series a_k = k**(k*g) / (k!)**u, u = s*h + 1.

    Here g = 1/(alpha-eps) and h = 1/(beta+eps).  Per term, a =
    floor(2**bits * k**(k*g)) and c = floor(2**bits * (k!)**u) are exact
    or one below the truth, so the term lies in [a/(c+1), (a+1)/c]
    (no +1 where a root is exact), and a ratio a_{k+1}/a_k in the
    quotient of the two terms' opposite ends.  Each is rounded outward to
    2**-bits; partial sums add the term bounds at 32 guard bits and round
    once.  The verdict is RATIO_VANISHING only when s exceeds the
    threshold (beta+eps)(g-1) and the ratios are below 1 and falling over
    the final quarter of the window; anything else is INCONCLUSIVE,
    because the construction proves nothing there.

    Each printed floor and ceiling and the verdict are decided from
    brackets lo*2**e <= X <= hi*2**e of these integers at a working
    precision w = bits + 128, and x bits more for a term near 2**x:
    - Root brackets: both radicands are base**n with gcd(n, v) = 1, as
      arith._root_bracket needs: k**(k*g.num/e) at degree g.den/e, e =
      gcd(k*g.num, g.den), and (k!)**u.num, a running power, at u.den.
    - Bracket arithmetic: a product multiplies the ends and adds the
      exponents.  floor(N * 2**sh / D) rises with N and falls with D, so
      it is decided where floor(lo_N * 2**sh / hi_D) equals
      floor(hi_N * 2**sh / lo_D), and a ceiling the same way.
    - The verdict: the quarter's first ratio r_k decides it, by the floor
      0 of its upper end; the fall after it is proven.  Above the threshold,
      u > g > 1, and r_k = (k+1)**(g-u) (1+1/k)**(kg) < 1 needs (u-g)
      ln(k+1) > g(1-1/2k), so u - g > g/k for k >= 2, where ln(k+1) < k -
      1/2: d ln r/dk <= (g/k + g - u)/(k+1) < 0 from k on, and step j falls
      by e**-D_j, D_j >= g((1-1/2j)/ln(j+1) - 1/j)/(j+2).  A quarter of 2
      or more ratios has k >= N + 6 >= 7, where each end of a ratio's
      integer bracket lies within F_k = (1+1/A_{k+1})(1+1/C_k)(1+2/C_{k+1})
      (1+2/A_k) of r_k, A = a >= k**k, C = c >= k!.  At g = u = 1, the worst
      case, ln F_j F_{j+1} <= 0.0084 D_j for j = 7..511: each later upper
      end lies below the lower end before it, so below 1, and pairs fall.
    - Widening: where any one is undecided, the whole ledger runs again
      at 4w.  A bracket is the point X once w passes X's width, so the
      last rung decides all on the exact integers: the bytes are theirs.
    """
    if params.k_max > COVER_KMAX_GUARD:
        raise GuardExceededError(
            f"k_max {params.k_max} exceeds the exact-root guard {COVER_KMAX_GUARD}"
        )
    w = bits + _LEDGER_BITS
    while (report := _ledger(params, bits, w)) is None:
        w *= 4
    return report


def _ledger(params: CoverParams, bits: int, w: int) -> Optional[CoverReport]:
    """covering_sum at working precision w, or None where a rounding is undecided."""
    g, u = params.upper_exponent, params.s * params.lower_exponent + 1
    gn, gd, un, ud = g.numerator, g.denominator, u.numerator, u.denominator
    ks = tuple(range(params.N, params.k_max + 1))
    guard, one = 32, 1 << bits
    factorial = math.factorial(params.N - 1)
    power = factorial**un
    brackets, terms, sums, lo, hi = [], [], [], 0, 0
    enclosures = {}  # terms and sums repeat once terms drop below 2**-bits

    def outward(n_lo, n_hi):
        if (n_lo, n_hi) not in enclosures:
            enclosures[n_lo, n_hi] = Enclosure(Fraction(n_lo, one), Fraction(n_hi, one))
        return enclosures[n_lo, n_hi]

    for k in ks:
        factorial *= k
        power *= k**un
        e = math.gcd(k * gn, gd)
        m, v = k ** (k * gn // e), gd // e
        wk = w + max(0, m.bit_length() // v - power.bit_length() // ud)
        quad = []  # brackets of a, a + (not exact), c, c + (not exact)
        for m, base, v in ((m, k, v), (power, factorial, ud)):
            r_lo, r_hi, r_e, exact = _root_bracket(m, base, v, bits, wk)
            up = r_lo == r_hi and not exact
            quad += [(r_lo, r_hi, r_e), (r_lo + up, r_hi + up, r_e)]
        a, a_up, c, c_up = quad
        t_lo, t_hi = _quotient(a, c_up, bits + guard), _quotient(a_up, c, bits + guard, True)
        if t_lo is None or t_hi is None:
            return None
        brackets.append(quad)
        lo, hi = lo + t_lo, hi + t_hi
        terms.append(outward(t_lo >> guard, -(-t_hi >> guard)))
        sums.append(outward(lo >> guard, -(-hi >> guard)))
    # a_{k+1}/a_k lies in [lo_{k+1}/hi_k, hi_{k+1}/lo_k]: (n_lo, d_lo, n_hi, d_hi)
    fractions = [(_times(a1, c0), _times(c1_up, a0_up), _times(a1_up, c0_up), _times(c1, a0))
                 for (a0, a0_up, c0, c0_up), (a1, a1_up, c1, c1_up)
                 in zip(brackets, brackets[1:])]
    ratios = []
    for n_lo, d_lo, n_hi, d_hi in fractions:
        r_lo, r_hi = _quotient(n_lo, d_lo, bits), _quotient(n_hi, d_hi, bits, True)
        if r_lo is None or r_hi is None:
            return None
        ratios.append(outward(r_lo, r_hi))

    verdict = CoverVerdict.INCONCLUSIVE
    if params.s > params.threshold and fractions:
        _, _, n_hi, d_hi = fractions[-max(1, len(fractions) // 4)]
        if (floor := _quotient(n_hi, d_hi, 0)) is None:
            return None
        if floor == 0:
            verdict = CoverVerdict.RATIO_VANISHING
    return CoverReport(params, ks, tuple(terms), tuple(ratios), tuple(sums),
                       params.threshold, verdict)


def refined_dimension_bound(alpha: Fraction, beta: Fraction, n_parts: int) -> Fraction:
    """max over the refined partition of alpha_{j+1} * (1/alpha_j - 1).

    Splitting [alpha, beta] into n_parts equal pieces of width delta, the
    piece at x gives (x + delta)(1/x - 1) = 1 - delta - x + delta/x,
    which falls in x: the bound is attained at the first piece and
    decreases to 1 - alpha as the partition refines.
    """
    alpha, beta = _check_alpha(alpha, allow_zero=False), _check_alpha(beta, allow_zero=False)
    if alpha > beta:
        raise DomainError("need alpha <= beta")
    if n_parts < 1:
        raise DomainError("need at least one partition piece")
    delta = (beta - alpha) / n_parts
    return (alpha + delta) * (1 / alpha - 1)


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
        sd = _safe_run(p, p + 1, denominator, 10**6)
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
