"""Certified witness factories.

Builders for the explicit digit rules with prescribed convergence
exponent (power-floor continuation, whose exponent 0 is the tower
continuation, and the divergent-tail family) and interval-localised
witnesses: a rule plus an exact enclosure of its value, certified to lie
inside a requested interval.  Exactness is the product: a witness is
never a decimal.
"""

from __future__ import annotations

from fractions import Fraction

from .arith import DomainError, Enclosure, _record
from .pierce import validate_prefix
from .rules import DigitRule, PowerFloorRule, _check_alpha
from .space import (
    DEFAULT_PRECISION_BITS,
    PierceSeq,
    expansion_value,
    locate_cylinder,
)

__all__ = [
    "Witness",
    "prescribed_exponent_rule",
    "divergent_tail_rule",
    "witness_in_interval",
]


def prescribed_exponent_rule(prefix, alpha: Fraction) -> DigitRule:
    """A rule extending `prefix` whose convergence exponent is exactly alpha.

    The power-floor continuation, alpha in [0, 1]; alpha = 0 is the
    tower.  The empty prefix is admitted as base 1, an extension of the
    cylinder-anchored construction.
    """
    return PowerFloorRule(prefix, alpha)


def divergent_tail_rule(prefix, s: Fraction, keep: int) -> DigitRule:
    """Keep the first `keep` digits, then continue with floor((d_keep+i)**(1/s)).

    The reciprocal s-th power sum of the result diverges (each tail term
    raised to s is at most d_keep + i, a shifted harmonic minorant), and
    the rules approach the original prefix as `keep` grows.
    """
    prefix = validate_prefix(prefix)
    if keep < 0:
        raise DomainError(f"keep={keep} must be non-negative")
    if keep > len(prefix):
        raise DomainError(
            f"keep={keep} exceeds the available prefix length {len(prefix)}"
        )
    return PowerFloorRule(prefix[:keep], _check_alpha(s, allow_zero=False))


@_record
class Witness:
    """A symbolic rule with an exact enclosure of its value; the rule holds the certificate."""

    rule: DigitRule
    enclosure: Enclosure
    container: Enclosure

    def __post_init__(self):
        if not self.container.contains_interval(self.enclosure):
            raise DomainError("witness enclosure escapes its requested container")

    @property
    def certificate(self) -> Fraction:
        return self.rule.certificate


def witness_in_interval(
    interval: Enclosure, alpha: Fraction, precision_bits: int = DEFAULT_PRECISION_BITS
) -> Witness:
    """A point with convergence exponent alpha inside a given interval.

    Locates a fundamental cell inside the interval, extends its prefix
    by the prescribed-exponent continuation, and encloses the value with
    partial sums of depth at least prefix+2, which keeps the enclosure
    strictly inside the cell (see expansion_value).  The cell lies in
    the interval by the search's own exact comparison, so the one check
    left is Witness's: the enclosure lies in the requested interval.
    """
    prefix = locate_cylinder(interval)
    rule = prescribed_exponent_rule(prefix, alpha)
    enclosure = expansion_value(
        PierceSeq.infinite(rule), precision_bits, min_depth=len(prefix) + 2
    )
    return Witness(rule, enclosure, interval)
