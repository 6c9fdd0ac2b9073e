"""Certified witness factories.

Builders for the explicit digit rules with prescribed convergence
exponent (power-floor continuation, tower continuation, bit-perturbed
injection family, divergent-tail family) and interval-localised
witnesses: a rule plus an exact enclosure of its value, certified to lie
inside a requested interval.  Exactness is the product: a witness is
never a decimal.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Optional

from .arith import DomainError, Enclosure
from .pierce import validate_prefix
from .rules import BitPerturbedRule, DigitRule, PowerFloorRule, TowerRule
from .space import (
    DEFAULT_PRECISION_BITS,
    PierceSeq,
    expansion_value,
    fundamental_interval,
    locate_cylinder,
)

__all__ = [
    "Witness",
    "prescribed_exponent_rule",
    "bit_perturbed_rule",
    "divergent_tail_rule",
    "witness_in_interval",
    "intermediate_value_witness",
]


def prescribed_exponent_rule(prefix, alpha: Fraction) -> DigitRule:
    """A rule extending `prefix` whose convergence exponent is exactly alpha.

    alpha = 0 selects the tower continuation, alpha in (0, 1] the
    power-floor continuation.  The empty prefix is admitted as base 1,
    an extension of the cylinder-anchored construction.
    """
    prefix = validate_prefix(prefix)
    alpha = Fraction(alpha)
    if not (0 <= alpha <= 1):
        raise DomainError(f"target exponent {alpha} outside [0, 1]")
    if alpha == 0:
        return TowerRule(prefix)
    return PowerFloorRule(prefix, alpha)


def bit_perturbed_rule(alpha: Fraction, bits) -> BitPerturbedRule:
    """The injection family member for a 0/1 pattern; exponent alpha."""
    return BitPerturbedRule(Fraction(alpha), tuple(bits))


def divergent_tail_rule(prefix, s: Fraction, keep: int) -> DigitRule:
    """Keep the first `keep` digits, then continue with floor((d_keep+i)**(1/s)).

    The reciprocal s-th power sum of the result diverges (each tail term
    raised to s is at most d_keep + i, a shifted harmonic minorant), and
    the rules approach the original prefix as `keep` grows.
    """
    prefix = validate_prefix(prefix)
    s = Fraction(s)
    if not (0 < s <= 1):
        raise DomainError("the divergence exponent must lie in (0, 1]")
    if keep < 0:
        raise DomainError(f"keep={keep} must be non-negative")
    if keep > len(prefix):
        raise DomainError(
            f"keep={keep} exceeds the available prefix length {len(prefix)}"
        )
    return PowerFloorRule(prefix[:keep], s)


@dataclass(frozen=True)
class Witness:
    """A symbolic rule with an exact enclosure of its value and a certificate."""

    rule: DigitRule
    enclosure: Enclosure
    certificate: Fraction
    container: Optional[Enclosure] = None

    def __post_init__(self):
        if self.container is not None and not self.container.contains_interval(
            self.enclosure
        ):
            raise DomainError("witness enclosure escapes its requested container")
        if self.rule.certificate != self.certificate:
            raise DomainError("witness certificate disagrees with its rule")


def witness_in_interval(
    interval: Enclosure, alpha: Fraction, precision_bits: int = DEFAULT_PRECISION_BITS
) -> Witness:
    """A point with convergence exponent alpha inside a given interval.

    Locates a fundamental cell inside the interval, extends its prefix
    by the prescribed-exponent continuation, and encloses the value with
    partial sums of depth at least prefix+2, which keeps the enclosure
    strictly inside the cell.  All containments are checked exactly.
    """
    alpha = Fraction(alpha)
    prefix = locate_cylinder(interval)
    rule = prescribed_exponent_rule(prefix, alpha)
    enclosure = expansion_value(
        PierceSeq.infinite(rule), precision_bits, min_depth=len(prefix) + 2
    )
    cell = fundamental_interval(prefix).as_interval()
    if not cell.contains_interval(enclosure):
        raise AssertionError("witness enclosure escaped its fundamental cell")
    if not interval.contains_interval(cell):
        raise AssertionError("located cell escaped the requested interval")
    return Witness(rule, enclosure, alpha, container=interval)


def intermediate_value_witness(
    x: Fraction, y: Fraction, c: Fraction, precision_bits: int = DEFAULT_PRECISION_BITS
) -> Witness:
    """A witness with exponent c strictly between x and y.

    The enclosure endpoints are partial sums two levels beyond the
    located prefix; such sums never coincide with a cell endpoint, so
    the witness sits strictly inside (x, y).
    """
    x, y = Fraction(x), Fraction(y)
    if not (0 <= x < y <= 1):
        raise DomainError("need 0 <= x < y <= 1")
    witness = witness_in_interval(Enclosure(x, y), c, precision_bits)
    if not (x < witness.enclosure.lo and witness.enclosure.hi < y):
        raise AssertionError("witness enclosure touches the open interval boundary")
    return witness
