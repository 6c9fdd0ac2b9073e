"""piercelab: exact-arithmetic toolkit for Pierce expansions.

Digit dynamics over exact rationals, the sequence space and its
evaluation map, convergence-exponent estimators with analytic
certificates, witness factories, and desk-scale covering experiments,
all exposed through a deterministic machine-readable CLI.
"""

from .arith import (
    BigRational,
    DomainError,
    Enclosure,
    GuardExceededError,
    INFINITY,
    UncertifiedRuleError,
    floor_reciprocal,
    floor_root_power,
)
from .pierce import (
    DigitStatus,
    SafeDigits,
    digit_step,
    digits_rational,
    partial_sums,
    safe_digits,
    shift_orbit,
)
from .rules import (
    BitPerturbedRule,
    DigitRule,
    ExplicitRule,
    LinearRule,
    PowerFloorRule,
    TowerRule,
)
from .space import (
    FundamentalInterval,
    PierceSeq,
    SIGMA_ZERO,
    cylinder_contains,
    dual_representation,
    expansion_value,
    fundamental_interval,
    locate_cylinder,
    seq_distance,
)
from .exponent import (
    ExponentEstimate,
    PowerSumPartial,
    Verdict,
    certified_exponent,
    classify_divergence,
    estimate_exponent,
    estimate_point_exponent,
    exponent_window,
    growth_ratio,
    reciprocal_power_sum,
)
from .constructions import (
    Witness,
    bit_perturbed_rule,
    divergent_tail_rule,
    intermediate_value_witness,
    prescribed_exponent_rule,
    witness_in_interval,
)
from .dimension import (
    CoverParams,
    CoverReport,
    CoverVerdict,
    GridReport,
    McReport,
    binomial_tuple_bound,
    covering_sum,
    enumerate_digit_tuples,
    grid_witness_sweep,
    refined_dimension_bound,
    sample_digit_statistics,
)

__version__ = "0.1.0"
