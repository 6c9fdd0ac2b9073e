"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with `pytest -s tests/test_acceptance.py -v` to see the per-criterion
lines alongside the pytest verdicts.  Tolerances and budgets are pinned
here, not configurable.
"""

import io
import itertools
import random
import time
from contextlib import contextmanager
from fractions import Fraction as F

import pytest

from piercelab.cli import run as cli_run
from piercelab.constructions import (
    divergent_tail_rule,
    prescribed_exponent_rule,
)
from piercelab.dimension import (
    CoverParams,
    CoverVerdict,
    binomial_tuple_bound,
    covering_sum,
    enumerate_digit_tuples,
    grid_witness_sweep,
    refined_dimension_bound,
    sample_digit_statistics,
)
from piercelab.exponent import (
    estimate_exponent,
    reciprocal_power_sum,
)
from piercelab.pierce import digits_rational, shift_orbit
from piercelab.rules import BitPerturbedRule
from piercelab.space import (
    PierceSeq,
    dual_representation,
    expansion_value,
    fundamental_interval,
)

CORPUS_SEED = 20260809
CORPUS_SIZE = 10**4
MC_SEED = 20260809


@contextmanager
def criterion(name: str):
    try:
        yield
    except BaseException:
        print(f"ACCEPTANCE {name}: FAIL")
        raise
    print(f"ACCEPTANCE {name}: PASS")


@pytest.fixture(scope="module")
def corpus():
    rng = random.Random(CORPUS_SEED)
    xs = []
    for _ in range(CORPUS_SIZE):
        q = rng.randint(1, 10**6)
        p = rng.randint(0, q)
        xs.append(F(p, q))
    return xs


@pytest.fixture(scope="module")
def corpus_digits(corpus):
    return [digits_rational(x) for x in corpus]


def test_round_trip_exactness(corpus):
    with criterion("round-trip exactness (10^4 rationals, q <= 10^6)"):
        start = time.perf_counter()
        for x in corpus:
            digits = digits_rational(x)
            assert expansion_value(PierceSeq.finite(digits)) == x
            assert all(a < b for a, b in zip(digits, digits[1:]))
            if 0 < x < 1 and len(digits) >= 2:
                assert digits[-1] - digits[-2] >= 2
        assert time.perf_counter() - start < 10.0


def test_dual_representation(corpus, corpus_digits):
    with criterion("dual representation (tau increases, evaluates back)"):
        for x, digits in zip(corpus, corpus_digits):
            if not 0 < x < 1:
                continue
            sigma, tau = dual_representation(x)
            assert sigma == digits
            assert all(a < b for a, b in zip(tau, tau[1:]))
            assert expansion_value(PierceSeq.finite(tau)) == x


def test_diameter_identity_exhaustive():
    with criterion("diameter identity (all prefixes, length <= 3, digits <= 50)"):
        checked = 0
        for n in (1, 2, 3):
            for prefix in itertools.combinations(range(1, 51), n):
                cell = fundamental_interval(prefix)
                a = expansion_value(PierceSeq.finite(prefix))
                b = expansion_value(
                    PierceSeq.finite(prefix[:-1] + (prefix[-1] + 1,))
                )
                product = F(1)
                for d in prefix:
                    product /= d
                assert abs(a - b) == product / (prefix[-1] + 1) == cell.diameter
                checked += 1
        assert checked == 50 + 1225 + 19600


def test_shift_sandwich(corpus, corpus_digits):
    with criterion("shift sandwich (1/(d+1) <= T^k(x) <= 1/d exactly)"):
        for x, digits in zip(corpus, corpus_digits):
            orbit = [x] + shift_orbit(x, len(digits))
            for k, d in enumerate(digits):
                assert F(1, d + 1) <= orbit[k] <= F(1, d)


def test_exponent_certification():
    with criterion("exponent certification (15 rule combos at n_max = 10^5)"):
        start = time.perf_counter()
        for prefix in ((), (2,), (3, 7)):
            for alpha in (F(0), F(1, 4), F(1, 2), F(3, 4), F(1)):
                rule = prescribed_exponent_rule(prefix, alpha)
                assert rule.certificate == alpha
                est = estimate_exponent(PierceSeq.infinite(rule), 10**5)
                tolerance = F(1, 100) if alpha == 0 else F(2, 100)
                assert est.sup.hi <= alpha + tolerance, (prefix, alpha)
                assert est.sup.lo >= alpha - tolerance, (prefix, alpha)
        assert time.perf_counter() - start < 30.0


def test_injection_family():
    with criterion("injection family (2^16 distinct bit patterns at alpha = 1/2)"):
        seen = set()
        for m in range(1 << 16):
            bits = tuple((m >> j) & 1 for j in range(16))
            rule = BitPerturbedRule(F(1, 2), bits)
            assert rule.certificate == F(1, 2)
            seen.add(rule.terms(16))
        assert len(seen) == 1 << 16


def test_divergent_family():
    with criterion("divergence (tail sums exceed 10 within the harmonic bound)"):
        prefix = (1, 2, 3, 4, 5)
        for s in (F(1, 4), F(1, 2), F(1)):
            for j in (1, 2, 5):
                rule = divergent_tail_rule(prefix, s, j)
                # ln((d_j + n + 1)/(d_j + 1)) >= 10 once n >= 22027*(d_j + 1),
                # using e^10 < 22026.5; tail terms dominate 1/(d_j + i).
                n_terms = j + 22027 * (prefix[j - 1] + 1)
                partial = reciprocal_power_sum(PierceSeq.infinite(rule), s, n_terms)
                assert partial.sum.lo > 10, (s, j)


def test_covering_enumeration():
    with criterion("covering enumeration (counts vs binomial bound, k <= 8)"):
        grid = (
            dict(alpha=F(17, 20), beta=F(17, 20), epsilon=F(1, 20)),
            dict(alpha=F(3, 4), beta=F(1), epsilon=F(1, 20)),
            dict(alpha=F(19, 20), beta=F(1), epsilon=F(1, 20)),
        )
        for point in grid:
            params = CoverParams(N=1, s=F(1), k_max=10, **point)
            for k in range(1, 9):
                result = enumerate_digit_tuples(params, k, include_listing=True)
                assert len(result.tuples) == result.count
                assert result.count <= binomial_tuple_bound(params, k)
        # the pinned small case: exponent pair (1, 2) at N = 2, k = 2
        pinned = CoverParams(
            N=2, alpha=F(3, 5), beta=F(9, 10), epsilon=F(1, 10), s=F(1), k_max=10
        )
        assert (pinned.lower_exponent, pinned.upper_exponent) == (1, 2)
        assert enumerate_digit_tuples(pinned, 2).count == 6


def test_ratio_vanishing():
    with criterion("ratio vanishing (3-point grid, ratio < 10^-6 by k = 200)"):
        grid = (
            dict(alpha=F(1, 2), beta=F(1, 2), epsilon=F(1, 10), s=F(3)),
            dict(alpha=F(1), beta=F(1), epsilon=F(1, 5), s=F(4)),
            dict(alpha=F(3, 5), beta=F(4, 5), epsilon=F(1, 10), s=F(9, 2)),
        )
        for point in grid:
            params = CoverParams(N=1, k_max=200, **point)
            assert params.s > params.threshold
            report = covering_sum(params)
            assert report.verdict is CoverVerdict.RATIO_VANISHING
            assert report.ratios[-1].hi < F(1, 10**6), point


def test_refinement_limit():
    with criterion("refinement limit (bound - (1 - alpha) = 1/(2n) exactly)"):
        for n in (1, 10, 100):
            bound = refined_dimension_bound(F(1, 2), F(1), n)
            assert bound - F(1, 2) == F(1, 2 * n)


def test_ae_behavior():
    with criterion("a.e. behavior (500 samples at 4096 bits, fixed seed)"):
        start = time.perf_counter()
        report = sample_digit_statistics(4096, 500, seed=MC_SEED)
        assert F(8, 10) <= report.median_log_ratio <= F(12, 10)
        deep = sum(1 for s in report.samples if s.depth >= 40)
        assert deep >= int(0.90 * 500)
        small_window = sum(1 for s in report.samples if s.window.hi <= F(15, 100))
        assert small_window >= int(0.95 * 500)
        assert time.perf_counter() - start < 120.0


def test_density_witness_grid():
    with criterion("density witnesses (all 2^10 cells for alpha in {0, 1/2, 1})"):
        for alpha in (F(0), F(1, 2), F(1)):
            report = grid_witness_sweep(alpha, 10)
            assert report.all_witnessed and len(report.cells) == 1024
            for cell in report.cells:
                assert cell.cell.contains_interval(cell.witness.enclosure)
                assert cell.witness.certificate == alpha


def test_cli_determinism():
    with criterion("CLI determinism (byte-identical repeated invocations)"):
        invocations = (
            ["expand", "7/10"],
            ["eval", "--prefix", "2", "--bits", "8"],
            ["lambda", "--rule", "power", "--prefix", "2", "--alpha", "1/2", "--window", "200"],
            ["construct", "--alpha", "1/2", "--in", "0/1,1/1", "--bits", "64"],
            ["cover", "--alpha", "1/2", "--beta", "1/2", "--eps", "1/10", "--s", "3", "--kmax", "50"],
            ["grid", "--alpha", "1/2", "--depth", "4"],
            ["sample", "--bits", "512", "--count", "5", "--seed", "42"],
        )
        for argv in invocations:
            outputs = []
            for _ in range(2):
                out, err = io.StringIO(), io.StringIO()
                assert cli_run(argv, out, err) == 0, (argv, err.getvalue())
                outputs.append(out.getvalue().encode())
            assert outputs[0] == outputs[1], argv
