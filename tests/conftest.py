"""Oracles shared by more than one test module, served as fixtures."""

import itertools

import pytest


def admissible_tuples(params, k):
    """The admissible strictly increasing k-tuples, listed from the definition.

    With g = 1/(alpha-eps) and h = 1/(beta+eps): every digit is at most
    the largest d with d**g.den <= k**g.num, and d_j**h.den >= j**h.num
    for every j >= N.  Exact integer powers only, no roots and no DP.
    """
    g, h = params.upper_exponent, params.lower_exponent
    cap = 0
    while (cap + 1) ** g.denominator <= k**g.numerator:
        cap += 1
    return [t for t in itertools.combinations(range(1, cap + 1), k)
            if all(d**h.denominator >= j**h.numerator
                   for j, d in enumerate(t, start=1) if j >= params.N)]


@pytest.fixture(scope="session")
def tuple_oracle():
    return admissible_tuples
