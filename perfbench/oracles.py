"""Correctness oracles for the benchmark's operations.

Written from the definitions alone and independent of piercelab: Pierce
digits come from the integer routine d = q // p, p <- q mod p, values from
a plain alternating sum, and CLI reports are checked as JSON text.  Every
check raises OracleError with a one-line reason; the caller counts it as a
failed operation.
"""

from __future__ import annotations

import json
import random
import re
from fractions import Fraction


class OracleError(Exception):
    """An operation's output is wrong."""


def require(condition: bool, reason: str) -> None:
    if not condition:
        raise OracleError(reason)


# ---------------------------------------------------------------- digits


def pierce_digits(p: int, q: int) -> tuple[int, ...]:
    """Pierce digits of p/q in [0, 1]: T(p/q) = (q mod p)/q keeps q fixed."""
    digits = []
    while p:
        digits.append(q // p)
        p = q % p
    return tuple(digits)


def alternating_value(digits) -> Fraction:
    """1/d1 - 1/(d1 d2) + ..., by Horner's rule from the last digit."""
    num, den = 0, 1
    for d in reversed(digits):
        num, den = den - num, den * d
    return Fraction(num, den)


def cell_of(prefix) -> tuple[Fraction, Fraction, Fraction]:
    """(left, right, diameter) of a prefix's fundamental interval.

    The endpoints are the values of the prefix and of its last-digit bump;
    the diameter is (prod 1/d_j) / (d_n + 1).
    """
    a = alternating_value(prefix)
    b = alternating_value(tuple(prefix[:-1]) + (prefix[-1] + 1,))
    product = 1
    for d in prefix:
        product *= d
    return min(a, b), max(a, b), Fraction(1, product * (prefix[-1] + 1))


def check_orbit(p: int, q: int, digits, orbit) -> None:
    """orbit[k] = T^(k+1)(p/q), and 1/(d+1) <= T^k(p/q) <= 1/d for each digit."""
    require(len(orbit) == len(digits), "orbit length differs from digit count")
    r = p
    for d, t in zip(digits, orbit):
        require(r * (d + 1) >= q and r * d <= q, "shift sandwich violated")
        r = q % r
        require(Fraction(t) * q == r, "orbit point differs from the integer routine")
    require(r == 0, "orbit of a rational does not end at 0")


def check_digits_op(p, q, digits, value, sigma, tau, orbit, cell) -> int:
    """Oracle for one digits-corpus operation; returns the digit count."""
    x = Fraction(p, q)
    expected = pierce_digits(p, q)
    require(tuple(digits) == expected, "digits differ from the integer routine")
    require(alternating_value(expected) == x, "integer digits do not sum back")
    require(value == x, "expansion_value does not round-trip")
    require(tuple(sigma) == expected, "dual sigma differs from the digits")
    require(
        tuple(tau) == expected[:-1] + (expected[-1] - 1, expected[-1]),
        "dual tau is not (d1, ..., d_n - 1, d_n)",
    )
    require(all(a < b for a, b in zip(tau, tau[1:])), "tau is not increasing")
    require(alternating_value(tau) == x, "tau does not evaluate back")
    check_orbit(p, q, expected, orbit)
    require(tuple(cell) == cell_of(expected), "fundamental interval or diameter wrong")
    return len(expected)


# ---------------------------------------------------------------- windows


def check_window(lo, hi, alpha: Fraction) -> None:
    """An exponent-window enclosure: ordered, in [0, 1], near alpha.

    The tolerance is the acceptance suite's: 1/100 at alpha = 0, else 2/100.
    """
    tol = Fraction(1, 100) if alpha == 0 else Fraction(2, 100)
    require(0 <= lo <= hi <= 1, "window enclosure not ordered inside [0, 1]")
    require(abs(lo - alpha) <= tol and abs(hi - alpha) <= tol,
            "window enclosure outside the acceptance tolerance")


# ---------------------------------------------------------------- CLI

ENVELOPE_KEYS = {"command", "params", "results", "provenance"}
PROVENANCE_KEYS = {"version", "seed", "precision_bits"}
_RATIONAL = re.compile(r"-?[0-9]+/[0-9]+")
# The per-sample stream derivation that `sample` names in its reports.
SAMPLE_ALGORITHM = "mt19937/sha512-per-sample-streams"


def rational(text) -> Fraction:
    require(isinstance(text, str) and _RATIONAL.fullmatch(text) is not None,
            f"not an exact rational string: {text!r}")
    num, den = text.split("/")
    require(int(den) > 0, f"zero denominator in {text!r}")
    return Fraction(int(num), int(den))


def enclosure(pair) -> tuple[Fraction, Fraction]:
    require(isinstance(pair, list) and len(pair) == 2, f"not an enclosure: {pair!r}")
    lo, hi = rational(pair[0]), rational(pair[1])
    require(lo <= hi, f"enclosure out of order: {pair!r}")
    return lo, hi


def _check_rationals(node) -> None:
    """Every string shaped like a rational has a positive denominator."""
    if isinstance(node, dict):
        for value in node.values():
            _check_rationals(value)
    elif isinstance(node, list):
        for value in node:
            _check_rationals(value)
    elif isinstance(node, str) and _RATIONAL.fullmatch(node):
        rational(node)


# Result fields that hold one enclosure (when a list) or a list of them.
ENCLOSURES = {
    "expand": (),
    "eval": ("value", "interval"),
    "lambda": ("sup",),
    "construct": ("enclosure", "container"),
    "divergent": ("partial_sum",),
    "cover": (),
    "grid": ("cell", "enclosure"),
    "sample": ("log_ratio", "window"),
}
ENCLOSURE_LISTS = {"cover": ("terms", "ratios", "partial_sums")}


def _check_enclosures(command: str, results: dict) -> None:
    for key in ENCLOSURES[command]:
        if isinstance(results.get(key), list):
            enclosure(results[key])
    for key in ENCLOSURE_LISTS.get(command, ()):
        for pair in results[key]:
            enclosure(pair)


def envelopes(text: str, command: str) -> list[dict]:
    """Parse report lines and check the envelope shape of each."""
    lines = text.splitlines()
    require(bool(lines), "no report lines")
    out = []
    for line in lines:
        try:
            env = json.loads(line)
        except ValueError as exc:
            raise OracleError(f"report line is not JSON: {exc}") from None
        require(isinstance(env, dict) and set(env) == ENVELOPE_KEYS,
                "envelope keys are not command/params/results/provenance")
        require(env["command"] == command, "envelope names another command")
        require(isinstance(env["provenance"], dict)
                and PROVENANCE_KEYS <= set(env["provenance"]),
                "provenance lacks version/seed/precision_bits")
        _check_rationals(env["results"])
        _check_enclosures(command, env["results"])
        out.append(env)
    return out


def single(envs: list[dict]) -> dict:
    require(len(envs) == 1, "expected exactly one report line")
    return envs[0]["results"]


def _inside(inner, lo: Fraction, hi: Fraction, what: str) -> None:
    a, b = enclosure(inner)
    require(lo <= a and b <= hi, f"{what} enclosure escapes its cell")


def check_expand(envs: list[dict], p: int, q: int) -> None:
    res = single(envs)
    digits = pierce_digits(p, q)
    require(tuple(res["digits"]) == digits, "expand digits differ")
    require(tuple(res["tau"]) == digits[:-1] + (digits[-1] - 1, digits[-1]),
            "expand tau differs")
    check_orbit(p, q, digits, [rational(t) for t in res["orbit"]])


def check_eval(envs: list[dict], prefix: tuple, rule) -> None:
    res = single(envs)
    left, right, diameter = cell_of(prefix)
    require(enclosure(res["interval"]) == (left, right), "eval interval differs")
    require(rational(res["diameter"]) == diameter, "eval diameter identity fails")
    if rule is None:
        require(rational(res["value"]) == alternating_value(prefix),
                "eval value differs from the alternating sum")
    else:
        _inside(res["value"], left, right, "rule value")


def check_lambda(envs: list[dict], window: int, certificate: Fraction) -> None:
    res = single(envs)
    require(res["window"] == [max(2, -(-window // 2)), window], "lambda window wrong")
    lo, hi = enclosure(res["sup"])
    require(0 <= lo and hi <= 1, "lambda sup outside [0, 1]")
    require(rational(res["certificate"]) == certificate, "lambda certificate wrong")
    require(res["window_certifies"] is False, "a window claims to certify a limsup")


def check_construct(envs: list[dict], lo: Fraction, hi: Fraction, alpha: Fraction) -> None:
    res = single(envs)
    require(enclosure(res["container"]) == (lo, hi), "construct container differs")
    _inside(res["enclosure"], lo, hi, "construct")
    require(rational(res["certificate"]) == alpha, "construct certificate wrong")


def check_divergent(envs: list[dict], prefix: tuple, j: int, terms: int) -> None:
    res = single(envs)
    first = res["first_terms"]
    require(tuple(first[:j]) == prefix[:j], "divergent rule drops the kept prefix")
    require(all(a < b for a, b in zip(first, first[1:])), "divergent terms not increasing")
    require(res["verdict"] == "divergent", "divergent-tail rule not reported divergent")
    require(res["n_terms"] == terms, "divergent term count differs")
    require(enclosure(res["partial_sum"])[0] > 0, "partial sum not positive")


def check_grid(envs: list[dict], depth: int, alpha: Fraction) -> None:
    scale = 1 << depth
    require(len(envs) == scale + 1, "grid line count is not 2^depth + 1")
    for m, env in enumerate(envs[:-1]):
        res = env["results"]
        lo, hi = Fraction(m, scale), Fraction(m + 1, scale)
        require(res["index"] == m and enclosure(res["cell"]) == (lo, hi),
                "grid cell differs from the dyadic grid")
        _inside(res["enclosure"], lo, hi, "grid")
        require(rational(res["certificate"]) == alpha, "grid certificate wrong")
    summary = envs[-1]["results"]
    require(summary["cells"] == scale and summary["all_witnessed"] is True,
            "grid summary wrong")


def common_prefix_depth(a: int, b: int, q: int) -> int:
    """Number of leading Pierce digits shared by a/q and b/q."""
    depth = 0
    while a and b and q // a == q // b:
        depth += 1
        a, b = q % a, q % b
    return depth


def check_sample(envs: list[dict], bits: int, count: int, seed: int) -> None:
    require(len(envs) == count + 1, "sample line count is not count + 1")
    require(envs[-1]["results"]["algorithm"] == SAMPLE_ALGORITHM,
            "sample stream algorithm changed")
    q = 1 << bits
    for index, env in enumerate(envs[:-1]):
        res = env["results"]
        p = random.Random(f"{seed}:{index}:piercelab-mc").getrandbits(bits)
        require(res["index"] == index, "sample index out of order")
        require(res["depth"] == common_prefix_depth(p, p + 1, q),
                "sample depth is not the endpoints' common digit prefix")
        lo, hi = enclosure(res["window"])
        require(0 <= lo and hi <= 1, "sample window outside [0, 1]")


def check_cover(envs: list[dict], point: tuple, kmax: int) -> None:
    res = single(envs)
    alpha, beta, eps, s = (Fraction(v) for v in point)
    threshold = (beta + eps) * (1 / (alpha - eps) - 1)
    require(rational(res["threshold"]) == threshold, "cover threshold differs")
    require(res["k_range"] == [1, kmax], "cover k range differs")
    require(len(res["terms"]) == kmax and len(res["partial_sums"]) == kmax
            and len(res["ratios"]) == kmax - 1, "cover ledger lengths differ")
    lows = [enclosure(e)[0] for e in res["partial_sums"]]
    require(all(a <= b for a, b in zip(lows, lows[1:])), "cover partial sums decrease")
    require(res["verdict"] in ("ratio_vanishing", "inconclusive"), "unknown cover verdict")
