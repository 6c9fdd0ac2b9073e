"""The benchmark's three workloads.

Each workload turns (seed, session) into a fixed list of operations with
`session_ops`, runs one operation through piercelab's public API with
`run` (the only timed part), and checks it with `check`, which returns
the bytes that go into the output digest and the work the oracle knows
the operation did.  Inputs are plain data; piercelab is reached only
through the package object passed in, so a traced session sees the
wrapped functions.

Draws are stratified so that every session has the same mix: bit lengths,
rule families, commands and cover sizes each appear in fixed proportions,
and the seed picks the values inside each stratum and their order.
"""

from __future__ import annotations

import io
import random
from fractions import Fraction

import oracles

ALPHAS = (Fraction(0), Fraction(1, 4), Fraction(1, 2), Fraction(3, 4), Fraction(1))
PREFIXES = ((), (2,), (3, 7))


def _rng(workload: str, seed: int, session: int) -> random.Random:
    return random.Random(f"{workload}:{seed}:{session}")


def _fmt(x: Fraction) -> str:
    return f"{x.numerator}/{x.denominator}"


class DigitsCorpus:
    """One rational p/q through digits, value, dual, orbit and cell."""

    name = "digits-corpus"
    BITS = range(8, 129)
    BLOCKS = 3  # each block draws every bit length of BITS once

    def session_ops(self, seed: int, session: int) -> list:
        rng = _rng(self.name, seed, session)
        ops = []
        for _ in range(self.BLOCKS):
            bits = list(self.BITS)
            rng.shuffle(bits)
            for b in bits:
                q = rng.getrandbits(b) | (1 << (b - 1))
                ops.append((rng.randrange(1, q), q))
        return ops

    def prepare(self, pl, ops) -> list:
        return [Fraction(p, q) for p, q in ops]

    def run(self, pl, x):
        digits = pl.digits_rational(x)
        value = pl.expansion_value(pl.PierceSeq.finite(digits))
        sigma, tau = pl.dual_representation(x)
        orbit = pl.shift_orbit(x, len(digits))
        cell = pl.fundamental_interval(digits)
        return digits, value, sigma, tau, orbit, cell

    def check(self, op, out):
        p, q = op
        digits, value, sigma, tau, orbit, cell = out
        n = oracles.check_digits_op(
            p, q, digits, value, sigma, tau, orbit,
            (cell.left, cell.right, cell.diameter),
        )
        record = f"{digits}|{_fmt(value)}|{tau}|{_fmt(cell.diameter)}\n"
        return record.encode(), {"digits": n}


class ExponentScan:
    """exponent_window over fresh blocks of tail indices, several rules a block."""

    name = "exponent-scan"
    RULES = tuple((prefix, alpha) for prefix in PREFIXES for alpha in ALPHAS)
    BLOCK = 1000
    RULES_PER_BLOCK = 5
    # Every 3 blocks cover all 15 rules, and every rule is the first, cold,
    # rule of exactly BLOCKS // 15 blocks, so the cold costs weigh the same
    # in every session.
    BLOCKS = 30

    def session_ops(self, seed: int, session: int) -> list:
        rng = _rng(self.name, seed, session)
        start = rng.randrange(1000, 2000)
        n = len(self.RULES)
        ops = []
        for _ in range(self.BLOCKS // n):
            firsts = list(range(n))
            rng.shuffle(firsts)
            for group in range(0, n, 3):
                rest = [r for r in range(n) if r not in firsts[group:group + 3]]
                rng.shuffle(rest)
                for j in range(3):
                    lo = start + len(ops) // self.RULES_PER_BLOCK * self.BLOCK
                    others = rest[j * 4:(j + 1) * 4]
                    ops += [(rule, lo, lo + self.BLOCK - 1)
                            for rule in [firsts[group + j], *others]]
        return ops

    def prepare(self, pl, ops) -> list:
        seqs = [
            pl.PierceSeq.infinite(pl.prescribed_exponent_rule(prefix, alpha))
            for prefix, alpha in self.RULES
        ]
        return [(seqs[rule], lo, hi) for rule, lo, hi in ops]

    def run(self, pl, op):
        seq, lo, hi = op
        return pl.exponent_window(seq, lo, hi)

    def check(self, op, out):
        rule, lo, hi = op
        oracles.check_window(out.lo, out.hi, self.RULES[rule][1])
        record = f"{rule}:{lo}:{hi}:{_fmt(out.lo)}:{_fmt(out.hi)}\n"
        return record.encode(), {"indices": hi - lo + 1}


COVER_POINTS = (
    ("1/2", "1/2", "1/10", "3"),
    ("1", "1", "1/5", "4"),
    ("3/5", "4/5", "1/10", "9/2"),
)


def _spread(rng, lo: int, hi: int, n: int) -> list:
    """n ints in [lo, hi], the i-th drawn from the i-th of n equal slices, shuffled."""
    span = hi - lo + 1
    values = [lo + (i * span + rng.randrange(span)) // n for i in range(n)]
    rng.shuffle(values)
    return values


def _prefix_arg(prefix) -> list:
    return ["--prefix", ",".join(map(str, prefix))] if prefix else []


def _cmd_expand(rng, bits):
    q = rng.getrandbits(bits) | (1 << (bits - 1))
    p = rng.randrange(1, q)
    return ["expand", f"{p}/{q}"], (p, q)


def _cmd_eval(rng, length):
    prefix = tuple(sorted(rng.sample(range(2, 61), length)))
    bits = rng.choice((32, 64, 128))
    argv = ["eval", "--prefix", ",".join(map(str, prefix)), "--bits", str(bits)]
    rule = rng.choice((None, "power", "tower"))
    if rule == "power":
        argv += ["--rule", "power", "--alpha", _fmt(rng.choice(ALPHAS[1:]))]
    elif rule == "tower":
        argv += ["--rule", "tower"]
    return argv, (prefix, rule)


def _cmd_lambda(rng, plan):
    family, window = plan
    argv = ["lambda", "--rule", family, "--window", str(window)]
    if family == "power":
        alpha = rng.choice(ALPHAS[1:])
        argv += _prefix_arg(rng.choice(PREFIXES)) + ["--alpha", _fmt(alpha)]
    elif family == "tower":
        alpha = Fraction(0)
        argv += _prefix_arg(rng.choice(PREFIXES))
    elif family == "linear":
        alpha = Fraction(1)
        argv += ["--offset", str(rng.randint(0, 10))]
    else:
        alpha = rng.choice(ALPHAS)
        pattern = "".join(rng.choice("01") for _ in range(rng.randint(8, 16)))
        argv += ["--alpha", _fmt(alpha), "--pattern", pattern]
    return argv, (window, alpha)


def _cmd_construct(rng, depth):
    scale = 1 << depth
    m = rng.randrange(scale)
    lo, hi = Fraction(m, scale), Fraction(m + 1, scale)
    alpha = rng.choice(ALPHAS)
    argv = ["construct", "--alpha", _fmt(alpha), "--in", f"{_fmt(lo)},{_fmt(hi)}",
            "--bits", str(rng.choice((64, 128)))]
    return argv, (lo, hi, alpha)


def _cmd_divergent(rng, terms):
    prefix = tuple(sorted(rng.sample(range(2, 40), rng.randint(3, 5))))
    s = rng.choice(ALPHAS[1:])
    j = rng.randint(1, len(prefix))
    argv = ["divergent", "--s", _fmt(s), "--prefix", ",".join(map(str, prefix)),
            "--j", str(j), "--terms", str(terms)]
    return argv, (prefix, j, terms)


def _cmd_grid(rng, depth):
    alpha = rng.choice(ALPHAS)
    return ["grid", "--alpha", _fmt(alpha), "--depth", str(depth)], (depth, alpha)


def _cmd_sample(rng, count):
    seed = rng.randrange(1 << 32)
    argv = ["sample", "--bits", "4096", "--count", str(count), "--seed", str(seed)]
    return argv, (4096, count, seed)


def _cmd_cover(rng, cover):
    point, kmax = cover
    alpha, beta, eps, s = point
    argv = ["cover", "--alpha", alpha, "--beta", beta, "--eps", eps, "--s", s,
            "--kmax", str(kmax)]
    return argv, (point, kmax)


class CliMix:
    """In-process `cli.run` calls of the eight README subcommands."""

    name = "cli-mix"
    # command -> (generator, range of the size that the session stratifies)
    COMMANDS = {
        "expand": (_cmd_expand, (8, 64)),  # bits of q
        "eval": (_cmd_eval, (1, 4)),  # prefix length
        "lambda": (_cmd_lambda, (200, 2000)),  # window, with each family equally often
        "construct": (_cmd_construct, (2, 40)),  # dyadic depth of the interval
        "divergent": (_cmd_divergent, (100, 1000)),  # terms
        "grid": (_cmd_grid, (3, 5)),  # depth
        "sample": (_cmd_sample, (1, 4)),  # count at 4096 bits
        "cover": (_cmd_cover, (30, 120)),  # kmax, stratified per point
    }
    LAMBDA_FAMILIES = ("power", "tower", "linear", "binary")
    ROUNDS = 24  # each round issues every command once; a multiple of 3 and of 4

    def _sizes(self, rng) -> dict:
        sizes = {name: _spread(rng, *span, self.ROUNDS)
                 for name, (_, span) in self.COMMANDS.items() if name != "cover"}
        families = list(self.LAMBDA_FAMILIES) * (self.ROUNDS // len(self.LAMBDA_FAMILIES))
        rng.shuffle(families)
        sizes["lambda"] = list(zip(families, sizes["lambda"]))
        n = len(COVER_POINTS)
        per_point = [_spread(rng, *self.COMMANDS["cover"][1], self.ROUNDS // n)
                     for _ in COVER_POINTS]
        sizes["cover"] = [(COVER_POINTS[r % n], per_point[r % n][r // n])
                          for r in range(self.ROUNDS)]
        return sizes

    def session_ops(self, seed: int, session: int) -> list:
        rng = _rng(self.name, seed, session)
        sizes = self._sizes(rng)
        ops = []
        for r in range(self.ROUNDS):
            names = list(self.COMMANDS)
            rng.shuffle(names)
            for name in names:
                argv, expect = self.COMMANDS[name][0](rng, sizes[name][r])
                ops.append((name, tuple(argv), expect))
        return ops

    def prepare(self, pl, ops) -> list:
        return [argv for _, argv, _ in ops]

    def run(self, pl, argv):
        out, err = io.StringIO(), io.StringIO()
        code = pl.cli.run(argv, out, err)
        return code, out.getvalue(), err.getvalue()

    def check(self, op, out):
        name, _, expect = op
        code, text, err = out
        oracles.require(code == 0, f"exit code {code}: {err.strip()[:200]}")
        getattr(oracles, f"check_{name}")(oracles.envelopes(text, name), *expect)
        work = {"bytes": len(text.encode())}
        if name == "cover":
            work["cover_terms"] = expect[1]
        return text.encode(), work


WORKLOADS = {w.name: w for w in (DigitsCorpus(), ExponentScan(), CliMix())}
