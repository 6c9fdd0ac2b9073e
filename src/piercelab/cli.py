"""Batch command-line front end with machine-readable reports.

Every command prints report envelopes as single-line JSON (or flattened
CSV) on stdout: {command, params, results, provenance}.  Numeric
payloads are exact rational strings "p/q" or two-element enclosures
["p/q", "p/q"], never floats, so identical invocations produce
byte-identical output.  Sweep commands stream one envelope per item
plus a final summary envelope.

Exit codes: 0 success, 2 domain error or bad arguments, 3 guard
exceeded (a number too long to print included), 64 unknown subcommand.
"""

from __future__ import annotations

import argparse
import contextlib
import functools
import io
import json
import re
import sys
from fractions import Fraction
from typing import Optional, TextIO

from . import __version__
from .arith import (
    DomainError,
    Enclosure,
    GuardExceededError,
    rational_str as fmt_rational,
)
from .constructions import divergent_tail_rule, witness_in_interval
from .dimension import (
    CoverParams,
    covering_sum,
    grid_witness_sweep,
    sample_digit_statistics,
)
from .exponent import (
    certified_exponent,
    classify_divergence,
    estimate_exponent,
    reciprocal_power_sum,
)
from .pierce import digits_rational, shift_orbit, validate_prefix
from .rules import BitPerturbedRule, LinearRule, PowerFloorRule
from .space import (
    DEFAULT_PRECISION_BITS,
    PierceSeq,
    dual_representation,
    expansion_value,
    fundamental_interval,
)

__all__ = ["main", "run", "REPORT_SCHEMA"]

REPORT_SCHEMA = {
    "$schema": "https://json-schema.org/draft/2020-12/schema",
    "title": "pierce-lab report envelope",
    "type": "object",
    "required": ["command", "params", "results", "provenance"],
    "properties": {
        "command": {"type": "string"},
        "params": {"type": "object"},
        "results": {"type": "object"},
        "provenance": {
            "type": "object",
            "required": ["version", "seed", "precision_bits"],
            "properties": {
                "version": {"type": "string"},
                "seed": {"type": ["integer", "null"]},
                "precision_bits": {"type": "integer"},
            },
        },
    },
    "additionalProperties": False,
}


def fmt_enclosure(e: Enclosure) -> list[str]:
    return [fmt_rational(e.lo), fmt_rational(e.hi)]


_RATIONAL = re.compile(r"[+-]?[0-9]+(/[0-9]+)?")


def parse_rational(text: str) -> Fraction:
    """An exact rational written "n" or "p/q"; decimals are refused."""
    if not _RATIONAL.fullmatch(text.strip()):
        raise DomainError(f"cannot parse rational {text!r}: expected n or p/q")
    try:
        return Fraction(text)
    except (ValueError, ZeroDivisionError) as exc:
        raise DomainError(f"cannot parse rational {text!r}: {exc}") from exc


def parse_interval(text: str) -> Enclosure:
    parts = text.split(",")
    if len(parts) != 2:
        raise DomainError(f"interval must be 'lo,hi', got {text!r}")
    return Enclosure(parse_rational(parts[0]), parse_rational(parts[1]))


def parse_prefix(text: str) -> tuple[int, ...]:
    if not text:
        return ()
    try:
        digits = tuple(int(p) for p in text.split(","))
    except ValueError as exc:
        raise DomainError(f"cannot parse prefix {text!r}") from exc
    return validate_prefix(digits)


def parse_pattern(text: str) -> tuple[int, ...]:
    try:
        return tuple(int(c) for c in text)
    except ValueError as exc:
        raise DomainError(f"cannot parse pattern {text!r}") from exc


def _integer(limit: Optional[int] = None, what: str = ""):
    """Parse function of an integer flag; a value past `limit` is refused (exit 3)."""

    def parse(text) -> int:
        try:
            value = int(text)
        except ValueError as exc:
            raise DomainError(f"cannot parse integer {text!r}") from exc
        if limit is not None and value > limit:
            raise GuardExceededError(f"{what} {value} exceeds the guard {limit}")
        return value

    parse.limit = limit
    return parse


def _flatten(node, path=""):
    if isinstance(node, dict):
        for key in sorted(node):
            yield from _flatten(node[key], f"{path}.{key}" if path else key)
    elif isinstance(node, list):
        for i, item in enumerate(node):
            yield from _flatten(item, f"{path}[{i}]")
    else:
        yield path, json.dumps(node)


# --rule family -> (flags it reads, flags it requires, constructor); eval
# without a rule reads --prefix.
_RULES = {
    None: (("prefix",), (), None),
    "power": (("prefix", "alpha"), ("alpha",), lambda a: PowerFloorRule(a.prefix or (), a.alpha)),
    "tower": (("prefix",), (), lambda a: PowerFloorRule(a.prefix or (), 0)),
    "linear": (("offset",), (), lambda a: LinearRule(a.offset or 0)),
    "binary": (("alpha", "pattern"), ("alpha", "pattern"),
               lambda a: BitPerturbedRule(a.alpha, a.pattern)),
}


def _build_rule(args):
    """The rule of eval's or lambda's --rule (None without one), refusing unread flags."""
    reads, requires, build = _RULES[args.rule]
    for flag in ("prefix", "alpha", "pattern", "offset"):
        if getattr(args, flag, None) is not None and flag not in reads:
            family = f"--rule {args.rule}" if args.rule else "no --rule"
            raise DomainError(f"{args.command} with {family} does not read --{flag}")
    if any(getattr(args, flag) is None for flag in requires):
        flags = " and ".join(f"--{flag}" for flag in requires)
        raise DomainError(f"--rule {args.rule} requires {flags}")
    return build(args) if build else None


def _cmd_expand(args, bits: int):
    x = args.value
    digits = digits_rational(x)
    tau = dual_representation(x)[1] if 0 < x < 1 else None
    orbit = shift_orbit(x, len(digits))
    results = {
        "digits": list(digits),
        "tau": list(tau) if tau is not None else None,
        "orbit": [fmt_rational(t) for t in orbit],
    }
    yield {"x": fmt_rational(x)}, results


def _cmd_eval(args, bits: int):
    rule = _build_rule(args)
    prefix = args.prefix
    params = {"prefix": list(prefix), "bits": bits}
    if rule is not None:
        value = expansion_value(PierceSeq.infinite(rule), bits)
        results = {"rule": rule.describe(), "value": fmt_enclosure(value)}
        params["rule"] = args.rule
        if args.alpha is not None:
            params["alpha"] = fmt_rational(rule.alpha)
    else:
        value = expansion_value(PierceSeq.finite(prefix), bits)
        results = {"value": fmt_rational(value)}
    if prefix:
        cell = fundamental_interval(prefix)
        results["interval"] = [fmt_rational(cell.left), fmt_rational(cell.right)]
        results["diameter"] = fmt_rational(cell.diameter)
    yield params, results


def _cmd_lambda(args, bits: int):
    rule = _build_rule(args)
    estimate = estimate_exponent(PierceSeq.infinite(rule), args.window)
    results = {
        "rule": rule.describe(),
        "window": [estimate.window_lo, estimate.window_hi],
        "sup": fmt_enclosure(estimate.sup),
        "sup_value": fmt_rational(estimate.sup_value),
        "window_certifies": estimate.certified,
        "certificate": fmt_rational(certified_exponent(rule)),
    }
    params = {"rule": args.rule, "window": args.window}
    yield params, results


def _cmd_construct(args, bits: int):
    interval, alpha = getattr(args, "in"), args.alpha  # "in" is a Python keyword
    witness = witness_in_interval(interval, alpha, bits)
    results = {
        "rule": witness.rule.describe(),
        "enclosure": fmt_enclosure(witness.enclosure),
        "certificate": fmt_rational(witness.certificate),
        "container": fmt_enclosure(witness.container),
    }
    params = {
        "alpha": fmt_rational(alpha),
        "in": fmt_enclosure(interval),
        "bits": bits,
    }
    yield params, results


def _cmd_divergent(args, bits: int):
    prefix, s = args.prefix, args.s
    rule = divergent_tail_rule(prefix, s, args.j)
    seq = PierceSeq.infinite(rule)
    results = {
        "rule": rule.describe(),
        "first_terms": list(rule.terms(12)),
        "verdict": classify_divergence(rule, s).value,
    }
    if args.terms is not None:
        partial = reciprocal_power_sum(seq, s, args.terms, bits)
        results["partial_sum"] = fmt_enclosure(partial.sum)
        results["n_terms"] = partial.n_terms
    params = {"s": fmt_rational(s), "prefix": list(prefix), "j": args.j}
    yield params, results


def _cmd_cover(args, bits: int):
    params_obj = CoverParams(N=args.N, alpha=args.alpha, beta=args.beta, epsilon=args.eps,
                             s=args.s, k_max=args.kmax)
    report = covering_sum(params_obj, bits)
    results = {
        "threshold": fmt_rational(report.threshold),
        "verdict": report.verdict.value,
        "k_range": [report.ks[0], report.ks[-1]],
        "terms": [fmt_enclosure(t) for t in report.terms],
        "ratios": [fmt_enclosure(r) for r in report.ratios],
        "partial_sums": [fmt_enclosure(p) for p in report.partial_sums],
    }
    params = {
        "N": args.N,
        "alpha": fmt_rational(params_obj.alpha),
        "beta": fmt_rational(params_obj.beta),
        "eps": fmt_rational(params_obj.epsilon),
        "s": fmt_rational(params_obj.s),
        "kmax": args.kmax,
    }
    yield params, results


def _cmd_grid(args, bits: int):
    report = grid_witness_sweep(args.alpha, args.depth, bits)
    params = {"alpha": fmt_rational(args.alpha), "depth": args.depth, "bits": bits}
    for cell in report.cells:
        results = {
            "kind": "cell",
            "index": cell.index,
            "cell": fmt_enclosure(cell.cell),
            "prefix": list(cell.witness.rule.prefix),
            "enclosure": fmt_enclosure(cell.witness.enclosure),
            "certificate": fmt_rational(cell.witness.certificate),
        }
        yield params, results
    summary = {
        "kind": "summary",
        "cells": len(report.cells),
        "all_witnessed": report.all_witnessed,
    }
    yield params, summary


def _cmd_sample(args, bits: int):
    report = sample_digit_statistics(args.bits, args.count, args.seed)
    params = {"bits": args.bits, "count": args.count, "seed": args.seed}
    for rec in report.samples:
        results = {
            "kind": "sample",
            "index": rec.index,
            "depth": rec.depth,
            "status": rec.status.value,
            "log_ratio": fmt_enclosure(rec.log_ratio) if rec.log_ratio else None,
            "window": fmt_enclosure(rec.window),
        }
        yield params, results
    summary = {
        "kind": "summary",
        "algorithm": report.algorithm,
        "median_log_ratio": fmt_rational(report.median_log_ratio),
        "median_depth": fmt_rational(report.median_depth),
    }
    yield params, summary


REQUIRED = object()  # the default of a flag that must be given

# The enclosure precision; a command without this entry reports the default.
_PRECISION = ("--bits", _integer(4096, "precision bits"), DEFAULT_PRECISION_BITS)

# command -> (handler, USAGE summary, flags).  A flag is (name, parse, default),
# positional without dashes; a tuple parse lists the accepted choices.
_COMMANDS = {
    "expand": (_cmd_expand, "digit sequence, dual representation, and shift orbit of p/q", (
        ("value", parse_rational, REQUIRED),
    )),
    "eval": (_cmd_eval, "expansion value and fundamental interval of a digit prefix", (
        ("--prefix", parse_prefix, REQUIRED),
        ("--rule", ("power", "tower"), None),
        ("--alpha", parse_rational, None),
        _PRECISION,
    )),
    "lambda": (_cmd_lambda, "exponent window diagnostic and certificate for a digit rule", (
        ("--rule", ("power", "tower", "linear", "binary"), REQUIRED),
        ("--prefix", parse_prefix, None),
        ("--alpha", parse_rational, None),
        ("--pattern", parse_pattern, None),
        ("--offset", _integer(), None),
        ("--window", _integer(1_000_000, "window"), REQUIRED),
    )),
    "construct": (_cmd_construct, "certified-exponent witness inside an interval", (
        ("--alpha", parse_rational, REQUIRED),
        ("--in", parse_interval, REQUIRED),
        _PRECISION,
    )),
    "divergent": (_cmd_divergent, "divergent-tail rule and its reciprocal power sums", (
        ("--s", parse_rational, REQUIRED),
        ("--prefix", parse_prefix, REQUIRED),
        ("--j", _integer(), REQUIRED),
        ("--terms", _integer(10_000, "terms"), None),
        _PRECISION,
    )),
    "cover": (_cmd_cover, "covering-series term/ratio ledger and verdict", (
        ("--alpha", parse_rational, REQUIRED),
        ("--beta", parse_rational, REQUIRED),
        ("--eps", parse_rational, REQUIRED),
        ("--s", parse_rational, REQUIRED),
        ("--kmax", _integer(), REQUIRED),
        ("--N", _integer(), 1),
        _PRECISION,
    )),
    "grid": (_cmd_grid, "witness sweep over all dyadic cells of a given depth", (
        ("--alpha", parse_rational, REQUIRED),
        ("--depth", _integer(), REQUIRED),
        _PRECISION,
    )),
    "sample": (_cmd_sample, "seeded Monte Carlo digit statistics", (
        ("--bits", _integer(65_536, "sample bits"), REQUIRED),
        ("--count", _integer(5_000, "sample count"), REQUIRED),
        ("--seed", _integer(), REQUIRED),
    )),
}

USAGE = "usage: pierce-lab [--format json|csv] COMMAND ...\n\ncommands:\n" + "".join(
    f"  {name:<10} {summary}\n" for name, (_, summary, _) in _COMMANDS.items()
)


class _ArgumentParser(argparse.ArgumentParser):
    """Raises usage errors instead of printing them, and reads "-p/q" as a value."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        # argparse's own pattern takes "-3" for a value but "-3/4" for an option.
        self._negative_number_matcher = re.compile(r"^-[0-9]+(/[0-9]+)?$|^-[0-9]*\.[0-9]+$")

    def error(self, message):
        raise argparse.ArgumentError(None, message)


@functools.cache  # built on first use, so importing the module stays cheap
def _build_parser() -> argparse.ArgumentParser:
    parser = _ArgumentParser(prog="pierce-lab", add_help=True)
    parser.add_argument("--format", choices=("json", "csv"), default="json")
    sub = parser.add_subparsers(dest="command")
    for command, (_, _, flags) in _COMMANDS.items():
        p = sub.add_parser(command)
        for name, parse, default in flags:
            options = {"choices": parse} if isinstance(parse, tuple) else {}
            if name.startswith("-"):  # argparse refuses these for a positional
                options.update(required=default is REQUIRED, default=default)
            p.add_argument(name, **options)
    return parser


def run(argv, stdout: TextIO, stderr: TextIO) -> int:
    argv = list(argv)
    if argv and argv[0] in ("-h", "--help"):
        print(USAGE, file=stdout, end="")
        return 0
    if not any(a in _COMMANDS for a in argv):
        attempted = next((a for a in argv if not a.startswith("-")), "(none)")
        print(f"unknown subcommand: {attempted}", file=stderr)
        print(USAGE, file=stderr, end="")
        return 64
    try:
        with contextlib.redirect_stdout(stdout):  # argparse prints help to sys.stdout
            args = _build_parser().parse_args(argv)
    except SystemExit as exc:
        return 0 if exc.code in (0, None) else 2
    except argparse.ArgumentError as exc:
        print(f"usage error: {exc}", file=stderr)
        return 2
    handler, _, flags = _COMMANDS[args.command]
    try:
        # not argparse's type=, which would make a DomainError a usage error
        for name, parse, _ in flags:
            dest = name.lstrip("-")
            value = getattr(args, dest)
            if isinstance(value, str) and callable(parse):
                setattr(args, dest, parse(value))
        bits = args.bits if _PRECISION in flags else DEFAULT_PRECISION_BITS
        if bits < 0:
            raise DomainError(f"precision must be non-negative, got {bits} bits")
        seed = getattr(args, "seed", None)
        provenance = {"version": __version__, "seed": seed, "precision_bits": bits}
        for line, (params, results) in enumerate(handler(args, bits)):
            envelope = {
                "command": args.command,
                "params": params,
                "results": results,
                "provenance": provenance,
            }
            try:  # both formats refuse an integer past Python's int-to-str digit limit
                if args.format == "json":
                    text = json.dumps(envelope, sort_keys=True, separators=(",", ":")) + "\n"
                else:
                    import csv  # imported here: only --format csv needs it
                    buf = io.StringIO()
                    csv.writer(buf, lineterminator="\n").writerows(
                        [line, path, value] for path, value in _flatten(envelope)
                    )
                    text = buf.getvalue()
            except ValueError as exc:
                raise GuardExceededError(f"report number too long to print: {exc}") from exc
            stdout.write(text)
        return 0
    except GuardExceededError as exc:
        print(f"guard exceeded: {exc}", file=stderr)
        return 3
    except DomainError as exc:
        print(f"domain error: {exc}", file=stderr)
        return 2
    except OSError as exc:
        print(f"error: {exc}", file=stderr)
        return 2


def main(argv: Optional[list[str]] = None) -> int:
    if argv is None:
        argv = sys.argv[1:]
    return run(argv, sys.stdout, sys.stderr)


if __name__ == "__main__":
    sys.exit(main())
