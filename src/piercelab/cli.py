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
import csv
import functools
import io
import json
import os
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
from .rules import BitPerturbedRule, LinearRule, PowerFloorRule, TowerRule
from .space import (
    DEFAULT_PRECISION_BITS,
    PierceSeq,
    dual_representation,
    expansion_value,
    fundamental_interval,
)

__all__ = ["main", "run", "REPORT_SCHEMA"]

ENV_PRECISION = "PIERCE_LAB_PRECISION_BITS"

USAGE = """usage: pierce-lab [--format json|csv] [--config FILE] COMMAND ...

commands:
  expand     digit sequence, dual representation, and shift orbit of p/q
  eval       expansion value and fundamental interval of a digit prefix
  lambda     exponent window diagnostic and certificate for a digit rule
  construct  certified-exponent witness inside an interval
  divergent  divergent-tail rule and its reciprocal power sums
  cover      covering-series term/ratio ledger and verdict
  grid       witness sweep over all dyadic cells of a given depth
  sample     seeded Monte Carlo digit statistics
"""

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


def fmt_enclosure(e) -> list[str]:
    if isinstance(e, Enclosure):
        return [fmt_rational(e.lo), fmt_rational(e.hi)]
    raise TypeError(f"not an enclosure: {e!r}")


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


def parse_prefix(text: Optional[str]) -> tuple[int, ...]:
    if not text:
        return ()
    try:
        digits = tuple(int(p) for p in text.split(","))
    except ValueError as exc:
        raise DomainError(f"cannot parse prefix {text!r}") from exc
    return validate_prefix(digits)


def _flatten(node, path=""):
    if isinstance(node, dict):
        for key in sorted(node):
            yield from _flatten(node[key], f"{path}.{key}" if path else key)
    elif isinstance(node, list):
        for i, item in enumerate(node):
            yield from _flatten(item, f"{path}[{i}]")
    else:
        yield path, json.dumps(node)


# The family flags that each --rule reads; eval without a rule reads --prefix.
_RULE_FLAGS = {
    None: ("prefix",),
    "power": ("prefix", "alpha"),
    "tower": ("prefix",),
    "linear": ("offset",),
    "binary": ("alpha", "pattern"),
}


def _check_rule_flags(args) -> None:
    """Refuse a family flag of eval or lambda that the rule family ignores."""
    for flag in ("prefix", "alpha", "pattern", "offset"):
        if getattr(args, flag, None) is not None and flag not in _RULE_FLAGS[args.rule]:
            family = f"--rule {args.rule}" if args.rule else "no --rule"
            raise DomainError(f"{args.command} with {family} does not read --{flag}")


def _build_rule(args, prefix: tuple[int, ...]):
    family = args.rule
    alpha = None if args.alpha is None else parse_rational(args.alpha)
    if family == "power":
        if alpha is None:
            raise DomainError("--rule power requires --alpha")
        return PowerFloorRule(prefix, alpha)
    if family == "tower":
        return TowerRule(prefix)
    if family == "linear":
        return LinearRule(args.offset or 0)
    if family == "binary":
        if alpha is None or args.pattern is None:
            raise DomainError("--rule binary requires --alpha and --pattern")
        try:
            bits = tuple(int(c) for c in args.pattern)
        except ValueError as exc:
            raise DomainError(f"cannot parse pattern {args.pattern!r}") from exc
        return BitPerturbedRule(alpha, bits)
    raise DomainError(f"unknown rule family {family!r}")


def _cmd_expand(args, bits: int):
    x = parse_rational(args.value)
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
    _check_rule_flags(args)
    prefix = parse_prefix(args.prefix)
    params = {"prefix": list(prefix), "bits": bits}
    if args.rule:
        rule = _build_rule(args, prefix)
        value = expansion_value(PierceSeq.infinite(rule), bits)
        results = {"rule": rule.describe(), "value": fmt_enclosure(value)}
        params["rule"] = args.rule
        if args.alpha:
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
    _check_rule_flags(args)
    rule = _build_rule(args, parse_prefix(args.prefix))
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
    interval = parse_interval(args.interval)
    alpha = parse_rational(args.alpha)
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
    prefix = parse_prefix(args.prefix)
    s = parse_rational(args.s)
    rule = divergent_tail_rule(prefix, s, args.j)
    seq = PierceSeq.infinite(rule)
    results = {
        "rule": rule.describe(),
        "first_terms": list(rule.terms(12)),
        "verdict": classify_divergence(rule, s).value,
    }
    if args.terms:
        partial = reciprocal_power_sum(seq, s, args.terms, bits)
        results["partial_sum"] = fmt_enclosure(partial.sum)
        results["n_terms"] = partial.n_terms
    params = {"s": fmt_rational(s), "prefix": list(prefix), "j": args.j}
    yield params, results


def _cmd_cover(args, bits: int):
    params_obj = CoverParams(
        N=args.N,
        alpha=parse_rational(args.alpha),
        beta=parse_rational(args.beta),
        epsilon=parse_rational(args.eps),
        s=parse_rational(args.s),
        k_max=args.kmax,
    )
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
    alpha = parse_rational(args.alpha)
    report = grid_witness_sweep(alpha, args.depth, bits)
    params = {"alpha": fmt_rational(alpha), "depth": args.depth, "bits": bits}
    for cell in report.cells:
        results = {
            "kind": "cell",
            "index": cell.index,
            "cell": fmt_enclosure(cell.cell),
            "prefix": list(cell.witness.rule.describe().get("prefix", [])),
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


_COMMANDS = {
    "expand": _cmd_expand,
    "eval": _cmd_eval,
    "lambda": _cmd_lambda,
    "construct": _cmd_construct,
    "divergent": _cmd_divergent,
    "cover": _cmd_cover,
    "grid": _cmd_grid,
    "sample": _cmd_sample,
}


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
    parser.add_argument("--config", default=None, help="JSON config file")
    sub = parser.add_subparsers(dest="command")

    p = sub.add_parser("expand")
    p.add_argument("value")

    p = sub.add_parser("eval")
    p.add_argument("--prefix", required=True)
    p.add_argument("--rule", choices=("power", "tower"), default=None)
    p.add_argument("--alpha", default=None)
    p.add_argument("--bits", type=int, default=None)

    p = sub.add_parser("lambda")
    p.add_argument("--rule", required=True, choices=("power", "tower", "linear", "binary"))
    p.add_argument("--prefix", default=None)
    p.add_argument("--alpha", default=None)
    p.add_argument("--pattern", default=None)
    p.add_argument("--offset", type=int, default=None)
    p.add_argument("--window", type=int, required=True)

    p = sub.add_parser("construct")
    p.add_argument("--alpha", required=True)
    p.add_argument("--in", dest="interval", required=True, help="lo,hi rationals")
    p.add_argument("--bits", type=int, default=None)

    p = sub.add_parser("divergent")
    p.add_argument("--s", required=True)
    p.add_argument("--prefix", required=True)
    p.add_argument("--j", type=int, required=True)
    p.add_argument("--terms", type=int, default=None)
    p.add_argument("--bits", type=int, default=None)

    p = sub.add_parser("cover")
    p.add_argument("--alpha", required=True)
    p.add_argument("--beta", required=True)
    p.add_argument("--eps", required=True)
    p.add_argument("--s", required=True)
    p.add_argument("--kmax", type=int, required=True)
    p.add_argument("--N", type=int, default=1)
    p.add_argument("--bits", type=int, default=None)

    p = sub.add_parser("grid")
    p.add_argument("--alpha", required=True)
    p.add_argument("--depth", type=int, required=True)
    p.add_argument("--bits", type=int, default=None)

    p = sub.add_parser("sample")
    p.add_argument("--bits", type=int, required=True)
    p.add_argument("--count", type=int, required=True)
    p.add_argument("--seed", type=int, required=True)

    return parser


def _resolve_precision(args) -> int:
    # sample's --bits is the draw width, not a precision
    bits = None if args.command == "sample" else getattr(args, "bits", None)
    env = os.environ.get(ENV_PRECISION)
    if bits is None and env is not None:
        try:
            bits = int(env)
        except ValueError as exc:
            raise DomainError(f"bad {ENV_PRECISION}={env!r}") from exc
    if bits is None and args.config:
        try:
            with open(args.config, "r", encoding="utf-8") as fh:
                config = json.load(fh)
        except ValueError as exc:  # malformed JSON or text
            raise DomainError(f"bad config file {args.config}: {exc}") from exc
        if not isinstance(config, dict):
            raise DomainError(f"bad config file {args.config}: expected a JSON object")
        if "precision_bits" in config:
            bits = config["precision_bits"]
            if type(bits) is not int:  # a JSON bool is an int subclass here
                raise DomainError(
                    f"bad config file {args.config}: precision_bits must be an integer"
                )
    bits = DEFAULT_PRECISION_BITS if bits is None else bits
    if bits < 0:
        raise DomainError(f"precision must be non-negative, got {bits} bits")
    return bits


def run(argv, stdout: TextIO, stderr: TextIO) -> int:
    argv = list(argv)
    if argv and argv[0] in ("-h", "--help"):
        print(USAGE, file=stdout, end="")
        return 0
    if not any(a in _COMMANDS for a in argv):
        attempted = next(
            (a for a in argv if not a.startswith("-")), "(none)"
        )
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
    try:
        bits = _resolve_precision(args)
        seed = getattr(args, "seed", None)
        provenance = {"version": __version__, "seed": seed, "precision_bits": bits}
        for line, (params, results) in enumerate(_COMMANDS[args.command](args, bits)):
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
